"""repro.engine — sharded parallel mining with mergeable partial results.

The max-subpattern hit-set method (Algorithm 3.2) is two associative passes
over period segments: scan 1 counts letters into a ``Counter`` and scan 2
registers per-segment hits in a :class:`~repro.tree.MaxSubpatternTree`.
Both states are additive over disjoint segment sets, so the series can be
split into contiguous segment shards, each shard mined independently, and
the partial results merged — producing output letter-for-letter identical
to the serial miner.

Layout
------
``partition``
    Split a :class:`~repro.timeseries.feature_series.FeatureSeries` into
    contiguous :class:`SegmentShard` chunks with stable shard ids.
``worker``
    The picklable per-shard work functions (letter counting, hit
    collection, whole-period mining) executed on the workers.
``merge``
    Deterministic merging of partial counters and partial trees.
``executor``
    Pluggable serial / thread / process backends behind one interface,
    with per-shard error capture and serial-retry degradation.
``parallel``
    The :class:`ParallelMiner` facade: ``mine(period, workers=N)`` and
    per-period fan-out for period ranges.
``stats``
    Per-shard timings and scan accounting, surfaced on the result.

Quickstart
----------
>>> from repro.engine import ParallelMiner
>>> miner = ParallelMiner("abdabcabdabc", min_conf=0.9)
>>> sorted(str(p) for p in miner.mine(3, workers=2))
['*b*', 'a**', 'ab*']
"""

from repro.engine.executor import (
    BackendLadder,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ShardOutcome,
    ThreadBackend,
    resolve_backend,
    run_shards,
    visible_cpus,
)
from repro.engine.merge import (
    hits_to_tree,
    merge_counters,
    merge_hit_counters,
    merge_trees,
)
from repro.engine.parallel import ParallelMiner
from repro.engine.partition import (
    EncodedShard,
    SegmentShard,
    encode_shard,
    partition_segments,
    plan_chunks,
)
from repro.engine.stats import DegradationEvent, EngineStats, ShardStats
from repro.engine.worker import (
    collect_shard_hits,
    count_shard_letters,
    mine_period_task,
)

__all__ = [
    "BackendLadder",
    "DegradationEvent",
    "EncodedShard",
    "EngineStats",
    "ExecutionBackend",
    "ParallelMiner",
    "ProcessBackend",
    "SegmentShard",
    "SerialBackend",
    "ShardOutcome",
    "ShardStats",
    "ThreadBackend",
    "collect_shard_hits",
    "count_shard_letters",
    "encode_shard",
    "hits_to_tree",
    "merge_counters",
    "merge_hit_counters",
    "merge_trees",
    "mine_period_task",
    "partition_segments",
    "plan_chunks",
    "resolve_backend",
    "run_shards",
    "visible_cpus",
]
