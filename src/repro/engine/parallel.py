"""The :class:`ParallelMiner` facade — sharded hit-set mining.

``mine(period, workers=N)`` runs Algorithm 3.2 as two shard fan-outs:

1. **Scan 1** — each worker counts the letters of its contiguous segment
   shard; the partial counters merge into the exact full-series F1 and the
   candidate max-pattern ``C_max``.
2. **Scan 2** — each worker collects its shard's segment hits against
   ``C_max`` (as bitmask multisets); each shard's hits become a partial
   max-subpattern tree and the trees merge by count union.

Derivation (Algorithm 4.2) then runs once on the merged tree, so the
frequent set and every count are identical to
:func:`repro.core.hitset.mine_single_period_hitset` — the equivalence the
randomized suite in ``tests/test_engine.py`` enforces.

``mine_periods`` / ``mine_period_range`` parallelize differently: one task
per period (per-period fan-out), each worker mining its whole period
independently — the parallel form of Algorithm 3.3's loop.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from dataclasses import replace as _dc_replace
from pathlib import Path
from typing import Any

from repro.core.counting import check_min_conf, frequent_letter_set, min_count
from repro.core.errors import EngineError, MiningError
from repro.core.multiperiod import (
    MultiPeriodResult,
    _validated_periods,
    period_range,
)
from repro.core.pattern import Pattern
from repro.core.result import MiningResult, MiningStats
from repro.engine.executor import (
    BackendLadder,
    ExecutionBackend,
    ShardOutcome,
    resolve_backend,
    run_shards,
    visible_cpus,
)
from repro.resilience.context import ResilienceContext
from repro.resilience.journal import CheckpointJournal, series_fingerprint
from repro.encoding.vocabulary import LetterVocabulary
from repro.engine.merge import (
    hits_to_tree,
    merge_counters,
    merge_trees,
)
from repro.engine.partition import SegmentShard, partition_segments
from repro.engine.stats import EngineStats, ShardStats
from repro.engine.worker import (
    PeriodTask,
    collect_shard_hits,
    count_shard_letters,
    mine_period_task,
)
from repro.kernels.cache import CountCache
from repro.kernels.profile import MiningProfile
from repro.timeseries.feature_series import FeatureSeries, as_feature_series


def default_workers() -> int:
    """The worker count used when none is given: the visible CPU count."""
    return visible_cpus()


def _run_key(
    series: FeatureSeries,
    shards: Sequence[SegmentShard],
    **params: Any,
) -> dict[str, Any]:
    """The journal run key: everything that shapes this run's payloads.

    A resumed journal must match on series content, partition plan, and
    the mining parameters — resuming with, say, a different worker count
    produces a different plan and is rejected up front rather than
    silently merging incompatible shards.
    """
    key: dict[str, Any] = {
        "series": series_fingerprint(series),
        "series_len": len(series),
        "plan": [
            [shard.shard_id, shard.period, shard.start_segment, shard.num_segments]
            for shard in shards
        ],
    }
    key.update(params)
    return key


def _attach_journal(
    resilience: ResilienceContext | None,
    journal_path: str | Path | None,
    run_key: dict[str, Any],
) -> tuple[ResilienceContext | None, CheckpointJournal | None]:
    """The context a run should use, opening a journal when asked.

    ``journal_path`` overrides any journal already on the context.  The
    second element is the journal *this call* opened (the caller owns
    closing it); ``None`` when the caller passed their own.
    """
    if journal_path is None:
        return resilience, None
    journal = CheckpointJournal(journal_path, run_key)
    base = resilience if resilience is not None else ResilienceContext()
    return _dc_replace(base, journal=journal), journal


def _plain_series(data: FeatureSeries | str | Iterable) -> FeatureSeries:
    """Coerce input to a real :class:`FeatureSeries` (shards need slicing).

    Scan-counting wrappers are unwrapped: a sharded run spreads each scan
    over workers, so its I/O ledger lives in :class:`EngineStats`
    (``slots_scanned`` / ``scan_equivalents``) instead.
    """
    series = as_feature_series(data)
    if isinstance(series, FeatureSeries):
        return series
    inner = getattr(series, "series", None)
    if isinstance(inner, FeatureSeries):
        return inner
    raise EngineError(
        f"cannot shard a {type(series).__name__}; pass a FeatureSeries"
    )


class ParallelMiner:
    """Sharded, multi-worker counterpart of :class:`PartialPeriodicMiner`.

    Parameters
    ----------
    series:
        A :class:`FeatureSeries`, a symbol string, or any iterable of
        slots.  Scan-counting wrappers are unwrapped (see
        :class:`EngineStats` for the parallel cost ledger).
    min_conf:
        Default confidence threshold, overridable per call.
    workers:
        Default worker count; ``None`` uses the visible CPU count.
    backend:
        ``"auto"`` (serial for one worker, processes otherwise),
        ``"serial"``, ``"thread"``, ``"process"``, or an
        :class:`~repro.engine.executor.ExecutionBackend` instance.
    chunk_size:
        Segments per shard; ``None`` splits evenly into one shard per
        worker.

    Examples
    --------
    >>> miner = ParallelMiner("abdabcabdabc", min_conf=0.9)
    >>> result = miner.mine(3, workers=2)
    >>> sorted(str(p) for p in result)
    ['*b*', 'a**', 'ab*']
    >>> result.engine.workers
    2
    """

    def __init__(
        self,
        series: FeatureSeries | str | Iterable,
        min_conf: float = 0.5,
        workers: int | None = None,
        backend: str | ExecutionBackend = "auto",
        chunk_size: int | None = None,
    ):
        check_min_conf(min_conf)
        self.series = _plain_series(series)
        self.min_conf = min_conf
        self.workers = default_workers() if workers is None else workers
        if self.workers < 1:
            raise EngineError(f"workers must be >= 1, got {self.workers}")
        self.backend = backend
        self.chunk_size = chunk_size

    # ------------------------------------------------------------------
    # Single-period mining (sharded Algorithm 3.2)
    # ------------------------------------------------------------------

    def mine(
        self,
        period: int,
        min_conf: float | None = None,
        workers: int | None = None,
        backend: str | ExecutionBackend | None = None,
        chunk_size: int | None = None,
        max_letters: int | None = None,
        cache: CountCache | None = None,
        profile: MiningProfile | None = None,
        resilience: ResilienceContext | None = None,
        journal_path: str | Path | None = None,
    ) -> MiningResult:
        """All frequent patterns of one period, mined over segment shards.

        Letter-for-letter identical to
        :func:`~repro.core.hitset.mine_single_period_hitset`; the result
        additionally carries :attr:`~repro.core.result.MiningResult.engine`
        with the per-shard ledger.

        ``cache`` (a :class:`~repro.kernels.cache.CountCache`) short-
        circuits whole fan-outs: a cached scan skips its worker phase
        entirely and ``stats.scans`` counts only the fan-outs that actually
        ran.  ``profile`` accumulates per-stage wall times and cache
        counters alongside the engine ledger.

        ``resilience`` supplies the retry policy, per-shard timeout, and
        wall-clock deadline (see :mod:`repro.resilience`); ``journal_path``
        checkpoints every completed shard there and resumes from any
        matching entries already present, overriding a journal on the
        context.
        """
        min_conf = self.min_conf if min_conf is None else min_conf
        check_min_conf(min_conf)
        if max_letters is not None and max_letters < 1:
            raise MiningError(f"max_letters must be >= 1, got {max_letters}")
        workers = self.workers if workers is None else workers
        chunk_size = self.chunk_size if chunk_size is None else chunk_size
        started = time.perf_counter()

        num_periods = self.series.num_periods(period)
        if num_periods == 0:
            raise MiningError(
                f"series of length {len(self.series)} has no whole period "
                f"of {period}"
            )
        shards = partition_segments(
            self.series,
            period,
            num_shards=None if chunk_size is not None else workers,
            chunk_size=chunk_size,
        )
        resolved = resolve_backend(
            self.backend if backend is None else backend, workers
        )
        ctx, owned_journal = _attach_journal(
            resilience,
            journal_path,
            _run_key(
                self.series,
                shards,
                period=period,
                min_conf=min_conf,
            ),
        )
        cache_key = (
            cache.key_for(self.series, period) if cache is not None else None
        )
        ladder = BackendLadder(resolved)
        engine = EngineStats(backend=resolved.name, workers=workers)
        engine.partition_s = time.perf_counter() - started
        if profile is not None:
            profile.add_stage(
                "partition", engine.partition_s, items=len(shards)
            )
        stats = MiningStats()
        try:
            # ----- Scan 1: per-shard letter counters -> F1 ---------------
            letter_counts = (
                cache.get_letter_counts(cache_key)
                if cache is not None
                else None
            )
            if cache is not None and profile is not None:
                profile.count(
                    "cache_hits" if letter_counts is not None else "cache_misses"
                )
            if letter_counts is None:
                scan_started = time.perf_counter()
                outcomes = run_shards(
                    ladder, count_shard_letters, shards, ctx, phase="f1"
                )
                self._record(engine, "f1", shards, outcomes)
                if profile is not None:
                    profile.add_stage(
                        "scan1",
                        time.perf_counter() - scan_started,
                        items=num_periods,
                    )
                merge_started = time.perf_counter()
                letter_counts = merge_counters(
                    outcome.value for outcome in outcomes
                )
                engine.merge_s += time.perf_counter() - merge_started
                stats.scans += 1
                if cache is not None:
                    cache.put_letter_counts(cache_key, letter_counts)
            threshold = min_count(min_conf, num_periods)
            f1 = frequent_letter_set(letter_counts, threshold)

            if not f1:
                engine.degradations = list(ladder.degradations)
                engine.total_s = time.perf_counter() - started
                return MiningResult(
                    algorithm="parallel-hitset",
                    period=period,
                    min_conf=min_conf,
                    num_periods=num_periods,
                    counts={},
                    stats=stats,
                    engine=engine,
                )

            # ----- Scan 2: per-shard hits -> partial trees -> merged tree
            letter_order = tuple(sorted(f1))
            tree = None
            if cache is not None:
                hit_table = cache.get_hit_table(cache_key, letter_order)
                if profile is not None:
                    profile.count(
                        "cache_hits" if hit_table is not None else "cache_misses"
                    )
                if hit_table is not None:
                    merge_started = time.perf_counter()
                    tree = hits_to_tree(period, letter_order, hit_table)
                    engine.merge_s += time.perf_counter() - merge_started
            if tree is None:
                if ctx is not None:
                    # Scan-2 payloads are bitmasks over this exact ordering;
                    # a resumed journal must have been built against it.
                    ctx.pin_meta(
                        "hits",
                        [[offset, feature] for offset, feature in letter_order],
                    )
                scan_started = time.perf_counter()
                outcomes = run_shards(
                    ladder,
                    collect_shard_hits,
                    [(shard, letter_order) for shard in shards],
                    ctx,
                    phase="hits",
                )
                self._record(engine, "hits", shards, outcomes)
                if profile is not None:
                    profile.add_stage(
                        "scan2",
                        time.perf_counter() - scan_started,
                        items=num_periods,
                    )
                merge_started = time.perf_counter()
                tree = merge_trees(
                    [
                        hits_to_tree(period, letter_order, outcome.value)
                        for outcome in outcomes
                    ]
                )
                engine.merge_s += time.perf_counter() - merge_started
                stats.scans += 1
                if cache is not None:
                    cache.put_hit_table(
                        cache_key, letter_order, tree.stored_hits()
                    )
        finally:
            if owned_journal is not None:
                owned_journal.close()
        stats.tree_nodes = tree.node_count
        stats.hit_set_size = tree.hit_set_size

        # ----- Derivation (Algorithm 4.2, parent-side) -------------------
        derive_started = time.perf_counter()
        counts, candidate_counts = tree.derive_frequent(
            threshold, f1, max_letters=max_letters
        )
        engine.derive_s = time.perf_counter() - derive_started
        if profile is not None:
            profile.add_stage("merge", engine.merge_s)
            profile.add_stage(
                "derive",
                engine.derive_s,
                items=sum(candidate_counts.values()),
            )
        stats.candidate_counts = candidate_counts
        patterns = {
            Pattern.from_letters(period, letters): count
            for letters, count in counts.items()
        }
        engine.degradations = list(ladder.degradations)
        engine.total_s = time.perf_counter() - started
        return MiningResult(
            algorithm="parallel-hitset",
            period=period,
            min_conf=min_conf,
            num_periods=num_periods,
            counts=patterns,
            stats=stats,
            engine=engine,
        )

    # ------------------------------------------------------------------
    # Multi-period mining (per-period fan-out)
    # ------------------------------------------------------------------

    def mine_periods(
        self,
        periods: Iterable[int],
        min_conf: float | None = None,
        workers: int | None = None,
        backend: str | ExecutionBackend | None = None,
        min_repetitions: int = 1,
        max_letters: int | None = None,
        resilience: ResilienceContext | None = None,
        journal_path: str | Path | None = None,
    ) -> MultiPeriodResult:
        """Mine many periods with one worker task per period.

        The parallel form of Algorithm 3.3's loop: each task mines its
        whole period independently (2 scans per period).  Counts per
        period are identical to the serial loop.  ``resilience`` and
        ``journal_path`` behave as in :meth:`mine`; here each checkpointed
        shard is one whole mined period.
        """
        min_conf = self.min_conf if min_conf is None else min_conf
        check_min_conf(min_conf)
        workers = self.workers if workers is None else workers
        started = time.perf_counter()
        usable = _validated_periods(self.series, periods, min_repetitions)
        resolved = resolve_backend(
            self.backend if backend is None else backend, workers
        )
        engine = EngineStats(backend=resolved.name, workers=workers)

        tasks: list[PeriodTask] = []
        shards: list[SegmentShard] = []
        for index, period in enumerate(usable):
            num_segments = len(self.series) // period
            shard = SegmentShard(
                shard_id=index,
                period=period,
                start_segment=0,
                num_segments=num_segments,
                series=self.series.slice_segments(period, 0, num_segments),
            )
            shards.append(shard)
            tasks.append((shard, min_conf, max_letters))
        ctx, owned_journal = _attach_journal(
            resilience,
            journal_path,
            _run_key(
                self.series,
                shards,
                min_conf=min_conf,
                max_letters=max_letters,
                min_repetitions=min_repetitions,
            ),
        )
        ladder = BackendLadder(resolved)
        try:
            outcomes = run_shards(
                ladder, mine_period_task, tasks, ctx, phase="period"
            )
        finally:
            if owned_journal is not None:
                owned_journal.close()
        engine.degradations = list(ladder.degradations)

        result = MultiPeriodResult(
            algorithm="parallel-looping[hitset]",
            min_conf=min_conf,
            engine=engine,
        )
        for (shard, _, _), outcome in zip(tasks, outcomes):
            period, num_periods, vocab_letters, payload, stat_values = outcome.value
            stats = MiningStats(
                scans=stat_values["scans"],
                tree_nodes=stat_values["tree_nodes"],
                hit_set_size=stat_values["hit_set_size"],
                candidate_counts=dict(stat_values["candidate_counts"]),
            )
            engine.shards.append(
                ShardStats(
                    shard_id=shard.shard_id,
                    phase="period",
                    segments=stats.scans * shard.num_segments,
                    slots=stats.scans * shard.num_slots,
                    elapsed_s=outcome.elapsed_s,
                    retried=outcome.retried,
                    attempts=outcome.attempts,
                    resumed=outcome.resumed,
                )
            )
            vocab = LetterVocabulary(vocab_letters, period=period)
            result.results[period] = MiningResult(
                algorithm="parallel-hitset",
                period=period,
                min_conf=min_conf,
                num_periods=num_periods,
                counts={
                    Pattern.from_mask(vocab, mask): count
                    for mask, count in payload
                },
                stats=stats,
                engine=engine,
            )
            result.scans += stats.scans
        engine.total_s = time.perf_counter() - started
        return result

    def mine_period_range(
        self,
        low: int,
        high: int,
        min_conf: float | None = None,
        workers: int | None = None,
        backend: str | ExecutionBackend | None = None,
        min_repetitions: int = 1,
        max_letters: int | None = None,
        resilience: ResilienceContext | None = None,
        journal_path: str | Path | None = None,
    ) -> MultiPeriodResult:
        """Mine every period in ``[low, high]`` with per-period fan-out."""
        return self.mine_periods(
            period_range(low, high),
            min_conf=min_conf,
            workers=workers,
            backend=backend,
            min_repetitions=min_repetitions,
            max_letters=max_letters,
            resilience=resilience,
            journal_path=journal_path,
        )

    # ------------------------------------------------------------------

    @staticmethod
    def _record(
        engine: EngineStats,
        phase: str,
        shards: Sequence[SegmentShard],
        outcomes: Sequence[ShardOutcome],
    ) -> None:
        """Append one ShardStats row per shard outcome of a phase."""
        for shard, outcome in zip(shards, outcomes):
            engine.shards.append(
                ShardStats(
                    shard_id=shard.shard_id,
                    phase=phase,
                    segments=shard.num_segments,
                    slots=shard.num_slots,
                    elapsed_s=outcome.elapsed_s,
                    retried=outcome.retried,
                    attempts=outcome.attempts,
                    resumed=outcome.resumed,
                )
            )

    def __repr__(self) -> str:
        return (
            f"ParallelMiner(len={len(self.series)}, "
            f"min_conf={self.min_conf}, workers={self.workers}, "
            f"backend={self.backend!r})"
        )
