"""Picklable per-shard work functions executed on the workers.

Every function here takes one picklable task object and returns one
picklable payload, so the same callables run unchanged on the serial,
thread, and process backends.  Nothing in this module touches global state:
a shard's output depends only on its task, which is what makes the merged
result deterministic regardless of scheduling order.

The scan kernels are the shared encoding stack: scan 1 is
:func:`repro.core.counting.letter_counts_for_segments` and scan 2 encodes
the shard once into a contiguous
:class:`~repro.kernels.store.SegmentStore` against the run's ``C_max``
vocabulary, collapsing identical hits in a ``Counter`` keyed by the
mask.  Decoding back to letter sets happens
once per *distinct* hit at merge time
(:func:`repro.engine.merge.hits_to_tree`), not once per segment.
"""

from __future__ import annotations

from collections import Counter

from repro.core.counting import letter_counts_for_segments, min_count
from repro.core.pattern import Letter
from repro.encoding.vocabulary import LetterVocabulary
from repro.engine.partition import SegmentShard
from repro.kernels.store import SegmentStore

#: Scan-1 task: just the shard (the period rides on it).
LetterTask = SegmentShard

#: Scan-2 task: the shard plus the sorted ``C_max`` letters defining the
#: bit order shared by every shard of the run.
HitTask = tuple[SegmentShard, tuple[Letter, ...]]

#: Per-period task: shard covering the whole period, threshold and letter
#: cap.
PeriodTask = tuple[SegmentShard, float, "int | None"]

#: Per-period payload: period, segment count, the worker's sorted C_max
#: vocabulary as a letter tuple, ``(mask, count)`` rows over that
#: vocabulary, and primitive stats.
PeriodPayload = tuple[
    int, int, tuple[Letter, ...], list[tuple[int, int]], dict
]


def count_shard_letters(shard: SegmentShard) -> Counter:
    """Scan 1 over one shard: count every ``(offset, feature)`` letter.

    Returns the shard's partial F1 counter; summing the counters of all
    shards gives exactly the full-series letter counts because each whole
    segment lives in exactly one shard.
    """
    return letter_counts_for_segments(shard.series.segments(shard.period))


def collect_shard_hits(task: HitTask) -> Counter:
    """Scan 2 over one shard: the multiset of segment hits as bitmasks.

    ``letter_order`` fixes bit ``i`` to ``letter_order[i]``; the returned
    counter maps each distinct hit mask (with at least two bits set) to the
    number of shard segments producing it.  Hits with fewer than two
    letters are dropped here, mirroring the serial tree's insertion rule.
    """
    shard, letter_order = task
    vocab = LetterVocabulary(letter_order, period=shard.period)
    # One scan into a contiguous SegmentStore, then one pass over its
    # *distinct* masks — identical totals to counting segment by segment.
    # For packed vocabularies the store answers through the columnar
    # kernels (chunked ``np.unique`` + vectorized popcount filter), and a
    # store whose buffer lives on disk would have arrived here as just a
    # file path (the store pickles by path and the worker re-maps it).
    store = SegmentStore.from_series(shard.series, shard.period, vocab)
    return store.hit_counter()


def mine_period_task(task: PeriodTask) -> PeriodPayload:
    """Mine one whole period on a worker (per-period fan-out).

    The task's shard covers *all* whole segments of its period — period
    fan-out parallelizes across periods, not within one.  Returns primitive
    data only (the vocabulary as a sorted letter tuple, patterns as int
    masks over it, stats as a plain dict) so the payload pickles cheaply
    and the parent rebuilds ``Pattern`` objects once.
    """
    shard, min_conf, max_letters = task
    period = shard.period
    letter_counts = count_shard_letters(shard)
    threshold = min_count(min_conf, shard.num_segments)
    f1 = {
        letter: count
        for letter, count in letter_counts.items()
        if count >= threshold
    }
    stats = {"scans": 1, "tree_nodes": 0, "hit_set_size": 0, "candidate_counts": {}}
    if not f1:
        return period, shard.num_segments, (), [], stats
    # Local import: worker.py must stay importable before merge.py during
    # package initialization.
    from repro.engine.merge import hits_to_tree

    letter_order = tuple(sorted(f1))
    hit_counter = collect_shard_hits((shard, letter_order))
    tree = hits_to_tree(period, letter_order, hit_counter)
    counts, candidate_counts = tree.derive_frequent(
        threshold, f1, max_letters=max_letters
    )
    stats.update(
        scans=2,
        tree_nodes=tree.node_count,
        hit_set_size=tree.hit_set_size,
        candidate_counts=candidate_counts,
    )
    vocab = tree.vocab
    payload = [
        (vocab.encode_letters(letters), count)
        for letters, count in counts.items()
    ]
    return period, shard.num_segments, tuple(vocab), payload, stats
