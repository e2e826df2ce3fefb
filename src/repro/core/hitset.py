"""Algorithm 3.2 — the max-subpattern hit-set method.

The paper's main contribution: mine all frequent partial periodic patterns
of one period in exactly **two scans** of the series.

Scan 1 finds the frequent 1-patterns ``F1`` and assembles the candidate
max-pattern ``C_max``.  Scan 2 registers, for every period segment, its hit
(the maximal subpattern of ``C_max`` true in the segment) in a
max-subpattern tree.  The frequency count of every pattern is then derived
from the tree alone (Algorithm 4.2) — no further passes over the data.
The scans and the derivation here are the one pipeline of every hit-set
miner: the maximal and constrained miners call them too, and Algorithm
3.4 derives each period's result through the same derivation step.

In-memory series mine on the batched kernels: scan 2 encodes into a
contiguous :class:`~repro.kernels.store.SegmentStore` and the derivation
answers every candidate level from one superset-sum pass.  Store inputs —
a prebuilt store (:func:`mine_store`) or a series mined with
:class:`~repro.kernels.store.StoreOptions` — mine on the columnar kernels
instead: one encode pass interns the series into the store (spilling to
an mmap'd on-disk file past the threshold), and both scans then run as
vectorized numpy ops over the store column — letter counting as one
unpack-and-sum pass, hit collection as chunked ``np.unique`` projected
onto the tree vocabulary.  A :class:`~repro.kernels.cache.CountCache`
removes the scans entirely on re-queries of the same series/period (the
paper's §4.2 re-mining scenario): the cached scan-1 letter counts serve
any ``min_conf``, and the cached scan-2 hit table serves any
equal-or-higher ``min_conf`` by projection.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from contextlib import nullcontext
from typing import TYPE_CHECKING, ContextManager

from repro.core.counting import (
    frequent_letter_set,
    letter_counts_for_segments,
    min_count,
)
from repro.core.errors import MiningError
from repro.core.maxpattern import FrequentOnePatterns
from repro.core.pattern import Letter, Pattern
from repro.core.result import MiningResult, MiningStats
from repro.encoding.vocabulary import LetterVocabulary, remap_mask
from repro.tree.max_subpattern_tree import MaxSubpatternTree
from repro.timeseries.feature_series import FeatureSeries

if TYPE_CHECKING:
    from repro.kernels.cache import CountCache
    from repro.kernels.profile import MiningProfile
    from repro.kernels.store import SegmentStore, StoreOptions


def _stage(
    profile: "MiningProfile | None", name: str, items: int = 0
) -> ContextManager:
    """A profile stage context, or a no-op when profiling is off."""
    if profile is None:
        return nullcontext()
    return profile.stage(name, items=items)


def _check_max_letters(max_letters: int | None) -> None:
    if max_letters is not None and max_letters < 1:
        raise MiningError(f"max_letters must be >= 1, got {max_letters}")


def _project_hits(store: "SegmentStore", target: LetterVocabulary) -> Counter:
    """The store's distinct masks projected onto ``target``, >= 2-letter only.

    This is the scan-2 "hit" computation run over the already-encoded
    column: remapping onto the tree vocabulary drops infrequent letters
    (the project-onto-``C_max`` step) and the popcount filter keeps the
    masks that actually land in the tree.  Packed stores project every
    distinct mask at once with the vectorized
    :func:`~repro.kernels.columnar.remap_counts` sweep; the per-mask
    Python remap only remains for wide (> 64-letter) stores.
    """
    table = store.vocab.remap_table(target)
    distinct = store.distinct_counts()
    if store.column() is not None:
        from repro.kernels import columnar as _columnar

        return _columnar.remap_counts(distinct, table)
    hits: Counter = Counter()
    for mask, count in distinct.items():
        hit = remap_mask(mask, table)
        if hit.bit_count() >= 2:
            hits[hit] += count
    return hits


class _Scans:
    """Where the two scans read their data, plus the run's accounting.

    Subclasses answer scan 1 (:meth:`letter_counts`, every letter's
    count) and scan 2 (:meth:`hits`, the distinct >= 2-letter hits over
    the tree vocabulary); each books its passes in :attr:`stats` and
    times itself as a profile stage.
    """

    __slots__ = ("period", "num_periods", "profile", "stats")

    def __init__(
        self, period: int, num_periods: int, profile: "MiningProfile | None"
    ) -> None:
        self.period = period
        self.num_periods = num_periods
        self.profile = profile
        self.stats = MiningStats()

    def letter_counts(self) -> Counter:
        raise NotImplementedError

    def hits(self, target: LetterVocabulary) -> Counter:
        raise NotImplementedError


class _SeriesScans(_Scans):
    """The two scans over an in-memory series, on the batched kernels.

    Each scan reads the series once: scan 1 counts every letter, scan 2
    encodes the segments onto the tree vocabulary into a contiguous
    :class:`~repro.kernels.store.SegmentStore` and keeps its distinct
    >= 2-letter masks.
    """

    __slots__ = ("series",)

    def __init__(
        self,
        series: FeatureSeries,
        period: int,
        num_periods: int,
        profile: "MiningProfile | None",
    ) -> None:
        super().__init__(period, num_periods, profile)
        self.series = series

    def letter_counts(self) -> Counter:
        with _stage(self.profile, "scan1", items=self.num_periods):
            counts = letter_counts_for_segments(self.series.segments(self.period))
        self.stats.scans += 1
        return counts

    def hits(self, target: LetterVocabulary) -> Counter:
        from repro.kernels.store import SegmentStore

        with _stage(self.profile, "scan2", items=self.num_periods):
            hits = SegmentStore.from_series(
                self.series, self.period, target
            ).hit_counter()
        self.stats.scans += 1
        return hits


class _StoreScans(_Scans):
    """The two scans over a segment store, on the columnar kernels.

    ``build`` returns the store; it runs once, on the first scan that
    needs the data (a cache hit on both scans never builds it), and that
    one pass is the only scan booked — both scans then read the stored
    column, not the series.
    """

    __slots__ = ("build", "_store")

    def __init__(
        self,
        build: Callable[[], "SegmentStore"],
        period: int,
        num_periods: int,
        profile: "MiningProfile | None",
    ) -> None:
        super().__init__(period, num_periods, profile)
        self.build = build
        self._store: "SegmentStore | None" = None

    def store(self) -> "SegmentStore":
        if self._store is None:
            self._store = self.build()
            self.stats.scans += 1
        return self._store

    def letter_counts(self) -> Counter:
        store = self.store()
        with _stage(self.profile, "scan1", items=self.num_periods):
            return store.letter_counts()

    def hits(self, target: LetterVocabulary) -> Counter:
        store = self.store()
        with _stage(self.profile, "scan2", items=self.num_periods):
            return _project_hits(store, target)


def _interned_store(
    series: FeatureSeries,
    period: int,
    options: "StoreOptions",
    profile: "MiningProfile | None",
) -> "SegmentStore":
    """One encode pass interning ``series`` into a (possibly spilled) store.

    Timed as the ``encode`` profile stage.  Only packed (<= 64-letter)
    vocabularies have a store column; a wider one raises
    :class:`~repro.core.errors.MiningError` naming its letter count
    rather than quietly mining in memory.
    """
    from repro.encoding.codec import vocabulary_of_series
    from repro.kernels.store import (
        PACKED_MAX_BITS,
        SegmentStore,
        WideVocabularyError,
    )

    try:
        with _stage(profile, "encode", items=series.num_periods(period)):
            return SegmentStore.from_series_interned(
                series, period, options=options
            )
    except WideVocabularyError as error:
        letters = len(vocabulary_of_series(series, period))
        raise MiningError(
            f"store options need a vocabulary of at most {PACKED_MAX_BITS} "
            f"letters, but the series has {letters} letters at period "
            f"{period}; mine it without a store"
        ) from error


def _scan1(
    scans: _Scans,
    min_conf: float,
    cache: "CountCache | None",
    cache_key: object,
) -> FrequentOnePatterns:
    """Scan 1, consulting the count cache for the full letter counts.

    With a cache, the *unfiltered* letter counts are fetched or computed
    and stored, so a future re-query at any ``min_conf`` rebuilds its own
    F1 from the cached counts without a scan.  Both scan sources count
    every letter, so their counts are cache-compatible.
    """
    profile = scans.profile
    threshold = min_count(min_conf, scans.num_periods)
    letter_counts = None
    if cache is not None:
        from repro.kernels.cache import CacheKey

        assert isinstance(cache_key, CacheKey)
        letter_counts = cache.get_letter_counts(cache_key)
        if profile is not None:
            profile.count(
                "cache_hits" if letter_counts is not None else "cache_misses"
            )
    if letter_counts is None:
        letter_counts = scans.letter_counts()
        if cache is not None:
            cache.put_letter_counts(cache_key, letter_counts)
    return FrequentOnePatterns(
        period=scans.period,
        num_periods=scans.num_periods,
        threshold=threshold,
        letters=frequent_letter_set(letter_counts, threshold),
    )


def _scan2(
    scans: _Scans,
    one_patterns: FrequentOnePatterns,
    cache: "CountCache | None",
    cache_key: object,
) -> MaxSubpatternTree:
    """Scan 2: the populated max-subpattern tree, from cache when possible.

    The scan source collects the distinct hits over the tree vocabulary,
    and the tree takes one insertion per distinct hit.  A cache hit
    rebuilds the tree from the memoized hit table — zero scans — and a
    miss stores the freshly built table.
    """
    profile = scans.profile
    tree = MaxSubpatternTree(one_patterns.max_pattern)
    letter_order = tree.vocab.letters
    if cache is not None:
        from repro.kernels.cache import CacheKey

        assert isinstance(cache_key, CacheKey)
        hit_table = cache.get_hit_table(cache_key, letter_order)
        if hit_table is not None:
            if profile is not None:
                profile.count("cache_hits")
            with _stage(profile, "tree", items=len(hit_table)):
                for mask, count in hit_table.items():
                    tree.insert_mask(mask, count=count)
            return tree
        if profile is not None:
            profile.count("cache_misses")
    hits = scans.hits(tree.vocab)
    with _stage(profile, "tree", items=len(hits)):
        for mask, count in hits.items():
            tree.insert_mask(mask, count=count)
    if profile is not None:
        profile.count("distinct_hits", len(hits))
    if cache is not None:
        cache.put_hit_table(cache_key, letter_order, tree.stored_hits())
    return tree


def _series_scans(
    series: FeatureSeries,
    period: int,
    profile: "MiningProfile | None" = None,
    store: "StoreOptions | None" = None,
) -> _Scans:
    """The scan source over ``series``: batched, or columnar with ``store``.

    Raises :class:`~repro.core.errors.MiningError` when the series holds
    no whole period of ``period``.
    """
    num_periods = series.num_periods(period)
    if num_periods == 0:
        raise MiningError(
            f"series of length {len(series)} has no whole period of {period}"
        )
    if store is None:
        return _SeriesScans(series, period, num_periods, profile)
    options = store
    return _StoreScans(
        lambda: _interned_store(series, period, options, profile),
        period,
        num_periods,
        profile,
    )


def _two_scans(
    scans: _Scans,
    min_conf: float,
    cache: "CountCache | None" = None,
    cache_key: object = None,
    admits: Callable[[Letter], bool] | None = None,
) -> tuple[FrequentOnePatterns, MaxSubpatternTree | None, MiningStats]:
    """Scan 1 then scan 2 (Alg. 3.2): F1, the populated tree, the stats.

    ``admits`` filters F1 between the scans, so ``C_max`` and the tree
    hold only admitted letters (the constraint push-down of §6).  When
    the filtered F1 is empty there is no ``C_max``: the tree is ``None``
    and scan 2 never runs.  Every hit-set miner starts here; only
    Algorithm 3.4, which shares its scans across periods, runs its own.
    """
    one_patterns = _scan1(scans, min_conf, cache, cache_key)
    if admits is not None:
        one_patterns.letters = {
            letter: count
            for letter, count in one_patterns.letters.items()
            if admits(letter)
        }
    if one_patterns.is_empty:
        return one_patterns, None, scans.stats
    tree = _scan2(scans, one_patterns, cache, cache_key)
    return one_patterns, tree, scans.stats


def _derive(
    algorithm: str,
    min_conf: float,
    one_patterns: FrequentOnePatterns,
    tree: MaxSubpatternTree | None,
    stats: MiningStats,
    max_letters: int | None = None,
    profile: "MiningProfile | None" = None,
) -> MiningResult:
    """The tree derivation (Alg. 4.2) and the assembled result.

    A ``None`` tree (empty F1) yields the empty result; otherwise every
    frequent pattern of at most ``max_letters`` letters is derived from
    the tree alone, with no further scan.
    """
    period = one_patterns.period
    patterns: dict[Pattern, int] = {}
    if tree is not None:
        stats.tree_nodes = tree.node_count
        stats.hit_set_size = tree.hit_set_size
        with _stage(profile, "derive"):
            letter_counts, candidate_counts = tree.derive_frequent(
                one_patterns.threshold,
                one_patterns.letters,
                max_letters=max_letters,
            )
        stats.candidate_counts = candidate_counts
        if profile is not None:
            profile.add_items("derive", sum(candidate_counts.values()))
        patterns = {
            Pattern.from_letters(period, letters): count
            for letters, count in letter_counts.items()
        }
    return MiningResult(
        algorithm=algorithm,
        period=period,
        min_conf=min_conf,
        num_periods=one_patterns.num_periods,
        counts=patterns,
        stats=stats,
    )


def _mine(
    scans: _Scans,
    min_conf: float,
    max_letters: int | None,
    cache: "CountCache | None" = None,
    cache_key: object = None,
) -> MiningResult:
    """Both scans from ``scans``, then the tree derivation (Alg. 3.2)."""
    one_patterns, tree, stats = _two_scans(scans, min_conf, cache, cache_key)
    return _derive(
        "hitset", min_conf, one_patterns, tree, stats, max_letters, scans.profile
    )


def mine_single_period_hitset(
    series: FeatureSeries,
    period: int,
    min_conf: float,
    max_letters: int | None = None,
    cache: "CountCache | None" = None,
    profile: "MiningProfile | None" = None,
    store: "StoreOptions | None" = None,
) -> MiningResult:
    """Find all frequent partial periodic patterns of one period (Alg. 3.2).

    Parameters
    ----------
    series:
        The feature series (or a scan-counting wrapper).
    period:
        The period to mine.
    min_conf:
        Confidence threshold in ``(0, 1]``.
    max_letters:
        Optional cap on derived pattern letter count.  The complete
        frequent set is exponential on degenerate inputs; cap it when only
        short patterns are needed.  ``None`` derives everything.
    cache:
        Optional :class:`~repro.kernels.cache.CountCache`.  Cold queries
        populate it; re-queries of the same series and period answer from
        it without scanning (any ``min_conf`` for scan 1; equal-or-higher
        ``min_conf`` for scan 2, by projection).
    profile:
        Optional :class:`~repro.kernels.profile.MiningProfile` accumulating
        per-stage wall times and cache counters.
    store:
        Optional :class:`~repro.kernels.store.StoreOptions`.  The series is
        then interned into a segment store in one encode pass (timed as the
        ``encode`` profile stage) and mined on the columnar kernels exactly
        as :func:`mine_store` mines a prebuilt store; with a ``directory``
        set, stores crossing the spill threshold encode straight to an
        mmap'd on-disk file so the mine runs in bounded memory.  Raises
        :class:`~repro.core.errors.MiningError` when the vocabulary is
        wider than 64 letters.

    Returns
    -------
    MiningResult
        Identical frequent set and counts to Algorithm 3.1 (a tested
        invariant), obtained with at most two scans — fewer on cache hits.
    """
    _check_max_letters(max_letters)
    scans = _series_scans(series, period, profile, store)
    cache_key = cache.key_for(series, period) if cache is not None else None
    return _mine(scans, min_conf, max_letters, cache, cache_key)


def build_hit_tree(
    series: FeatureSeries,
    period: int,
    min_conf: float,
) -> tuple[MaxSubpatternTree, FrequentOnePatterns]:
    """Run only the two scans and return the populated tree plus F1.

    For callers that run their own derivation over the tree (the space
    and kernel benchmarks).  Returns ``(tree, one_patterns)``; raises
    :class:`~repro.core.errors.MiningError` on a period with no whole
    segment and when F1 is empty.
    """
    one_patterns, tree, _ = _two_scans(_series_scans(series, period), min_conf)
    if tree is None:
        raise MiningError(
            f"no frequent 1-patterns at period {period}; "
            "there is no candidate max-pattern"
        )
    return tree, one_patterns


def mine_store(
    store: "SegmentStore",
    min_conf: float,
    max_letters: int | None = None,
    profile: "MiningProfile | None" = None,
) -> MiningResult:
    """Mine a prebuilt :class:`~repro.kernels.store.SegmentStore` directly.

    The out-of-core entry point: a store persisted with
    :meth:`~repro.kernels.store.SegmentStore.to_file` and reopened with
    :meth:`~repro.kernels.store.SegmentStore.from_file` is an mmap'd
    column, so this mines series far larger than RAM — both scans stream
    the column in bounded chunks and only the distinct-mask table and the
    tree live in memory.  Results are identical to running
    :func:`mine_single_period_hitset` over the series the store encodes
    (a tested invariant); the booked scan count is 1 because the encode
    pass already happened when the store was built.
    """
    _check_max_letters(max_letters)
    num_periods = len(store)
    if num_periods == 0:
        raise MiningError("segment store holds no segments; nothing to mine")
    scans = _StoreScans(lambda: store, store.period, num_periods, profile)
    return _mine(scans, min_conf, max_letters)
