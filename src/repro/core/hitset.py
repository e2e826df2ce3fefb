"""Algorithm 3.2 — the max-subpattern hit-set method.

The paper's main contribution: mine all frequent partial periodic patterns
of one period in exactly **two scans** of the series.

Scan 1 finds the frequent 1-patterns ``F1`` and assembles the candidate
max-pattern ``C_max``.  Scan 2 registers, for every period segment, its hit
(the maximal subpattern of ``C_max`` true in the segment) in a hit table
(:class:`~repro.core.hittable.HitTable`, the distinct hits with their
counts; the max-subpattern tree of Algorithm 4.1 holds the same hits in
nodes).  The frequency count of every pattern is then derived from the
hits alone (Algorithm 4.2) — no further passes over the data.
The scans and the derivation here are the one pipeline of every hit-set
miner: the maximal and constrained miners call them too, and Algorithm
3.4 derives each period's result through the same derivation step.

In-memory series mine on their interned slot column
(:meth:`~repro.timeseries.feature_series.FeatureSeries.slot_column`,
built while a file is parsed or once on first mine): scan 1 counts only
the letters that can reach its floor, as floor-pruned letter tallies
(:func:`~repro.kernels.slots.scan1_rows` keeps the positions whose slot
holds a feature frequent enough overall,
:func:`~repro.kernels.slots.pair_letter_counts` counts them), and scan 2
collects the distinct hits with
:func:`~repro.kernels.slots.segment_hits` from the column's slots at the
``C_max`` offsets only, both bulk numpy ops, and the
derivation answers every candidate level from one superset-sum pass
(:mod:`repro.kernels.batched`).  A prebuilt
:class:`~repro.kernels.store.SegmentStore` (:func:`mine_store`, in
memory or mmap'd from its file) mines on the store's row matrix instead:
both scans run as chunked numpy ops over the rows — letter counting as
one unpack-and-sum pass, hit collection as the distinct rows projected
onto the ``C_max`` vocabulary.  A :class:`~repro.kernels.cache.CountCache`
removes the scans entirely on re-queries of the same series/period (the
paper's §4.2 re-mining scenario): the cached scan-1 letter counts serve
any ``min_conf``, and the cached scan-2 hit table serves any
equal-or-higher ``min_conf`` by projection.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Mapping
from contextlib import nullcontext
from typing import TYPE_CHECKING, ContextManager

from repro.core.counting import frequent_letter_set, min_count
from repro.core.errors import MiningError
from repro.core.hittable import HitTable
from repro.core.maxpattern import FrequentOnePatterns
from repro.core.pattern import Letter, Pattern
from repro.core.result import MiningResult, MiningStats
from repro.encoding.vocabulary import LetterVocabulary
from repro.kernels import slots as _slots
from repro.timeseries.feature_series import FeatureSeries

if TYPE_CHECKING:
    from repro.kernels.cache import CountCache
    from repro.kernels.profile import MiningProfile
    from repro.kernels.store import SegmentStore


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


class _Scans:
    """Where the two scans read their data, plus the run's accounting.

    Subclasses answer scan 1 (:meth:`letter_counts`, the count of every
    letter occurring at least ``floor`` times) and scan 2 (:meth:`hits`,
    the distinct >= 2-letter hits over the ``C_max`` vocabulary, as
    ``(hit mask, count)`` pairs); each books
    its passes in :attr:`stats` and times itself as a profile stage.
    """

    __slots__ = ("period", "num_periods", "profile", "stats")

    def __init__(
        self, period: int, num_periods: int, profile: "MiningProfile | None"
    ) -> None:
        self.period = period
        self.num_periods = num_periods
        self.profile = profile
        self.stats = MiningStats()

    def letter_counts(self, floor: int) -> Mapping[Letter, int]:
        raise NotImplementedError

    def hits(self, target: LetterVocabulary) -> Collection[tuple[int, int]]:
        raise NotImplementedError


class _SeriesScans(_Scans):
    """The two scans over an in-memory series, on its interned slot column.

    Each scan reads the column once: scan 1 tallies the letters at the
    positions whose slot holds a feature that can reach the floor, and
    returns the letters at or above it (every letter at floor
    0), booking the positions it read as the ``scan1_rows`` profile
    counter; scan 2 reads the slots at
    the ``C_max`` vocabulary's offsets, ORs each segment's letters there into
    bit rows and keeps the distinct >= 2-letter ones.  A column built
    lazily on the first read is timed inside that scan.
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

    def letter_counts(self, floor: int) -> Mapping[Letter, int]:
        with _stage(self.profile, "scan1", items=self.num_periods):
            column = self.series.slot_column()
            rows = _slots.scan1_rows(
                column, self.period * self.num_periods, floor
            )
            letter_ids, counts = _slots.pair_letter_counts(
                column.table, rows, self.period, self.num_periods, floor
            )
            letters = column.table.letters_of(letter_ids, counts)
        self.stats.scans += 1
        if self.profile is not None:
            self.profile.count("scan1_rows", len(rows.positions))
        return letters

    def hits(self, target: LetterVocabulary) -> Collection[tuple[int, int]]:
        with _stage(self.profile, "scan2", items=self.num_periods):
            column = self.series.slot_column()
            hits = _slots.segment_hits(
                column,
                self.period,
                self.num_periods,
                column.table.letter_ids(target.letters),
            )
        self.stats.scans += 1
        return hits


class _StoreScans(_Scans):
    """The two scans over a prebuilt segment store's row matrix.

    Both scans read the stored rows, not the series; the pass that built
    the store is the one scan booked.
    """

    __slots__ = ("store",)

    def __init__(
        self, store: "SegmentStore", profile: "MiningProfile | None"
    ) -> None:
        super().__init__(store.period, len(store), profile)
        self.store = store
        self.stats.scans = 1

    def letter_counts(self, floor: int) -> Mapping[Letter, int]:
        with _stage(self.profile, "scan1", items=self.num_periods):
            counts = self.store.letter_counts()
        return {letter: count for letter, count in counts.items() if count >= floor}

    def hits(self, target: LetterVocabulary) -> Collection[tuple[int, int]]:
        with _stage(self.profile, "scan2", items=self.num_periods):
            return self.store.project_hits(target).items()


def _scan1(
    scans: _Scans,
    min_conf: float,
    cache: "CountCache | None",
    cache_key: object,
) -> FrequentOnePatterns:
    """Scan 1, consulting the count cache for the full letter counts.

    With a cache, the *unfiltered* letter counts (floor 0) are fetched or
    computed and stored, so a future re-query at any ``min_conf`` rebuilds
    its own F1 from the cached counts without a scan.  Without a cache,
    the scan keeps only the letters at or above the threshold.
    """
    profile = scans.profile
    threshold = min_count(min_conf, scans.num_periods)
    letter_counts: Mapping[Letter, int] | None = None
    if cache is not None:
        from repro.kernels.cache import CacheKey

        assert isinstance(cache_key, CacheKey)
        letter_counts = cache.get_letter_counts(cache_key)
        if profile is not None:
            profile.count(
                "cache_hits" if letter_counts is not None else "cache_misses"
            )
    if letter_counts is None:
        letter_counts = scans.letter_counts(0 if cache is not None else threshold)
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
) -> HitTable:
    """Scan 2: the hit table over ``C_max``, from cache when possible.

    The scan source collects the distinct hits over the sorted ``C_max``
    vocabulary, and the table takes them as they come; the ``tree``
    profile stage times that build.  A cache hit answers from the
    memoized hit table — zero scans — and a miss stores the fresh one.
    """
    profile = scans.profile
    vocab = LetterVocabulary.from_letters(
        one_patterns.letters, period=one_patterns.period
    )
    if cache is not None:
        from repro.kernels.cache import CacheKey

        assert isinstance(cache_key, CacheKey)
        hit_table = cache.get_hit_table(cache_key, vocab.letters)
        if hit_table is not None:
            if profile is not None:
                profile.count("cache_hits")
            with _stage(profile, "tree", items=len(hit_table)):
                return HitTable(vocab, hit_table)
        if profile is not None:
            profile.count("cache_misses")
    hits = scans.hits(vocab)
    with _stage(profile, "tree", items=len(hits)):
        table = HitTable(vocab, dict(hits))
    if profile is not None:
        profile.count("distinct_hits", len(hits))
    if cache is not None:
        cache.put_hit_table(cache_key, vocab.letters, table.hits)
    return table


def _series_scans(
    series: FeatureSeries,
    period: int,
    profile: "MiningProfile | None" = None,
) -> _SeriesScans:
    """The scan source over ``series``' slot column.

    Raises :class:`~repro.core.errors.MiningError` when the series holds
    no whole period of ``period``.
    """
    num_periods = series.num_periods(period)
    if num_periods == 0:
        raise MiningError(
            f"series of length {len(series)} has no whole period of {period}"
        )
    return _SeriesScans(series, period, num_periods, profile)


def _two_scans(
    scans: _Scans,
    min_conf: float,
    cache: "CountCache | None" = None,
    cache_key: object = None,
    admits: Callable[[Letter], bool] | None = None,
) -> tuple[FrequentOnePatterns, HitTable | None, MiningStats]:
    """Scan 1 then scan 2 (Alg. 3.2): F1, the hit table, the stats.

    ``admits`` filters F1 between the scans, so ``C_max`` and the hit
    table hold only admitted letters (the constraint push-down of §6).
    When the filtered F1 is empty there is no ``C_max``: the table is
    ``None`` and scan 2 never runs.  Every hit-set miner starts here; only
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
    table = _scan2(scans, one_patterns, cache, cache_key)
    return one_patterns, table, scans.stats


def _derive(
    algorithm: str,
    min_conf: float,
    one_patterns: FrequentOnePatterns,
    table: HitTable | None,
    stats: MiningStats,
    max_letters: int | None = None,
    profile: "MiningProfile | None" = None,
) -> MiningResult:
    """The derivation (Alg. 4.2) and the assembled result.

    A ``None`` table (empty F1) yields the empty result; otherwise every
    frequent pattern of at most ``max_letters`` letters is derived from
    the hit table alone, with no further scan.
    """
    patterns: dict[Pattern, int] = {}
    if table is not None:
        with _stage(profile, "derive"):
            stats.tree_nodes = table.node_count()
            stats.hit_set_size = len(table.hits)
            patterns, candidate_counts = table.derive(
                one_patterns.threshold,
                one_patterns.letters,
                max_letters=max_letters,
            )
        stats.candidate_counts = candidate_counts
        if profile is not None:
            profile.add_items("derive", sum(candidate_counts.values()))
    return MiningResult(
        algorithm=algorithm,
        period=one_patterns.period,
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
    """Both scans from ``scans``, then the derivation (Alg. 3.2)."""
    one_patterns, table, stats = _two_scans(scans, min_conf, cache, cache_key)
    return _derive(
        "hitset", min_conf, one_patterns, table, stats, max_letters, scans.profile
    )


def mine_single_period_hitset(
    series: FeatureSeries,
    period: int,
    min_conf: float,
    max_letters: int | None = None,
    cache: "CountCache | None" = None,
    profile: "MiningProfile | None" = None,
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

    Returns
    -------
    MiningResult
        Identical frequent set and counts to Algorithm 3.1 (a tested
        invariant), obtained with at most two scans — fewer on cache hits.
    """
    _check_max_letters(max_letters)
    scans = _series_scans(series, period, profile)
    cache_key = cache.key_for(series, period) if cache is not None else None
    return _mine(scans, min_conf, max_letters, cache, cache_key)


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
    row matrix, so this mines series far larger than RAM — both scans
    stream the rows in bounded chunks and only the distinct-row table and
    the hit table live in memory.  Results are identical to running
    :func:`mine_single_period_hitset` over the series the store encodes
    (a tested invariant); the booked scan count is 1, the pass that
    built the store.
    """
    _check_max_letters(max_letters)
    if len(store) == 0:
        raise MiningError("segment store holds no segments; nothing to mine")
    scans = _StoreScans(store, profile)
    return _mine(scans, min_conf, max_letters)
