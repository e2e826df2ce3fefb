"""Mining partial periodicity for multiple periods (Section 3.2).

Two strategies from the paper:

* **Algorithm 3.3** (:func:`mine_periods_looping`) — run the single-period
  miner once per period; ``2 * k`` scans for ``k`` periods with the hit-set
  method.
* **Algorithm 3.4** (:func:`mine_periods_shared`) — shared mining: a single
  slot-level pass computes the F1 sets of *every* period at once, and a
  second slot-level pass feeds every period's max-subpattern tree at once;
  **two scans total**, independent of how many periods are mined.

Note the paper's Section 3.2 counterexample: frequent patterns of period
``p`` are *not* necessarily frequent at period ``k*p``, so no cross-period
Apriori filter exists; sharing the scans is the legitimate optimization.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.core.apriori import mine_single_period_apriori
from repro.core.counting import check_min_conf, frequent_letter_set, min_count
from repro.core.errors import MiningError
from repro.core.hitset import mine_single_period_hitset
from repro.core.pattern import Letter, Pattern
from repro.core.result import MiningResult, MiningStats
from repro.encoding.codec import SegmentEncoder
from repro.tree.max_subpattern_tree import MaxSubpatternTree
from repro.timeseries.feature_series import FeatureSeries


def period_range(low: int, high: int) -> list[int]:
    """The inclusive period range ``low..high`` with validation."""
    if low < 1:
        raise MiningError(f"low period must be >= 1, got {low}")
    if high < low:
        raise MiningError(f"period range [{low}, {high}] is empty")
    return list(range(low, high + 1))


@dataclass(slots=True)
class MultiPeriodResult:
    """Results of one multi-period run, indexed by period."""

    algorithm: str
    min_conf: float
    results: dict[int, MiningResult] = field(default_factory=dict)
    #: Total scans over the series for the whole run.
    scans: int = 0

    def __getitem__(self, period: int) -> MiningResult:
        return self.results[period]

    def __contains__(self, period: int) -> bool:
        return period in self.results

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.results))

    def __len__(self) -> int:
        return len(self.results)

    @property
    def periods(self) -> list[int]:
        """The mined periods, ascending."""
        return sorted(self.results)

    @property
    def total_frequent(self) -> int:
        """Total frequent patterns across all periods."""
        return sum(len(result) for result in self.results.values())

    def best_patterns(
        self, limit: int = 10, min_letters: int = 2
    ) -> list[tuple[int, Pattern, float]]:
        """Top patterns across periods: ``(period, pattern, confidence)``.

        Ranked by letter count then confidence — the long, confident
        patterns a range sweep is usually after.
        """
        rows = [
            (period, pattern, result.confidence(pattern))
            for period, result in self.results.items()
            for pattern in result
            if pattern.letter_count >= min_letters
        ]
        rows.sort(key=lambda row: (-row[1].letter_count, -row[2], row[0]))
        return rows[:limit]

    def summary(self) -> str:
        """One-line human summary."""
        return (
            f"{self.algorithm}: periods={self.periods[:8]}"
            f"{'...' if len(self.results) > 8 else ''} "
            f"frequent={self.total_frequent} scans={self.scans}"
        )


def _validated_periods(
    series: FeatureSeries,
    periods: Iterable[int],
    min_repetitions: int,
) -> list[int]:
    """Deduplicate, sort and validate a period collection."""
    unique = sorted(set(periods))
    if not unique:
        raise MiningError("no periods to mine")
    if min_repetitions < 1:
        raise MiningError(
            f"min_repetitions must be >= 1, got {min_repetitions}"
        )
    usable: list[int] = []
    for period in unique:
        if period < 1:
            raise MiningError(f"period must be >= 1, got {period}")
        if period > len(series):
            raise MiningError(
                f"period {period} exceeds series length {len(series)}"
            )
        if len(series) // period >= min_repetitions:
            usable.append(period)
    if not usable:
        raise MiningError(
            f"no period in {unique} repeats at least {min_repetitions} times "
            f"in a series of length {len(series)}"
        )
    return usable


def mine_periods_looping(
    series: FeatureSeries,
    periods: Iterable[int],
    min_conf: float,
    algorithm: str = "hitset",
    min_repetitions: int = 1,
) -> MultiPeriodResult:
    """Algorithm 3.3: loop the single-period miner over each period.

    ``algorithm`` selects the inner miner: ``"hitset"`` (2 scans per
    period) or ``"apriori"`` (up to the longest-pattern length per period).
    """
    check_min_conf(min_conf)
    usable = _validated_periods(series, periods, min_repetitions)
    if algorithm not in ("hitset", "apriori"):
        raise MiningError(
            f"unknown algorithm {algorithm!r}; use 'hitset' or 'apriori'"
        )
    outcome = MultiPeriodResult(
        algorithm=f"looping[{algorithm}]", min_conf=min_conf
    )
    for period in usable:
        if algorithm == "hitset":
            result = mine_single_period_hitset(series, period, min_conf)
        else:
            result = mine_single_period_apriori(series, period, min_conf)
        outcome.results[period] = result
        outcome.scans += result.stats.scans
    return outcome


def mine_periods_shared(
    series: FeatureSeries,
    periods: Iterable[int],
    min_conf: float,
    min_repetitions: int = 1,
) -> MultiPeriodResult:
    """Algorithm 3.4: shared mining of all periods in two scans total.

    Scan 1 walks the slots once, maintaining every period's letter counter
    simultaneously.  Scan 2 walks the slots once more, assembling every
    period's segment hits and feeding each period's max-subpattern tree.
    Derivation then happens entirely in memory.

    Scan 2 accumulates each period's running hit as a plain int — one
    ``|=`` per slot via
    :meth:`~repro.encoding.codec.SegmentEncoder.encode_slot` — and inserts
    bitmasks.
    """
    check_min_conf(min_conf)
    usable = _validated_periods(series, periods, min_repetitions)
    length = len(series)
    # Slots beyond m*p belong to no whole segment of period p.
    usable_limit = {period: (length // period) * period for period in usable}

    # ----- Scan 1: F1 of every period in one pass ----------------------
    letter_counts: dict[int, Counter] = {period: Counter() for period in usable}
    for index, slot in enumerate(series.iter_slots()):
        if not slot:
            continue
        for period in usable:
            if index >= usable_limit[period]:
                continue
            counter = letter_counts[period]
            offset = index % period
            for feature in slot:
                counter[(offset, feature)] += 1

    thresholds = {
        period: min_count(min_conf, length // period) for period in usable
    }
    f1_sets: dict[int, dict[Letter, int]] = {
        period: frequent_letter_set(letter_counts[period], thresholds[period])
        for period in usable
    }
    trees: dict[int, MaxSubpatternTree] = {}
    for period in usable:
        if f1_sets[period]:
            cmax = Pattern.from_letters(period, f1_sets[period])
            trees[period] = MaxSubpatternTree(cmax)

    # ----- Scan 2: every period's hits in one pass ----------------------
    _shared_scan2(series, trees, usable_limit)

    # ----- Derivation (in memory, no scans) ------------------------------
    outcome = MultiPeriodResult(algorithm="shared", min_conf=min_conf, scans=2)
    for period in usable:
        stats = MiningStats(scans=2)
        num_periods = length // period
        if period not in trees:
            outcome.results[period] = MiningResult(
                algorithm="shared",
                period=period,
                min_conf=min_conf,
                num_periods=num_periods,
                counts={},
                stats=stats,
            )
            continue
        tree = trees[period]
        stats.tree_nodes = tree.node_count
        stats.hit_set_size = tree.hit_set_size
        counts, candidate_counts = tree.derive_frequent(
            thresholds[period], f1_sets[period]
        )
        stats.candidate_counts = candidate_counts
        patterns = {
            Pattern.from_letters(period, letters): count
            for letters, count in counts.items()
        }
        outcome.results[period] = MiningResult(
            algorithm="shared",
            period=period,
            min_conf=min_conf,
            num_periods=num_periods,
            counts=patterns,
            stats=stats,
        )
    return outcome


def _shared_scan2(
    series: FeatureSeries,
    trees: dict[int, MaxSubpatternTree],
    usable_limit: dict[int, int],
) -> None:
    """Scan 2 of Algorithm 3.4 on bitmasks: one int buffer per period."""
    encoders = {
        period: SegmentEncoder(tree.vocab) for period, tree in trees.items()
    }
    buffers: dict[int, int] = {period: 0 for period in trees}
    for index, slot in enumerate(series.iter_slots()):
        for period, tree in trees.items():
            if index >= usable_limit[period]:
                continue
            offset = index % period
            if slot:
                buffers[period] |= encoders[period].encode_slot(offset, slot)
            if offset == period - 1:
                hit = buffers[period]
                if hit & (hit - 1):
                    tree.insert_mask(hit)
                buffers[period] = 0


def mine_period_range(
    series: FeatureSeries,
    low: int,
    high: int,
    min_conf: float,
    shared: bool = True,
    min_repetitions: int = 1,
) -> MultiPeriodResult:
    """Convenience wrapper: mine every period in ``[low, high]``."""
    periods = period_range(low, high)
    if shared:
        return mine_periods_shared(
            series,
            periods,
            min_conf,
            min_repetitions=min_repetitions,
        )
    return mine_periods_looping(
        series,
        periods,
        min_conf,
        min_repetitions=min_repetitions,
    )
