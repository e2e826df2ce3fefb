"""Mining partial periodicity for multiple periods (Section 3.2).

Two strategies from the paper:

* **Algorithm 3.3** (:func:`mine_periods_looping`) — run the single-period
  miner once per period; ``2 * k`` scans for ``k`` periods with the hit-set
  method.
* **Algorithm 3.4** (:func:`mine_periods_shared`) — shared mining: a single
  slot-level pass computes the F1 sets of *every* period at once, and a
  second slot-level pass fills every period's hit table at once;
  **at most two scans total**, independent of how many periods are mined
  (one when no period has a frequent 1-pattern).

Both passes read the series' interned slot column
(:meth:`~repro.timeseries.feature_series.FeatureSeries.slot_column`) with
the kernels of :mod:`repro.kernels.slots`, exactly as single-period
mining does.  Scan 1 selects its rows once, over the longest prefix of
whole segments at the lowest period's floor: the positions whose slot
holds a feature that occurs at least that often.  Each period's letter
counts are then one sorted count of its ``(i % p, slot)`` pairs there,
fanned out to the pairs' features.  Scan 2 reads the column again
and, per period, only its slots at the offsets of that period's
``C_max`` letters: each distinct slot there becomes one bit row of
``ceil(|C_max| / 64)`` ``uint64`` words, so wide ``C_max`` needs no
separate path, and each segment ORs in the rows of its slots.  One sort
collapses the segments to their distinct hits, which with their counts
make that period's hit table.  Python code runs once per
distinct hit and per period, never per slot occurrence.

Note the paper's Section 3.2 counterexample: frequent patterns of period
``p`` are *not* necessarily frequent at period ``k*p``, so no cross-period
Apriori filter exists; sharing the scans is the legitimate optimization.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.core.counting import check_min_conf, min_count
from repro.core.errors import MiningError
from repro.core.hitset import _derive, mine_single_period_hitset
from repro.core.hittable import HitTable
from repro.core.maxpattern import FrequentOnePatterns
from repro.core.pattern import Pattern
from repro.core.result import MiningResult, MiningStats
from repro.kernels import slots as _slots
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
            from repro.core.apriori import mine_single_period_apriori

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
    """Algorithm 3.4: shared mining of all periods in at most two scans.

    Scan 1 reads the series' slot column once and keeps the positions
    that can hold a letter at the lowest period's floor, coded once by
    how many capable features their slot holds
    (:func:`repro.kernels.slots.scan1_rows`); every period's F1 then
    comes from one letter tally over those rows
    (:func:`repro.kernels.slots.pair_letter_counts`).  When no period has a
    frequent 1-pattern the run stops there, after one scan.  Otherwise
    scan 2 reads the column once more and collects every period's
    distinct hits from the slots at its ``C_max`` offsets
    (:func:`repro.kernels.slots.segment_hits`) into its hit table.
    Derivation then happens entirely in memory.
    """
    check_min_conf(min_conf)
    usable = _validated_periods(series, periods, min_repetitions)
    length = len(series)

    # ----- Scan 1: F1 of every period from one pass ---------------------
    column = series.slot_column()
    table = column.table
    thresholds = {
        period: min_count(min_conf, length // period) for period in usable
    }
    rows = _slots.scan1_rows(
        column,
        max(length // period * period for period in usable),
        min(thresholds.values()),
    )
    f1_sets: dict[int, FrequentOnePatterns] = {}
    for period, threshold in thresholds.items():
        num_periods = length // period
        letter_ids, counts = _slots.pair_letter_counts(
            table, rows, period, num_periods, threshold
        )
        f1_sets[period] = FrequentOnePatterns(
            period=period,
            num_periods=num_periods,
            threshold=threshold,
            letters=table.letters_of(letter_ids, counts),
        )
    hit_tables = {
        period: HitTable.over(period, one_patterns.letters)
        for period, one_patterns in f1_sets.items()
        if not one_patterns.is_empty
    }
    scans = 1

    # ----- Scan 2: every period's hits from one more pass ---------------
    del rows
    if hit_tables:
        column = series.slot_column()
        scans = 2
        for period, hit_table in hit_tables.items():
            hit_table.hits = dict(
                _slots.segment_hits(
                    column,
                    period,
                    f1_sets[period].num_periods,
                    table.letter_ids(hit_table.vocab.letters),
                )
            )

    # ----- Derivation (in memory, no scans) ------------------------------
    outcome = MultiPeriodResult(
        algorithm="shared", min_conf=min_conf, scans=scans
    )
    for period in usable:
        outcome.results[period] = _derive(
            "shared",
            min_conf,
            f1_sets[period],
            hit_tables.get(period),
            MiningStats(scans=scans),
        )
    return outcome


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
