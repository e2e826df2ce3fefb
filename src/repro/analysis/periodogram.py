"""Period discovery: rank candidate periods by partial-periodic evidence.

Section 3.2 motivates mining a *range* of periods because "certain patterns
may appear at some unexpected periods, such as every 11 years, or every 14
hours".  Before paying for full mining of every period, this module scores
each candidate period with a single slot-level scan (exactly the Step-1
counting of Algorithm 3.4) and ranks them.

The score of a period is the *excess confidence per offset* of its frequent
1-patterns: for a letter ``(offset, feature)`` with confidence ``c`` and
feature base rate ``r`` (fraction of all slots containing the feature), the
letter contributes ``max(0, c - r)`` when ``c >= min_conf``; the sum is then
divided by the period.  The normalization matters: a multiple ``k*p`` of a
true period ``p`` carries ``k`` copies of every ``p``-letter, so the raw sum
grows linearly with the harmonic index while the per-offset density stays
flat — dividing by the period puts the fundamental and its harmonics on the
same scale, and the tie then breaks toward the smaller period (see the
harmonic filter in :func:`suggest_periods`).  A feature present everywhere
contributes nothing at any period.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.counting import check_min_conf, min_count
from repro.core.errors import MiningError
from repro.core.multiperiod import period_range
from repro.timeseries.feature_series import FeatureSeries


@dataclass(frozen=True, slots=True)
class PeriodScore:
    """Periodic evidence for one candidate period."""

    period: int
    #: Number of frequent 1-patterns at this period.
    frequent_letters: int
    #: Highest 1-pattern confidence observed.
    best_confidence: float
    #: Excess confidence over feature base rates, per offset of the period
    #: (the ranking key; normalized so harmonics do not outscore the
    #: fundamental).
    score: float


def score_periods(
    series: FeatureSeries,
    periods: Iterable[int],
    min_conf: float = 0.5,
    min_repetitions: int = 2,
) -> list[PeriodScore]:
    """Score each candidate period in one slot-level scan.

    The scan expands the series' slot column once into occurrence rows
    (:meth:`~repro.kernels.slots.SlotColumn.occurrences`); every period's
    letter counts (:func:`repro.kernels.slots.letter_totals`) and the
    feature base rates come from that one array, and each score is an
    exactly rounded sum (``math.fsum``).  The miners' floor-pruned letter
    tallies prune nothing here, since the best confidence needs every
    letter of every period, and they are no faster at floor 0: over
    periods 2..100 of a 100k-slot Figure 2 series (2 vCPUs, best of 5)
    the tallies took 57-74 ms against 66 ms from occurrence rows.  Periods
    that do not repeat at least ``min_repetitions`` times are skipped.
    Results are sorted by descending score.
    """
    from repro.kernels import slots as _slots

    check_min_conf(min_conf)
    unique = sorted(set(periods))
    if not unique:
        raise MiningError("no periods to score")
    length = len(series)
    usable = [
        period
        for period in unique
        if 1 <= period <= length and length // period >= min_repetitions
    ]
    if not usable:
        raise MiningError(
            f"no period in {unique} repeats >= {min_repetitions} times "
            f"in a series of length {length}"
        )

    column = series.slot_column()
    table = column.table
    occurrences = column.occurrences()
    base_rate = occurrences.feature_totals() / length
    width = len(table.features)
    scores = []
    for period in usable:
        num_periods = length // period
        threshold = min_count(min_conf, num_periods)
        letter_ids, counts = _slots.letter_totals(
            occurrences, period, num_periods
        )
        best = int(counts.max()) / num_periods if len(counts) else 0.0
        frequent = counts >= threshold
        excess = (
            counts[frequent] / num_periods
            - base_rate[letter_ids[frequent] % width]
        ).clip(min=0.0)
        scores.append(
            PeriodScore(
                period=period,
                frequent_letters=int(frequent.sum()),
                best_confidence=best,
                score=math.fsum(excess.tolist()) / period,
            )
        )
    scores.sort(key=lambda item: (-item.score, item.period))
    return scores


def suggest_periods(
    series: FeatureSeries,
    low: int,
    high: int,
    min_conf: float = 0.5,
    limit: int = 5,
    min_repetitions: int = 2,
    harmonic_tolerance: float = 0.8,
) -> list[PeriodScore]:
    """Rank periods in ``[low, high]``, collapsing harmonic echoes.

    A multiple ``k*p`` of a true period ``p`` scores comparably to ``p``
    (its patterns simply repeat ``k`` times inside the longer window).  The
    harmonic filter drops a period when an already-kept divisor scores at
    least ``harmonic_tolerance`` times as high, so the fundamental period
    surfaces first.
    """
    scores = score_periods(
        series,
        period_range(low, high),
        min_conf=min_conf,
        min_repetitions=min_repetitions,
    )
    by_period = {item.period: item for item in scores}
    kept: list[PeriodScore] = []
    for item in scores:
        if item.score <= 0.0:
            continue
        dominated = False
        for index, other in enumerate(kept):
            if (
                item.period % other.period == 0
                and other.score >= harmonic_tolerance * item.score
            ):
                dominated = True
                break
            if (
                other.period % item.period == 0
                and item.score >= harmonic_tolerance * other.score
            ):
                # A multiple slipped in first on a scoring tie; the
                # fundamental replaces it.
                kept[index] = item
                dominated = True
                break
        if not dominated:
            kept.append(item)
        if len(kept) >= limit:
            break
    if not kept:
        # Nothing beat its base rate; return the raw top scores instead of
        # hiding everything.
        kept = [item for item in scores[:limit]]
    return [by_period[item.period] for item in kept]
