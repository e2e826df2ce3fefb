"""Experiment A3 — multi-period mining: shared (Alg 3.4) vs looping (Alg 3.3).

Section 3.2 + Section 5.2 bullet 2: "When there are a range of periods to
consider, max-subpattern hit-set can find all frequent patterns in two
scans but Apriori will require many more scans" — and even looping the
two-scan single-period miner costs ``2k`` scans for ``k`` periods, versus
at most 2 for shared mining (1 when no period has a frequent 1-pattern,
because then there is no tree for scan 2 to feed).

The summary test regenerates the scans/time table over growing period
ranges and asserts the shape: shared stays at two scans or fewer with
roughly flat scan cost, looping's scans grow linearly with the range
width.  Its timings are taken on a series whose slot column is already
built, after one untimed run of each side, as each side's best of
:data:`REPEATS` rounds with the order of the two sides alternating from
round to round, so neither side pays the other's first-call costs.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import LENGTH_SHORT
from repro.core.multiperiod import (
    mine_periods_looping,
    mine_periods_shared,
    period_range,
)
from repro.synth.workloads import FIGURE2_MIN_CONF, figure2_series
from repro.timeseries.scan import ScanCountingSeries

RANGES = [(45, 49), (40, 54), (30, 69)]

#: Timed rounds per range in the table; each side keeps its best.
REPEATS = 5


def _series():
    return figure2_series(6, length=LENGTH_SHORT // 2, seed=0).series


@pytest.mark.parametrize("low,high", RANGES, ids=["5", "15", "40"])
def test_shared_range_runtime(benchmark, low, high):
    series = _series()
    outcome = benchmark(
        mine_periods_shared, series, period_range(low, high), FIGURE2_MIN_CONF
    )
    assert outcome.scans == (2 if outcome.total_frequent else 1)


def _best_times(rounds: int, **sides) -> dict[str, float]:
    """Each side's best wall time over ``rounds`` rounds.

    Every round times each side once; the order flips from one round to
    the next, so neither side is always the one timed first.
    """
    best = dict.fromkeys(sides, float("inf"))
    names = list(sides)
    for round_index in range(rounds):
        for name in names if round_index % 2 == 0 else names[::-1]:
            started = time.perf_counter()
            sides[name]()
            best[name] = min(best[name], time.perf_counter() - started)
    return best


def test_multi_period_table(report):
    series = _series()
    series.slot_column()  # built once, outside every timing
    rows = []
    shared_scan_counts = []
    looping_scan_counts = []
    for low, high in RANGES:
        periods = period_range(low, high)
        scan = ScanCountingSeries(series)
        shared = mine_periods_shared(scan, periods, FIGURE2_MIN_CONF)
        shared_scans = scan.scans
        scan.reset()
        looping = mine_periods_looping(scan, periods, FIGURE2_MIN_CONF)
        looping_scans = scan.scans
        best = _best_times(
            REPEATS,
            shared=lambda: mine_periods_shared(series, periods, FIGURE2_MIN_CONF),
            looping=lambda: mine_periods_looping(
                series, periods, FIGURE2_MIN_CONF
            ),
        )

        for period in shared.periods:
            assert dict(shared[period].items()) == dict(
                looping[period].items()
            ), period

        assert shared_scans == shared.scans
        shared_scan_counts.append(
            (shared_scans, 2 if shared.total_frequent else 1)
        )
        looping_scan_counts.append(looping_scans)
        rows.append(
            (
                len(periods),
                shared_scans,
                looping_scans,
                f"{best['shared']:.4f}s",
                f"{best['looping']:.4f}s",
                shared.total_frequent,
            )
        )
    report(
        "A3: multi-period mining — shared (Alg 3.4) vs looping (Alg 3.3)",
        [
            "#periods",
            "shared scans",
            "looping scans",
            "shared time",
            "looping time",
            "#frequent",
        ],
        rows,
    )

    # Shared mining: two scans whatever the range width, one when every
    # period's F1 is empty.
    assert all(count == expected for count, expected in shared_scan_counts)
    # Looping: scans grow with the range width (1-2 per period mined).
    assert looping_scan_counts[0] < looping_scan_counts[-1]
    assert looping_scan_counts[-1] >= len(period_range(*RANGES[-1]))
