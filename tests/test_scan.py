"""Unit tests for scan accounting (repro.timeseries.scan)."""

from __future__ import annotations

import pytest

from repro.core.constraints import MiningConstraints, mine_with_constraints
from repro.core.hitset import mine_single_period_hitset
from repro.core.maximal import mine_maximal_hitset
from repro.core.multiperiod import mine_periods_looping, mine_periods_shared
from repro.timeseries.feature_series import FeatureSeries
from repro.timeseries.scan import ScanCountingSeries


def make_scan(slot_cost: float = 0.0) -> ScanCountingSeries:
    return ScanCountingSeries(
        FeatureSeries.from_symbols("abcabcabc"), slot_cost=slot_cost
    )


class TestAccounting:
    def test_segments_counts_one_scan(self):
        scan = make_scan()
        list(scan.segments(3))
        assert scan.scans == 1
        assert scan.slots_read == 9

    def test_iter_slots_counts_one_scan(self):
        scan = make_scan()
        list(scan.iter_slots())
        assert scan.scans == 1
        assert scan.slots_read == 9

    def test_multiple_passes_accumulate(self):
        scan = make_scan()
        list(scan.segments(3))
        list(scan.segments(3))
        list(scan.iter_slots())
        assert scan.scans == 3
        assert scan.slots_read == 27

    def test_scan_counted_even_if_partially_consumed(self):
        scan = make_scan()
        iterator = scan.segments(3)
        next(iterator)
        assert scan.scans == 1
        assert scan.slots_read == 3

    def test_metadata_access_is_not_a_scan(self):
        scan = make_scan()
        scan.num_periods(3)
        len(scan)
        _ = scan.alphabet
        assert scan.scans == 0

    def test_reset(self):
        scan = make_scan()
        list(scan.segments(3))
        scan.reset()
        assert scan.scans == 0
        assert scan.slots_read == 0

    def test_simulated_cost(self):
        scan = make_scan(slot_cost=2.0)
        list(scan.iter_slots())
        assert scan.simulated_cost == 18.0

    def test_delegation(self):
        scan = make_scan()
        assert scan.num_periods(3) == 3
        assert len(scan) == 9
        assert scan.alphabet == frozenset({"a", "b", "c"})
        assert scan.series[0] == frozenset({"a"})

    def test_repr(self):
        assert "scans=0" in repr(make_scan())

    def test_segments_content_matches_wrapped(self):
        scan = make_scan()
        assert list(scan.segments(3)) == list(scan.series.segments(3))


MINERS = {
    "hitset": lambda scan, conf: mine_single_period_hitset(scan, 3, conf).stats.scans,
    "maximal": lambda scan, conf: mine_maximal_hitset(scan, 3, conf).stats.scans,
    "constrained": lambda scan, conf: mine_with_constraints(
        scan, 3, conf, MiningConstraints()
    ).stats.scans,
    "shared": lambda scan, conf: mine_periods_shared(scan, [3], conf).scans,
    "looping": lambda scan, conf: mine_periods_looping(scan, [3], conf).scans,
}


class TestBookedScans:
    """Every miner books exactly the passes it makes over the series."""

    @pytest.mark.parametrize("miner", sorted(MINERS))
    @pytest.mark.parametrize(
        "symbols, min_conf",
        [("abcdefghij" * 3, 0.99), ("abdabcabdabc", 0.5)],
        ids=["empty-f1", "paper"],
    )
    def test_booked_scans_equal_actual(self, miner, symbols, min_conf):
        scan = ScanCountingSeries(FeatureSeries.from_symbols(symbols))
        booked = MINERS[miner](scan, min_conf)
        assert booked == scan.scans
        # An empty F1 ends a single-period miner after scan 1; Algorithm
        # 3.4 makes its two passes whatever each period's F1 holds.
        empty_f1 = symbols.startswith("abcdefghij")
        assert booked == (1 if empty_f1 and miner != "shared" else 2)
