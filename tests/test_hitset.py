"""Unit tests for Algorithm 3.2 (max-subpattern hit-set)."""

from __future__ import annotations

import pytest

from repro.core.apriori import mine_single_period_apriori
from repro.core.counting import brute_force_frequent
from repro.core.errors import MiningError
from repro.core.hitset import mine_single_period_hitset
from repro.core.pattern import Pattern
from repro.timeseries.feature_series import FeatureSeries
from repro.timeseries.scan import ScanCountingSeries
from tests.reference import build_hit_tree


class TestCorrectness:
    def test_matches_oracle(self, paper_series):
        for min_conf in (0.25, 0.5, 0.75, 1.0):
            result = mine_single_period_hitset(paper_series, 3, min_conf)
            oracle = brute_force_frequent(paper_series, 3, min_conf)
            assert dict(result.items()) == oracle, min_conf

    def test_matches_apriori_exactly(self, synthetic_small):
        min_conf = synthetic_small.recommended_min_conf
        hitset = mine_single_period_hitset(synthetic_small.series, 10, min_conf)
        apriori = mine_single_period_apriori(synthetic_small.series, 10, min_conf)
        assert dict(hitset.items()) == dict(apriori.items())

    def test_planted_pattern_is_found(self, synthetic_small):
        result = mine_single_period_hitset(
            synthetic_small.series, 10, synthetic_small.recommended_min_conf
        )
        assert synthetic_small.planted_pattern in result

    def test_one_letter_counts_come_from_scan_one(self, paper_series):
        # 1-letter counts must be exact even though 1-letter hits are not
        # stored in the tree.
        result = mine_single_period_hitset(paper_series, 3, 0.25)
        assert result[Pattern.from_string("a**")] == 4
        assert result[Pattern.from_string("**d")] == 2
        assert result[Pattern.from_string("**c")] == 2

    def test_multi_letter_positions(self):
        series = FeatureSeries([{"a", "b"}, {"x"}] * 6)
        result = mine_single_period_hitset(series, 2, 0.9)
        assert Pattern([["a", "b"], None]) in result
        assert result[Pattern([["a", "b"], None])] == 6

    def test_empty_f1_gives_empty_result_after_one_scan(self):
        series = FeatureSeries.from_symbols("abcdefgh")
        scan = ScanCountingSeries(series)
        result = mine_single_period_hitset(scan, 2, 1.0)
        assert len(result) == 0
        assert scan.scans == 1
        assert result.stats.scans == 1

    def test_segment_with_single_frequent_letter_still_counted(self):
        # Segments whose hit is a single letter contribute to that letter's
        # count (via scan 1) even though no tree node is created.
        series = FeatureSeries(
            [{"a"}, {"b"}] * 3 + [{"a"}, set()] * 3
        )
        result = mine_single_period_hitset(series, 2, 0.4)
        assert result[Pattern.from_string("a*")] == 6
        assert result[Pattern.from_string("ab")] == 3


class TestTwoScans:
    def test_exactly_two_scans(self, synthetic_small):
        scan = ScanCountingSeries(synthetic_small.series)
        result = mine_single_period_hitset(
            scan, 10, synthetic_small.recommended_min_conf
        )
        assert scan.scans == 2
        assert result.stats.scans == 2

    def test_two_scans_regardless_of_pattern_length(self):
        # Apriori needs more scans as patterns grow; hit-set never does.
        long_pattern_series = FeatureSeries(
            [{"a"}, {"b"}, {"c"}, {"d"}, {"e"}, {"f"}] * 8
        )
        scan = ScanCountingSeries(long_pattern_series)
        result = mine_single_period_hitset(scan, 6, 0.9)
        assert scan.scans == 2
        assert result.max_letter_count == 6

        scan.reset()
        apriori = mine_single_period_apriori(scan, 6, 0.9)
        assert scan.scans > 2
        assert dict(apriori.items()) == dict(result.items())


class TestTreeStats:
    def test_hit_set_size_recorded(self, synthetic_small):
        result = mine_single_period_hitset(
            synthetic_small.series, 10, synthetic_small.recommended_min_conf
        )
        assert result.stats.hit_set_size >= 1
        assert result.stats.tree_nodes >= result.stats.hit_set_size

    def test_hit_set_bounded_by_property_3_2(self, synthetic_small):
        from repro.analysis.bounds import hit_set_bound
        from repro.core.maxpattern import find_frequent_one_patterns

        min_conf = synthetic_small.recommended_min_conf
        one = find_frequent_one_patterns(synthetic_small.series, 10, min_conf)
        result = mine_single_period_hitset(synthetic_small.series, 10, min_conf)
        assert result.stats.hit_set_size <= hit_set_bound(
            one.num_periods, len(one.letters)
        )


class TestBuildHitTree:
    def test_returns_populated_tree(self, paper_series):
        tree, one_patterns = build_hit_tree(paper_series, 3, 0.5)
        assert tree.total_hits >= 1
        assert one_patterns.threshold == 2

    def test_raises_on_empty_f1(self):
        series = FeatureSeries.from_symbols("abcdefgh")
        with pytest.raises(MiningError):
            build_hit_tree(series, 2, 1.0)
