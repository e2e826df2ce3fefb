"""Unit tests for maximal-pattern mining (repro.core.maximal)."""

from __future__ import annotations

import pytest

from repro.core.apriori import mine_single_period_apriori
from repro.core.counting import brute_force_frequent
from repro.core.maximal import maximal_patterns, mine_maximal_hitset
from repro.core.pattern import Pattern
from repro.timeseries.feature_series import FeatureSeries
from repro.encoding.codec import vocabulary_of_series
from repro.timeseries.scan import ScanCountingSeries
from tests.reference import packed_series, wide_series


class TestMaximalFilter:
    def test_paper_example(self):
        # Section 4 end: frequent set {a*b*, ab**?, ...} reduces to the
        # patterns with no frequent proper superpattern.
        counts = {
            Pattern.from_string("a*b*"): 5,
            Pattern.from_string("a***"): 8,
            Pattern.from_string("**b*"): 7,
            Pattern.from_string("***c"): 6,
        }
        maximal = maximal_patterns(counts)
        assert set(map(str, maximal)) == {"a*b*", "***c"}
        assert maximal[Pattern.from_string("a*b*")] == 5

    def test_empty_input(self):
        assert maximal_patterns({}) == {}

    def test_single_pattern_is_maximal(self):
        counts = {Pattern.from_string("ab"): 3}
        assert maximal_patterns(counts) == counts

    def test_incomparable_patterns_all_kept(self):
        counts = {
            Pattern.from_string("a**"): 1,
            Pattern.from_string("*b*"): 2,
            Pattern.from_string("**c"): 3,
        }
        assert maximal_patterns(counts) == counts


class TestHybridMiner:
    def test_equals_filtered_full_mining(self, paper_series):
        for min_conf in (0.25, 0.5, 1.0):
            hybrid = mine_maximal_hitset(paper_series, 3, min_conf)
            full = mine_single_period_apriori(paper_series, 3, min_conf)
            assert dict(hybrid.items()) == full.maximal_patterns(), min_conf

    def test_equals_filtered_full_mining_synthetic(self, synthetic_small):
        min_conf = synthetic_small.recommended_min_conf
        hybrid = mine_maximal_hitset(synthetic_small.series, 10, min_conf)
        full = mine_single_period_apriori(synthetic_small.series, 10, min_conf)
        assert dict(hybrid.items()) == full.maximal_patterns()

    def test_planted_pattern_among_maximal(self, synthetic_small):
        hybrid = mine_maximal_hitset(
            synthetic_small.series, 10, synthetic_small.recommended_min_conf
        )
        planted_letters = synthetic_small.planted_pattern.letters
        assert any(planted_letters <= pattern.letters for pattern in hybrid)

    def test_two_scans_only(self, synthetic_small):
        # The point of the hybrid: MaxMiner-quality output without
        # MaxMiner's repeated scans.
        scan = ScanCountingSeries(synthetic_small.series)
        result = mine_maximal_hitset(
            scan, 10, synthetic_small.recommended_min_conf
        )
        assert scan.scans == 2
        assert result.stats.scans == 2

    def test_empty_f1(self):
        series = FeatureSeries.from_symbols("abcdefgh")
        result = mine_maximal_hitset(series, 2, 1.0)
        assert len(result) == 0

    def test_single_letter_maximal(self):
        # A frequent letter with no frequent 2-letter superpattern must
        # appear as a 1-letter maximal pattern.
        series = FeatureSeries(
            [{"a"}, {"b"}] * 3 + [{"a"}, set()] * 3 + [set(), {"b"}] * 3
        )
        result = mine_maximal_hitset(series, 2, 0.6)
        full = mine_single_period_apriori(series, 2, 0.6)
        assert dict(result.items()) == full.maximal_patterns()
        assert all(pattern.letter_count == 1 for pattern in result)

    def test_lookahead_counts_are_exact(self, paper_series):
        hybrid = mine_maximal_hitset(paper_series, 3, 0.5)
        from repro.core.counting import count_pattern

        for pattern, count in hybrid.items():
            assert count == count_pattern(paper_series, pattern)


class TestHybridEquivalence:
    """The hybrid equals the maximal filter over the full frequent set."""

    @pytest.mark.parametrize("shape", ["packed", "wide"])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_maximal_of_brute_force(self, shape, seed):
        series = packed_series(seed) if shape == "packed" else wide_series(seed)
        for period in (3, 4):
            wide = len(vocabulary_of_series(series, period)) > 64
            assert wide == (shape == "wide")
            for min_conf in (0.2, 0.5, 0.9):
                expected = maximal_patterns(
                    brute_force_frequent(series, period, min_conf)
                )
                result = mine_maximal_hitset(series, period, min_conf)
                assert dict(result.items()) == expected, (period, min_conf)
