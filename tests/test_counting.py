"""Unit tests for counting primitives and the brute-force oracle."""

from __future__ import annotations

import pytest

from repro.core.counting import (
    brute_force_counts,
    brute_force_frequent,
    confidence,
    count_candidates,
    count_pattern,
    counts_to_patterns,
    frequent_letter_set,
    letter_counts_for_segments,
    min_count,
    pattern_counts_table,
    segment_letters,
)
from repro.core.errors import MiningError, SeriesError
from repro.core.pattern import Pattern
from repro.timeseries.feature_series import FeatureSeries


class TestMinCount:
    def test_exact_fraction(self):
        assert min_count(0.5, 10) == 5

    def test_rounds_up(self):
        assert min_count(0.34, 3) == 2
        assert min_count(0.5, 5) == 3

    def test_float_product_edge(self):
        # 0.3 * 10 is 2.9999999... in binary; must still be 3, not 4.
        assert min_count(0.3, 10) == 3

    def test_confidence_one_requires_all(self):
        assert min_count(1.0, 7) == 7

    def test_at_least_one(self):
        assert min_count(0.01, 3) == 1

    def test_invalid_conf(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(MiningError):
                min_count(bad, 10)

    def test_negative_periods(self):
        with pytest.raises(MiningError):
            min_count(0.5, -1)


class TestCountPattern:
    def test_example_2_1(self):
        # Paper Example 2.1: frequency count of a* in a{b,c}adab{e} is 3? —
        # the text's own numbers: count of (a, {b,c}) pattern in the series
        # a{b,c} a{d} a{b,e} is 2 and the count of a* is 3.
        series = FeatureSeries(
            [{"a"}, {"b", "c"}, {"a"}, {"d"}, {"a"}, {"b", "e"}]
        )
        assert count_pattern(series, Pattern.from_string("a*")) == 3
        assert count_pattern(series, Pattern.from_string("ab")) == 2
        assert count_pattern(series, Pattern([["a"], ["b", "c"]])) == 1

    def test_confidence(self):
        series = FeatureSeries(
            [{"a"}, {"b", "c"}, {"a"}, {"d"}, {"a"}, {"b", "e"}]
        )
        assert confidence(series, Pattern.from_string("ab")) == pytest.approx(2 / 3)

    def test_confidence_no_whole_period(self):
        series = FeatureSeries.from_symbols("ab")
        with pytest.raises(SeriesError):
            confidence(series, Pattern.from_string("abc"))

    def test_trivial_pattern_counts_all_segments(self):
        series = FeatureSeries.from_symbols("abcabc")
        assert count_pattern(series, Pattern.dont_care(3)) == 2


class TestSegmentLetters:
    def test_letters_of_segment(self):
        segment = (frozenset({"a"}), frozenset(), frozenset({"b", "c"}))
        assert segment_letters(segment) == frozenset(
            {(0, "a"), (2, "b"), (2, "c")}
        )

    def test_letter_counts_for_segments(self):
        series = FeatureSeries.from_symbols("abdabc")
        counts = letter_counts_for_segments(series.segments(3))
        assert counts[(0, "a")] == 2
        assert counts[(2, "d")] == 1
        assert counts[(2, "c")] == 1

    def test_frequent_letter_set_filters(self):
        counts = {(0, "a"): 5, (1, "b"): 2}
        assert frequent_letter_set(counts, 3) == {(0, "a"): 5}


class TestCountCandidates:
    def test_counts_many_in_one_scan(self):
        series = FeatureSeries.from_symbols("abdabc")
        candidates = [
            frozenset({(0, "a")}),
            frozenset({(0, "a"), (1, "b")}),
            frozenset({(2, "d")}),
        ]
        counts = count_candidates(series, 3, candidates)
        assert counts[candidates[0]] == 2
        assert counts[candidates[1]] == 2
        assert counts[candidates[2]] == 1

    def test_letters_the_series_never_holds_count_zero(self):
        # "A" sorts before "a", so a store that skipped its bit would
        # shift every later letter's bit onto the wrong letter.
        series = FeatureSeries.from_symbols("abdabc")
        candidates = [
            frozenset({(0, "A")}),
            frozenset({(0, "A"), (0, "a")}),
            frozenset({(0, "a"), (1, "b")}),
            frozenset({(2, "d")}),
            frozenset({(5, "a")}),
        ]
        counts = count_candidates(series, 3, candidates)
        assert [counts[candidate] for candidate in candidates] == [0, 0, 2, 1, 0]

    def test_empty_candidates(self):
        series = FeatureSeries.from_symbols("ab")
        assert count_candidates(series, 2, []) == {}


class TestBruteForce:
    def test_counts_match_definition(self):
        series = FeatureSeries.from_symbols("abdabc")
        counts = brute_force_counts(series, 3)
        as_patterns = counts_to_patterns(3, counts)
        for pattern, count in as_patterns.items():
            assert count == count_pattern(series, pattern)

    def test_zero_count_patterns_absent(self):
        series = FeatureSeries.from_symbols("abcabc")
        counts = counts_to_patterns(3, brute_force_counts(series, 3))
        assert Pattern.from_string("b**") not in counts

    def test_frequent_threshold(self):
        series = FeatureSeries.from_symbols("abdabc")
        frequent = brute_force_frequent(series, 3, 1.0)
        assert set(map(str, frequent)) == {"a**", "*b*", "ab*"}

    def test_frequent_no_whole_period(self):
        with pytest.raises(SeriesError):
            brute_force_frequent(FeatureSeries.from_symbols("ab"), 3, 0.5)

    def test_oracle_guard_against_blowup(self):
        wide = FeatureSeries([{f"x{i}" for i in range(8)}] * 4)
        with pytest.raises(MiningError):
            brute_force_counts(wide, 2, max_subsets_per_segment=64)


class TestReporting:
    def test_pattern_counts_table_sorted(self):
        counts = {
            Pattern.from_string("a*"): 3,
            Pattern.from_string("*b"): 5,
        }
        rows = pattern_counts_table(counts, 10)
        assert rows[0] == ("*b", 5, 0.5)
        assert rows[1] == ("a*", 3, 0.3)

    def test_pattern_counts_table_bad_m(self):
        with pytest.raises(MiningError):
            pattern_counts_table({}, 0)
