"""Unit tests for multi-period mining (Algorithms 3.3 and 3.4)."""

from __future__ import annotations

import random

import pytest

from repro.core.counting import brute_force_frequent, letter_counts_for_segments
from repro.core.errors import MiningError
from repro.core.multiperiod import (
    mine_period_range,
    mine_periods_looping,
    mine_periods_shared,
    period_range,
)
from repro.core.pattern import Pattern
from repro.kernels.slots import letter_totals
from repro.timeseries.feature_series import FeatureSeries
from repro.timeseries.scan import ScanCountingSeries
from tests.reference import letter_set_apriori, packed_series


class TestPeriodRange:
    def test_inclusive(self):
        assert period_range(3, 5) == [3, 4, 5]

    def test_single(self):
        assert period_range(4, 4) == [4]

    def test_invalid(self):
        with pytest.raises(MiningError):
            period_range(0, 5)
        with pytest.raises(MiningError):
            period_range(5, 4)


class TestEquivalence:
    def test_shared_equals_looping(self, synthetic_small):
        min_conf = synthetic_small.recommended_min_conf
        periods = range(4, 13)
        shared = mine_periods_shared(synthetic_small.series, periods, min_conf)
        looping = mine_periods_looping(synthetic_small.series, periods, min_conf)
        assert shared.periods == looping.periods
        for period in shared.periods:
            assert dict(shared[period].items()) == dict(
                looping[period].items()
            ), period

    def test_shared_equals_looping_apriori(self, paper_series):
        shared = mine_periods_shared(paper_series, [2, 3, 4, 6], 0.5)
        looping = mine_periods_looping(
            paper_series, [2, 3, 4, 6], 0.5, algorithm="apriori"
        )
        for period in shared.periods:
            assert dict(shared[period].items()) == dict(
                looping[period].items()
            ), period

    def test_paper_counterexample_no_cross_period_apriori(self, paper_series):
        # Section 3.2: **d has confidence 1 at period 6 but only 1/2 at
        # period 3 — frequent patterns do not transfer between periods.
        outcome = mine_periods_shared(paper_series, [3, 6], 1.0)
        period6_d = Pattern.from_letters(6, [(2, "d")])
        period3_d = Pattern.from_letters(3, [(2, "d")])
        assert period6_d in outcome[6]
        assert period3_d not in outcome[3]


def assert_shared_exact(series, periods, min_conf, oracle, min_repetitions=1):
    """Shared mining equals looping and ``oracle`` letter for letter.

    The two miners must also build trees of the same shape: equal node
    counts and hit-set sizes per period.
    """
    shared = mine_periods_shared(
        series, periods, min_conf, min_repetitions=min_repetitions
    )
    looping = mine_periods_looping(
        series, periods, min_conf, min_repetitions=min_repetitions
    )
    assert shared.periods == looping.periods
    for period in shared.periods:
        mined = dict(shared[period].items())
        assert mined == dict(looping[period].items()), period
        assert mined == oracle(series, period, min_conf), period
        assert shared[period].num_periods == looping[period].num_periods
        assert (
            shared[period].stats.tree_nodes == looping[period].stats.tree_nodes
        ), period
        assert (
            shared[period].stats.hit_set_size
            == looping[period].stats.hit_set_size
        ), period
    return shared


def two_feature_series(period: int, segments: int, seed: int) -> FeatureSeries:
    """One of two features per slot, drawn at random.

    At ``min_conf`` 0.3 nearly every ``(offset, feature)`` letter is
    frequent (about half the segments hold it) and pairs mostly are not
    (about a quarter), so ``C_max`` has close to ``2 * period`` letters
    and the derivation stops after level 2 or soon after.
    """
    rng = random.Random(seed)
    return FeatureSeries(
        [{rng.choice("xy")} for _ in range(period * segments)]
    )


def unique_feature_series() -> FeatureSeries:
    """A fresh feature in each of 1000 slots, plus ``a`` every tenth slot."""
    return FeatureSeries(
        [{f"u{i}", "a"} if i % 10 == 0 else {f"u{i}"} for i in range(1000)]
    )


class TestDifferential:
    """The interned-slot Algorithm 3.4 against looping and the oracles."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("min_conf", [0.25, 0.5])
    def test_packed_series(self, seed, min_conf):
        series = packed_series(seed, length=61)
        assert_shared_exact(series, range(1, 7), min_conf, brute_force_frequent)

    def test_wide_cmax_over_64_letters(self):
        series = two_feature_series(70, segments=40, seed=3)
        shared = assert_shared_exact(series, [70], 0.3, letter_set_apriori)
        one_letter = [p for p in shared[70] if p.letter_count == 1]
        assert len(one_letter) > 64

    def test_wide_cmax_with_a_pair_across_words(self):
        # Offsets 0 and 69 hold the lowest and highest C_max bits, so the
        # planted pair's hits set bits in both 64-bit words.
        rng = random.Random(11)
        series = two_feature_series(70, segments=40, seed=4)
        slots = [set(slot) for slot in series]
        for start in range(0, len(slots), 70):
            if rng.random() < 0.8:
                slots[start].add("a")
                slots[start + 69].add("z")
        shared = assert_shared_exact(
            FeatureSeries(slots), [70], 0.3, letter_set_apriori
        )
        pair = Pattern.from_letters(70, [(0, "a"), (69, "z")])
        assert pair in shared[70]

    def test_alphabet_larger_than_the_data(self):
        # A fresh feature in every slot makes the period x feature letter
        # space larger than the occurrences; scan 1 counts only the
        # letters that occur.
        series = unique_feature_series()
        occurrences = sum(len(slot) for slot in series)
        assert 10 * len(series.alphabet) > occurrences
        outcome = assert_shared_exact(series, [10, 11], 0.5, brute_force_frequent)
        assert Pattern.from_letters(10, [(0, "a")]) in outcome[10]

    @pytest.mark.parametrize(
        "series, period",
        [
            (unique_feature_series(), 10),
            (unique_feature_series(), 2),
            (packed_series(2, length=61), 4),
            (FeatureSeries([None] * 7), 3),
        ],
        ids=["wide-p10", "wide-p2", "packed", "empty"],
    )
    def test_scan1_letter_counts_match_counter(self, series, period):
        column = series.slot_column()
        letter_ids, counts = letter_totals(
            column.occurrences(), period, series.num_periods(period)
        )
        expected = letter_counts_for_segments(series.segments(period))
        assert column.table.letters_of(letter_ids, counts) == dict(expected)

    def test_empty_slots(self):
        series = FeatureSeries.from_symbols("a*b**ab*c*a*b***ab*ca*b**a" * 3)
        assert_shared_exact(series, range(2, 9), 0.3, brute_force_frequent)

    def test_all_slots_empty(self):
        series = FeatureSeries([None] * 24)
        outcome = mine_periods_shared(series, [2, 3, 5], 0.5)
        assert outcome.total_frequent == 0
        assert outcome.scans == 1

    def test_lengths_not_a_multiple_of_the_period(self):
        series = packed_series(11, length=53)
        periods = [4, 5, 6, 7]
        assert all(len(series) % period for period in periods)
        assert_shared_exact(series, periods, 0.3, brute_force_frequent)

    def test_trailing_partial_segment_is_ignored(self):
        # The tail "ab" would make "ab*" frequent at period 3 if counted.
        series = FeatureSeries.from_symbols("ab*" + "***" * 2 + "ab")
        outcome = assert_shared_exact(series, [3], 0.5, brute_force_frequent)
        assert outcome.total_frequent == 0

    def test_min_repetitions_filtering(self):
        series = packed_series(4, length=61)
        outcome = assert_shared_exact(
            series, [3, 5, 7, 20], 0.3, brute_force_frequent, min_repetitions=4
        )
        assert outcome.periods == [3, 5, 7]

    @pytest.mark.parametrize("min_conf, scans", [(0.3, 2), (1.0, 1)])
    def test_scan_counting_series(self, min_conf, scans):
        series = packed_series(9, length=61)
        scan = ScanCountingSeries(series)
        outcome = mine_periods_shared(scan, range(2, 7), min_conf)
        assert outcome.scans == scan.scans == scans
        assert scan.slots_read == scans * len(series)
        expected = mine_periods_shared(series, range(2, 7), min_conf)
        for period in outcome.periods:
            assert dict(outcome[period].items()) == dict(expected[period].items())
            assert outcome[period].stats.scans == scans


class TestScanCounts:
    def test_shared_uses_two_scans_total(self, synthetic_small):
        scan = ScanCountingSeries(synthetic_small.series)
        outcome = mine_periods_shared(scan, range(4, 13), 0.6)
        assert scan.scans == 2
        assert outcome.scans == 2

    def test_shared_stops_after_scan_one_when_every_f1_is_empty(self):
        scan = ScanCountingSeries(FeatureSeries.from_symbols("abcdefghij" * 3))
        outcome = mine_periods_shared(scan, [3, 4], 0.99)
        assert outcome.total_frequent == 0
        assert scan.scans == outcome.scans == 1
        assert "scans=1" in outcome.summary()

    def test_looping_uses_two_scans_per_period(self):
        # A series periodic at every tested period, so each per-period run
        # performs both of its scans (an empty F1 stops after one).
        series = FeatureSeries([{"a"}, {"b"}] * 12)
        scan = ScanCountingSeries(series)
        outcome = mine_periods_looping(scan, [2, 4, 6], 0.9)
        assert scan.scans == 2 * 3
        assert outcome.scans == scan.scans

    def test_looping_one_scan_for_empty_f1_periods(self, synthetic_small):
        # Off-period mining finds no frequent 1-patterns and stops after
        # scan 1 — the looping total reflects that.
        scan = ScanCountingSeries(synthetic_small.series)
        outcome = mine_periods_looping(scan, range(4, 9), 0.6)
        assert scan.scans == outcome.scans
        assert 5 <= scan.scans <= 10


class TestValidation:
    def test_empty_periods_rejected(self, paper_series):
        with pytest.raises(MiningError):
            mine_periods_shared(paper_series, [], 0.5)

    def test_period_beyond_length_rejected(self, paper_series):
        with pytest.raises(MiningError):
            mine_periods_shared(paper_series, [3, 100], 0.5)

    def test_min_repetitions_filters(self, paper_series):
        # Length 12; period 7 repeats once, filtered at min_repetitions=2.
        outcome = mine_periods_shared(
            paper_series, [3, 7], 0.5, min_repetitions=2
        )
        assert outcome.periods == [3]

    def test_all_periods_filtered_raises(self, paper_series):
        with pytest.raises(MiningError):
            mine_periods_shared(paper_series, [7], 0.5, min_repetitions=2)

    def test_bad_min_repetitions(self, paper_series):
        with pytest.raises(MiningError):
            mine_periods_shared(paper_series, [3], 0.5, min_repetitions=0)

    def test_unknown_algorithm(self, paper_series):
        with pytest.raises(MiningError):
            mine_periods_looping(paper_series, [3], 0.5, algorithm="fft")

    def test_duplicate_periods_deduplicated(self, paper_series):
        outcome = mine_periods_shared(paper_series, [3, 3, 3], 0.5)
        assert outcome.periods == [3]


class TestResultContainer:
    def test_mapping_protocol(self, paper_series):
        outcome = mine_periods_shared(paper_series, [3, 4], 0.5)
        assert len(outcome) == 2
        assert 3 in outcome
        assert 5 not in outcome
        assert list(outcome) == [3, 4]
        assert outcome.total_frequent == len(outcome[3]) + len(outcome[4])

    def test_best_patterns_ranked_by_length(self, paper_series):
        outcome = mine_periods_shared(paper_series, [3, 6], 0.5)
        best = outcome.best_patterns(limit=3)
        assert len(best) == 3
        lengths = [pattern.letter_count for _, pattern, _ in best]
        assert lengths == sorted(lengths, reverse=True)

    def test_summary_mentions_scans(self, paper_series):
        outcome = mine_periods_shared(paper_series, [3], 0.5)
        assert "scans=2" in outcome.summary()


class TestRangeWrapper:
    def test_shared_flag(self, paper_series):
        shared = mine_period_range(paper_series, 2, 4, 0.5, shared=True)
        looping = mine_period_range(paper_series, 2, 4, 0.5, shared=False)
        assert shared.periods == looping.periods == [2, 3, 4]
        for period in shared.periods:
            assert dict(shared[period].items()) == dict(looping[period].items())

    def test_period_one_supported(self):
        series = FeatureSeries([{"a"}, {"a"}, {"a"}, {"b"}])
        outcome = mine_period_range(series, 1, 2, 0.7)
        # At period 1 the only segment offset is 0; 'a' holds 3/4.
        assert Pattern.from_letters(1, [(0, "a")]) in outcome[1]
