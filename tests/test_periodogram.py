"""Unit tests for period discovery (repro.analysis.periodogram)."""

from __future__ import annotations

import pytest

from repro.analysis import periodogram
from repro.analysis.periodogram import score_periods, suggest_periods
from repro.core.errors import MiningError
from repro.synth.workloads import unexpected_period_series
from repro.timeseries.feature_series import FeatureSeries
from repro.timeseries.scan import ScanCountingSeries
from tests.reference import packed_series, score_periods_loop, wide_series


class TestScoring:
    def test_true_period_scores_highest(self):
        series = unexpected_period_series(period=11, repetitions=150, seed=2)
        scores = score_periods(series, range(5, 25), min_conf=0.6)
        assert scores[0].period in (11, 22)  # 22 is the harmonic

    def test_scores_sorted_descending(self):
        series = unexpected_period_series(period=11, repetitions=100, seed=2)
        scores = score_periods(series, range(5, 20), min_conf=0.6)
        values = [item.score for item in scores]
        assert values == sorted(values, reverse=True)

    def test_ubiquitous_feature_contributes_nothing(self):
        # A feature present in every slot has base rate 1: no excess.
        series = FeatureSeries([{"always"}] * 60)
        scores = score_periods(series, range(2, 10), min_conf=0.5)
        assert all(item.score == pytest.approx(0.0) for item in scores)

    def test_invalid_inputs(self):
        series = FeatureSeries.from_symbols("abcabc")
        with pytest.raises(MiningError):
            score_periods(series, [], min_conf=0.5)
        with pytest.raises(MiningError):
            score_periods(series, [100], min_conf=0.5)

    def test_min_repetitions_filters(self):
        series = FeatureSeries.from_symbols("abcabc")
        scores = score_periods(series, [2, 3, 5], min_repetitions=2)
        assert {item.period for item in scores} == {2, 3}


class TestSuggestions:
    def test_harmonics_collapsed(self):
        series = unexpected_period_series(period=11, repetitions=200, seed=4)
        suggestions = suggest_periods(series, 5, 35, min_conf=0.6, limit=3)
        assert suggestions[0].period == 11
        # 22 and 33 should be dominated by 11.
        suggested = {item.period for item in suggestions}
        assert 22 not in suggested
        assert 33 not in suggested

    def test_limit_respected(self):
        series = unexpected_period_series(period=7, repetitions=100, seed=1)
        suggestions = suggest_periods(series, 2, 20, limit=2)
        assert len(suggestions) <= 2

    def test_structureless_series_still_returns_something(self):
        series = FeatureSeries([{"always"}] * 40)
        suggestions = suggest_periods(series, 2, 8, min_conf=0.5, limit=3)
        assert suggestions  # raw top scores, not an empty list

    def test_full_mining_confirms_suggestion(self):
        from repro.core.hitset import mine_single_period_hitset
        from repro.core.pattern import Pattern

        series = unexpected_period_series(period=11, repetitions=200, seed=4)
        best = suggest_periods(series, 5, 20, min_conf=0.6, limit=1)[0]
        result = mine_single_period_hitset(series, best.period, 0.6)
        assert Pattern.from_letters(11, [(2, "burst")]) in result
        assert Pattern.from_letters(11, [(2, "burst"), (7, "dip")]) in result


class TestHarmonicReplacement:
    def test_multiple_that_ranks_first_is_replaced_by_fundamental(self):
        # A clean planted period whose multiple ties (or slightly beats) it
        # on score: the suggestion list must still lead with the
        # fundamental, not the multiple.
        series = unexpected_period_series(period=12, repetitions=300, seed=6)
        suggestions = suggest_periods(series, 2, 50, min_conf=0.6, limit=4)
        suggested = [item.period for item in suggestions]
        assert 12 in suggested
        for multiple in (24, 36, 48):
            if multiple in suggested:
                assert suggested.index(12) < suggested.index(multiple)


#: The series, ranges and thresholds the tests above score.
FIXTURES = [
    (unexpected_period_series(period=11, repetitions=150, seed=2), range(5, 25), 0.6),
    (unexpected_period_series(period=11, repetitions=100, seed=2), range(5, 20), 0.6),
    (unexpected_period_series(period=11, repetitions=200, seed=4), range(5, 36), 0.6),
    (unexpected_period_series(period=7, repetitions=100, seed=1), range(2, 21), 0.5),
    (unexpected_period_series(period=12, repetitions=300, seed=6), range(2, 51), 0.6),
    (FeatureSeries([{"always"}] * 60), range(2, 10), 0.5),
    (FeatureSeries([{"always"}] * 40), range(2, 9), 0.5),
    (FeatureSeries.from_symbols("abcabc"), [2, 3, 5], 0.5),
    (packed_series(3, length=90), range(1, 30), 0.25),
    (wide_series(5), range(2, 40), 0.3),
]
FIXTURE_IDS = [f"fixture{index}" for index in range(len(FIXTURES))]


class TestKernelMatchesLoop:
    """The interned slot kernel scores exactly as the per-slot loop did."""

    @pytest.mark.parametrize("series, periods, min_conf", FIXTURES, ids=FIXTURE_IDS)
    def test_scores_match_reference(self, series, periods, min_conf):
        fast = {s.period: s for s in score_periods(series, periods, min_conf)}
        slow = {s.period: s for s in score_periods_loop(series, periods, min_conf)}
        assert fast.keys() == slow.keys()
        for period, expected in slow.items():
            got = fast[period]
            assert got.frequent_letters == expected.frequent_letters, period
            assert got.best_confidence == expected.best_confidence, period
            assert got.score == pytest.approx(expected.score, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("series, periods, min_conf", FIXTURES, ids=FIXTURE_IDS)
    def test_suggestion_ranking_identical(self, monkeypatch, series, periods, min_conf):
        low, high = min(periods), max(periods)
        fast = suggest_periods(series, low, high, min_conf=min_conf, limit=4)
        monkeypatch.setattr(periodogram, "score_periods", score_periods_loop)
        slow = suggest_periods(series, low, high, min_conf=min_conf, limit=4)
        assert [s.period for s in fast] == [s.period for s in slow]

    def test_one_scan(self):
        scan = ScanCountingSeries(
            unexpected_period_series(period=11, repetitions=50, seed=2)
        )
        score_periods(scan, range(5, 25), min_conf=0.6)
        assert scan.scans == 1
