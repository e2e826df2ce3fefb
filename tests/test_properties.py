"""Property-based tests (hypothesis) for the core invariants.

These are the load-bearing correctness checks: on arbitrary small series,
Algorithm 3.1, Algorithm 3.2 and the exhaustive oracle must agree exactly,
and the structural properties the paper proves must hold.  The seeded
sweep in :class:`TestEncodedPathEquivalence` additionally pins the
interned-bitmask miners to a letter-set Apriori reference and to the
oracle byte for byte over hundreds of random series — packed and wide
(> 64-letter) vocabularies alike, in memory and through mmap'd store
files.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.apriori import mine_single_period_apriori
from repro.core.counting import (
    brute_force_frequent,
    count_pattern,
    min_count,
    segment_letters,
)
from repro.core.errors import MiningError
from repro.core.hitset import mine_single_period_hitset
from repro.core.maximal import mine_maximal_hitset
from repro.core.multiperiod import mine_periods_looping, mine_periods_shared
from repro.core.pattern import Pattern
from repro.timeseries.feature_series import FeatureSeries
from tests.reference import letter_set_apriori, wide_series

from tests.conftest import (
    nontrivial_pattern_strategy,
    pattern_strategy,
    series_strategy,
)

CONFS = st.sampled_from([0.2, 0.34, 0.5, 0.75, 1.0])
PERIODS = st.integers(min_value=1, max_value=5)


def _usable(series: FeatureSeries, period: int) -> bool:
    return len(series) >= period


class TestPatternAlgebra:
    @given(pattern=pattern_strategy(period=4))
    def test_string_roundtrip(self, pattern):
        assert Pattern.from_string(str(pattern)) == pattern

    @given(left=pattern_strategy(4), right=pattern_strategy(4))
    def test_union_is_least_upper_bound(self, left, right):
        union = left.union(right)
        assert left.letters <= union.letters
        assert right.letters <= union.letters
        assert union.letters == left.letters | right.letters

    @given(left=pattern_strategy(4), right=pattern_strategy(4))
    def test_intersection_is_greatest_lower_bound(self, left, right):
        meet = left.intersection(right)
        assert meet.letters == left.letters & right.letters

    @given(
        a=pattern_strategy(3), b=pattern_strategy(3), c=pattern_strategy(3)
    )
    def test_subpattern_transitive(self, a, b, c):
        if a.is_subpattern_of(b) and b.is_subpattern_of(c):
            assert a.is_subpattern_of(c)

    @given(series=series_strategy(4, 12), pattern=nontrivial_pattern_strategy(4))
    def test_restriction_is_maximal_true_subpattern(self, series, pattern):
        if len(series) < 4:
            return
        segment = series.segment(4, 0)
        hit = pattern.restrict_to_segment(segment)
        assert hit.matches(segment) or hit.is_trivial
        # No superpattern of the hit (within the pattern) is true.
        extra = pattern.letters - hit.letters
        for letter in extra:
            bigger = Pattern.from_letters(4, hit.letters | {letter})
            assert not bigger.matches(segment)


class TestMinerEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(series=series_strategy(4, 30), period=PERIODS, conf=CONFS)
    def test_hitset_equals_apriori_equals_oracle(self, series, period, conf):
        if not _usable(series, period):
            return
        hitset = mine_single_period_hitset(series, period, conf)
        apriori = mine_single_period_apriori(series, period, conf)
        oracle = brute_force_frequent(series, period, conf)
        assert dict(hitset.items()) == oracle
        assert dict(apriori.items()) == oracle

    @settings(max_examples=40, deadline=None)
    @given(series=series_strategy(6, 24), conf=CONFS)
    def test_shared_equals_looping(self, series, conf):
        periods = [p for p in (2, 3, 4) if len(series) >= p]
        shared = mine_periods_shared(series, periods, conf)
        looping = mine_periods_looping(series, periods, conf)
        for period in shared.periods:
            assert dict(shared[period].items()) == dict(
                looping[period].items()
            )

    @settings(max_examples=40, deadline=None)
    @given(series=series_strategy(4, 24), period=PERIODS, conf=CONFS)
    def test_maximal_hitset_is_maximal_subset(self, series, period, conf):
        if not _usable(series, period):
            return
        maximal = mine_maximal_hitset(series, period, conf)
        full = mine_single_period_hitset(series, period, conf)
        assert dict(maximal.items()) == full.maximal_patterns()


class TestStructuralInvariants:
    @settings(max_examples=60, deadline=None)
    @given(series=series_strategy(4, 30), period=PERIODS, conf=CONFS)
    def test_apriori_property_in_output(self, series, period, conf):
        if not _usable(series, period):
            return
        result = mine_single_period_hitset(series, period, conf)
        for pattern in result:
            for letter in pattern.sorted_letters():
                sub = pattern.without_letter(*letter)
                if sub.is_trivial:
                    continue
                assert sub in result
                assert result[sub] >= result[pattern]

    @settings(max_examples=60, deadline=None)
    @given(series=series_strategy(4, 30), period=PERIODS, conf=CONFS)
    def test_counts_match_definition(self, series, period, conf):
        if not _usable(series, period):
            return
        result = mine_single_period_hitset(series, period, conf)
        threshold = min_count(conf, series.num_periods(period))
        for pattern, count in result.items():
            assert count == count_pattern(series, pattern)
            assert count >= threshold

    @settings(max_examples=60, deadline=None)
    @given(series=series_strategy(4, 30), period=PERIODS, conf=CONFS)
    def test_completeness_no_frequent_pattern_missed(self, series, period, conf):
        if not _usable(series, period):
            return
        result = mine_single_period_hitset(series, period, conf)
        oracle = brute_force_frequent(series, period, conf)
        assert set(result) == set(oracle)

    @settings(max_examples=40, deadline=None)
    @given(series=series_strategy(4, 24), period=PERIODS, conf=CONFS)
    def test_tree_conservation(self, series, period, conf):
        # Segments whose hit holds >= 2 letters are each registered exactly
        # once: total tree hits equals that segment count.
        if not _usable(series, period):
            return
        from repro.core.errors import MiningError
        from tests.reference import build_hit_tree

        try:
            tree, one = build_hit_tree(series, period, conf)
        except MiningError:
            return  # empty F1: nothing to check
        expected = sum(
            1
            for segment in series.segments(period)
            if len(segment_letters(segment) & tree.max_pattern.letters) >= 2
        )
        assert tree.total_hits == expected

    @settings(max_examples=40, deadline=None)
    @given(series=series_strategy(4, 24), period=PERIODS, conf=CONFS)
    def test_hit_set_bound_property_3_2(self, series, period, conf):
        if not _usable(series, period):
            return
        from repro.analysis.bounds import hit_set_bound
        from repro.core.maxpattern import find_frequent_one_patterns

        one = find_frequent_one_patterns(series, period, conf)
        result = mine_single_period_hitset(series, period, conf)
        assert result.stats.hit_set_size <= hit_set_bound(
            one.num_periods, len(one.letters)
        )


def _random_series(rng: random.Random) -> FeatureSeries:
    """A small random series with occasional empty and 2-feature slots."""
    length = rng.randint(6, 36)
    alphabet = "abcd"
    slots = [
        {feature for feature in alphabet if rng.random() < 0.35}
        for _ in range(length)
    ]
    return FeatureSeries(slots)


class TestEncodedPathEquivalence:
    """The tentpole invariant: every mining path is one miner.

    Every trial draws a fresh series/period/threshold and checks that the
    bitmask paths (hit-set scans, mmap'd store files, apriori levels, the
    facade's ``workers=`` keyword, incremental signature replay, shared
    multi-period scans)
    return *exactly* the patterns and counts of a letter-set Apriori
    reference and of the exhaustive oracle.
    """

    TRIALS = 200

    def test_random_series_encoded_equals_legacy_equals_oracle(self, tmp_path):
        from repro.core.counting import vocabulary_of_series
        from tests.reference import mine_mapped

        rng = random.Random(0x1999)
        for trial in range(self.TRIALS):
            # Every tenth trial is wide: past 64 letters, with no store.
            wide = trial % 10 == 9
            series = wide_series(trial) if wide else _random_series(rng)
            period = rng.randint(2, 5)
            if wide:
                assert len(vocabulary_of_series(series, period)) > 64
            conf = rng.choice([0.2, 0.34, 0.5, 0.75, 1.0])
            oracle = brute_force_frequent(series, period, conf)
            hitset = mine_single_period_hitset(series, period, conf)
            apriori = mine_single_period_apriori(series, period, conf)
            assert dict(hitset.items()) == oracle
            assert dict(apriori.items()) == oracle
            assert letter_set_apriori(series, period, conf) == oracle
            if not wide:
                mapped = mine_mapped(series, period, conf, tmp_path)
                assert dict(mapped.items()) == oracle

    def test_random_series_merged_shards_equal_oracle(self):
        """``mine(p, workers=n)`` is ``mine(p)``: the keyword is accepted for
        old callers, validated, and changes nothing — on packed (<= 64
        letters) and wide series alike."""
        from repro.core.miner import PartialPeriodicMiner
        from repro.core.counting import vocabulary_of_series

        rng = random.Random(0x4211)
        for trial in range(self.TRIALS):
            wide = trial % 10 == 9
            series = wide_series(trial) if wide else _random_series(rng)
            period = rng.randint(2, 5)
            assert (len(vocabulary_of_series(series, period)) > 64) == wide
            conf = rng.choice([0.25, 0.5, 0.75])
            oracle = brute_force_frequent(series, period, conf)
            miner = PartialPeriodicMiner(series, min_conf=conf)
            serial = miner.mine(period)
            assert dict(serial.items()) == oracle
            for workers in (1, 2, 4):
                result = miner.mine(period, workers=workers)
                assert dict(result.items()) == oracle
                assert result.num_periods == serial.num_periods
                assert result.stats.scans == serial.stats.scans
                assert result.engine is None
        with pytest.raises(MiningError, match="workers"):
            PartialPeriodicMiner("abcabc", min_conf=0.5).mine(3, workers=0)

    def test_random_series_incremental_and_shared_paths(self):
        from repro.core.incremental import IncrementalHitSetMiner

        rng = random.Random(0x77AA)
        for _ in range(self.TRIALS):
            series = _random_series(rng)
            period = rng.randint(2, 5)
            conf = rng.choice([0.25, 0.5, 1.0])
            oracle = brute_force_frequent(series, period, conf)

            # Streaming signatures, replayed through mask remapping.
            incremental = IncrementalHitSetMiner(period, min_conf=conf)
            whole = series.num_periods(period) * period
            incremental.extend(series[:whole])
            assert dict(incremental.mine().items()) == oracle

            # Shared two-scan multi-period mining.
            encoded = mine_periods_shared(series, [period], conf)
            assert dict(encoded[period].items()) == oracle


class TestExtensionInvariants:
    @settings(max_examples=30, deadline=None)
    @given(series=series_strategy(4, 24), conf=CONFS)
    def test_constraints_equal_post_filter(self, series, conf):
        from repro.core.constraints import MiningConstraints, mine_with_constraints

        period = 3
        if not _usable(series, period):
            return
        constraints = MiningConstraints(
            offsets=frozenset({0, 2}), max_letters=3
        )
        constrained = mine_with_constraints(series, period, conf, constraints)
        plain = mine_single_period_hitset(series, period, conf)
        expected = {
            pattern: count
            for pattern, count in plain.items()
            if constraints.satisfied_by(pattern)
        }
        assert dict(constrained.items()) == expected

    @settings(max_examples=25, deadline=None)
    @given(series=series_strategy(8, 32), conf=CONFS)
    def test_window_results_equal_slice_mining(self, series, conf):
        from repro.analysis.evolution import mine_windows

        period = 2
        total = series.num_periods(period)
        if total < 4:
            return
        windows = mine_windows(
            series, period, conf, window_periods=2, step_periods=2
        )
        for window in windows:
            direct = mine_single_period_hitset(
                series[window.start_slot:window.end_slot], period, conf
            )
            assert dict(window.result.items()) == dict(direct.items())

    @settings(max_examples=30, deadline=None)
    @given(series=series_strategy(4, 24), conf=CONFS)
    def test_significance_scores_every_pattern(self, series, conf):
        from repro.analysis.significance import score_result

        period = 2
        if not _usable(series, period):
            return
        result = mine_single_period_hitset(series, period, conf)
        scores = score_result(series, result)
        assert len(scores) == len(result)
        for item in scores:
            assert 0.0 <= item.p_value <= 1.0
            assert item.confidence >= 0.0

    @settings(max_examples=30, deadline=None)
    @given(series=series_strategy(4, 24), conf=CONFS)
    def test_hitset_max_letters_cap_is_exact_prefix(self, series, conf):
        period = 3
        if not _usable(series, period):
            return
        capped = mine_single_period_hitset(
            series, period, conf, max_letters=2
        )
        full = mine_single_period_hitset(series, period, conf)
        expected = {
            pattern: count
            for pattern, count in full.items()
            if pattern.letter_count <= 2
        }
        assert dict(capped.items()) == expected
