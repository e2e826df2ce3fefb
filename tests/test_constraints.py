"""Unit tests for constraint-based mining (repro.core.constraints)."""

from __future__ import annotations

import pytest

from repro.core.constraints import MiningConstraints, mine_with_constraints
from repro.core.counting import brute_force_frequent
from repro.core.errors import MiningError
from repro.core.counting import vocabulary_of_series
from repro.core.hitset import mine_single_period_hitset
from repro.core.pattern import Pattern
from repro.timeseries.feature_series import FeatureSeries
from repro.timeseries.scan import ScanCountingSeries
from tests.reference import packed_series, wide_series


@pytest.fixture
def series():
    # Period 4: a@0 (always), b@1 (3/4), c@2 (always), b@3 (1/2).
    slots = []
    for index in range(20):
        slots.append({"a"})
        slots.append({"b"} if index % 4 else set())
        slots.append({"c"})
        slots.append({"b"} if index % 2 else set())
    return FeatureSeries(slots)


class TestConstraintObject:
    def test_defaults_admit_everything(self):
        constraints = MiningConstraints()
        assert constraints.admits_letter((0, "x"))
        assert constraints.satisfied_by(Pattern.from_string("x*"))

    def test_offsets(self):
        constraints = MiningConstraints(offsets=frozenset({0, 2}))
        assert constraints.admits_letter((0, "a"))
        assert not constraints.admits_letter((1, "a"))

    def test_forbidden_features(self):
        constraints = MiningConstraints(forbidden_features=frozenset({"b"}))
        assert not constraints.admits_letter((1, "b"))
        assert constraints.admits_letter((1, "a"))

    def test_size_caps(self):
        constraints = MiningConstraints(max_letters=2, max_l_length=1)
        assert constraints.within_size_caps(Pattern.from_string("{a,b}*"))
        assert not constraints.within_size_caps(Pattern.from_string("ab"))

    def test_required_features(self):
        constraints = MiningConstraints.about("a")
        assert constraints.satisfied_by(Pattern.from_string("ab"))
        assert not constraints.satisfied_by(Pattern.from_string("*b"))

    def test_min_letters(self):
        constraints = MiningConstraints(min_letters=2)
        assert not constraints.satisfied_by(Pattern.from_string("a*"))
        assert constraints.satisfied_by(Pattern.from_string("ab"))

    def test_validation(self):
        with pytest.raises(MiningError):
            MiningConstraints(max_letters=0)
        with pytest.raises(MiningError):
            MiningConstraints(max_l_length=0)
        with pytest.raises(MiningError):
            MiningConstraints(min_letters=0)
        with pytest.raises(MiningError):
            MiningConstraints(min_letters=3, max_letters=2)


class TestConstrainedMining:
    def test_unconstrained_equals_plain_hitset(self, series):
        constrained = mine_with_constraints(
            series, 4, 0.5, MiningConstraints()
        )
        plain = mine_single_period_hitset(series, 4, 0.5)
        assert dict(constrained.items()) == dict(plain.items())

    def test_constrained_is_exact_subset(self, series):
        constraints = MiningConstraints(
            offsets=frozenset({0, 1}), max_letters=2
        )
        constrained = mine_with_constraints(series, 4, 0.5, constraints)
        plain = mine_single_period_hitset(series, 4, 0.5)
        expected = {
            pattern: count
            for pattern, count in plain.items()
            if constraints.satisfied_by(pattern)
        }
        assert dict(constrained.items()) == expected
        assert len(constrained) < len(plain)

    def test_offsets_pushed_into_cmax(self, series):
        result = mine_with_constraints(
            series, 4, 0.5, MiningConstraints(offsets=frozenset({2}))
        )
        assert set(map(str, result)) == {"**c*"}

    def test_forbidden_features_pruned(self, series):
        result = mine_with_constraints(
            series, 4, 0.5,
            MiningConstraints(forbidden_features=frozenset({"b"})),
        )
        assert all("b" not in str(pattern) for pattern in result)
        assert Pattern.from_string("a*c*") in result

    def test_required_features_post_filter_keeps_exact_counts(self, series):
        result = mine_with_constraints(
            series, 4, 0.5, MiningConstraints.about("b")
        )
        assert result
        for pattern, count in result.items():
            assert any("b" in slot for slot in pattern.positions)
            from repro.core.counting import count_pattern

            assert count == count_pattern(series, pattern)

    def test_max_letters_caps_output(self, series):
        result = mine_with_constraints(
            series, 4, 0.5, MiningConstraints(max_letters=1)
        )
        assert result
        assert all(pattern.letter_count == 1 for pattern in result)

    def test_max_l_length_exact(self, series):
        result = mine_with_constraints(
            series, 4, 0.5, MiningConstraints(max_l_length=2)
        )
        assert result.max_l_length <= 2
        # a*c* (L-length 2) must survive the cap.
        assert Pattern.from_string("a*c*") in result

    def test_still_two_scans(self, series):
        scan = ScanCountingSeries(series)
        mine_with_constraints(
            scan, 4, 0.5, MiningConstraints(offsets=frozenset({0, 2}))
        )
        assert scan.scans == 2

    def test_empty_admissible_letters_one_scan(self, series):
        scan = ScanCountingSeries(series)
        result = mine_with_constraints(
            scan, 4, 0.5,
            MiningConstraints(forbidden_features=frozenset({"a", "b", "c"})),
        )
        assert len(result) == 0
        assert scan.scans == 1

    def test_offset_out_of_range_rejected(self, series):
        scan = ScanCountingSeries(series)
        with pytest.raises(MiningError, match="out of range"):
            mine_with_constraints(
                scan, 4, 0.5, MiningConstraints(offsets=frozenset({4}))
            )
        assert scan.scans == 0

    def test_bad_conf_rejected(self, series):
        with pytest.raises(MiningError):
            mine_with_constraints(series, 4, 0.0, MiningConstraints())


class TestConstrainedEquivalence:
    """Push-down mining equals brute force followed by the full filter."""

    @pytest.mark.parametrize("shape", ["packed", "wide"])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_brute_force_then_filter(self, shape, seed):
        series = packed_series(seed) if shape == "packed" else wide_series(seed)
        period = 3
        wide = len(vocabulary_of_series(series, period)) > 64
        assert wide == (shape == "wide")
        first = sorted(series.alphabet)[0]
        cases = [
            MiningConstraints(),
            MiningConstraints(
                offsets=frozenset({0, 2}),
                forbidden_features=frozenset({first}),
            ),
            MiningConstraints(max_letters=2),
        ]
        for min_conf in (0.2, 0.5):
            oracle = brute_force_frequent(series, period, min_conf)
            for constraints in cases:
                expected = {
                    pattern: count
                    for pattern, count in oracle.items()
                    if constraints.satisfied_by(pattern)
                }
                result = mine_with_constraints(
                    series, period, min_conf, constraints
                )
                assert dict(result.items()) == expected, (min_conf, constraints)
