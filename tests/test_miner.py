"""Unit tests for the PartialPeriodicMiner facade (repro.core.miner)."""

from __future__ import annotations

import pytest

from repro.core.errors import MiningError
from repro.core.miner import ALGORITHMS, PartialPeriodicMiner
from repro.core.pattern import Pattern


class TestConstruction:
    def test_accepts_symbol_string(self):
        miner = PartialPeriodicMiner("abab", min_conf=0.9)
        assert len(miner.series) == 4

    def test_accepts_slot_iterable(self):
        miner = PartialPeriodicMiner([{"a"}, {"b"}], min_conf=0.9)
        assert miner.series.alphabet == frozenset({"a", "b"})

    def test_rejects_bad_conf(self):
        with pytest.raises(MiningError):
            PartialPeriodicMiner("ab", min_conf=0.0)

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(MiningError):
            PartialPeriodicMiner("ab", algorithm="fft")

    def test_algorithms_constant(self):
        assert set(ALGORITHMS) == {"hitset", "apriori"}


class TestMine:
    def test_default_algorithm(self, paper_series):
        miner = PartialPeriodicMiner(paper_series, min_conf=0.9)
        result = miner.mine(3)
        assert result.algorithm == "hitset"
        assert sorted(map(str, result)) == ["*b*", "a**", "ab*"]

    def test_algorithm_override(self, paper_series):
        miner = PartialPeriodicMiner(paper_series, min_conf=0.9)
        result = miner.mine(3, algorithm="apriori")
        assert result.algorithm == "apriori"
        assert sorted(map(str, result)) == ["*b*", "a**", "ab*"]

    def test_conf_override(self, paper_series):
        miner = PartialPeriodicMiner(paper_series, min_conf=0.9)
        relaxed = miner.mine(3, min_conf=0.5)
        assert Pattern.from_string("abd") in relaxed

    def test_unknown_algorithm_at_call(self, paper_series):
        miner = PartialPeriodicMiner(paper_series)
        with pytest.raises(MiningError):
            miner.mine(3, algorithm="nope")

    def test_apriori_rejects_store_options(self, paper_series, tmp_path):
        from repro.kernels.store import StoreOptions

        miner = PartialPeriodicMiner(paper_series, algorithm="apriori")
        with pytest.raises(MiningError, match="apriori"):
            miner.mine(3, store=StoreOptions(str(tmp_path), spill_bytes=0))
        with pytest.raises(MiningError, match="apriori"):
            PartialPeriodicMiner(paper_series).mine(
                3, algorithm="apriori", store=StoreOptions(str(tmp_path))
            )
        assert not list(tmp_path.iterdir())

    def test_mine_maximal(self, paper_series):
        miner = PartialPeriodicMiner(paper_series, min_conf=0.5)
        maximal = miner.mine_maximal(3)
        assert set(map(str, maximal)) == {"abd", "abc"}


class TestRanges:
    def test_mine_range_shared(self, synthetic_small):
        miner = PartialPeriodicMiner(
            synthetic_small.series,
            min_conf=synthetic_small.recommended_min_conf,
        )
        outcome = miner.mine_range(8, 12)
        assert outcome.periods == [8, 9, 10, 11, 12]
        assert synthetic_small.planted_pattern in outcome[10]

    def test_mine_periods_explicit(self, paper_series):
        miner = PartialPeriodicMiner(paper_series, min_conf=0.5)
        shared = miner.mine_periods([3, 6])
        looping = miner.mine_periods([3, 6], shared=False)
        for period in (3, 6):
            assert dict(shared[period].items()) == dict(looping[period].items())

    def test_mine_range_honours_algorithm_when_looping(self, paper_series):
        miner = PartialPeriodicMiner(paper_series, min_conf=0.5, algorithm="apriori")
        ranged = miner.mine_range(3, 4, shared=False)
        explicit = miner.mine_periods([3, 4], shared=False)
        assert ranged.algorithm == explicit.algorithm == "looping[apriori]"
        for period in (3, 4):
            assert ranged[period].algorithm == "apriori"
            assert dict(ranged[period].items()) == dict(explicit[period].items())

    def test_suggest_periods_finds_planted(self, synthetic_small):
        miner = PartialPeriodicMiner(
            synthetic_small.series,
            min_conf=synthetic_small.recommended_min_conf,
        )
        suggestions = miner.suggest_periods(5, 15, limit=3)
        assert suggestions[0].period == 10

    def test_repr(self, paper_series):
        miner = PartialPeriodicMiner(paper_series)
        assert "PartialPeriodicMiner" in repr(miner)


class TestConstrainedFacade:
    def test_mine_constrained_matches_module_function(self, paper_series):
        from repro.core.constraints import MiningConstraints, mine_with_constraints

        miner = PartialPeriodicMiner(paper_series, min_conf=0.5)
        constraints = MiningConstraints(max_letters=2)
        via_facade = miner.mine_constrained(3, constraints)
        direct = mine_with_constraints(paper_series, 3, 0.5, constraints)
        assert dict(via_facade.items()) == dict(direct.items())
        assert via_facade.max_letter_count <= 2
