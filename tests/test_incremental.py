"""Unit tests for the incremental miner (repro.core.incremental)."""

from __future__ import annotations

import numpy as np
import pytest

from hypothesis import given, settings

from repro.core.errors import MiningError
from repro.core.hitset import mine_single_period_hitset
from repro.core.incremental import IncrementalHitSetMiner, SegmentPartial
from repro.core.pattern import Pattern
from repro.timeseries.feature_series import FeatureSeries

from tests.conftest import series_strategy


class TestIngestion:
    def test_segments_complete_every_period(self):
        miner = IncrementalHitSetMiner(3)
        miner.extend("ab")
        assert miner.num_periods == 0
        assert miner.pending_slots == 2
        miner.append("c")
        assert miner.num_periods == 1
        assert miner.pending_slots == 0

    def test_extend_accepts_series_and_strings(self):
        miner = IncrementalHitSetMiner(2)
        miner.extend(FeatureSeries.from_symbols("abab"))
        miner.extend("ab")
        assert miner.num_periods == 3

    def test_trailing_partial_segment_excluded(self, paper_series):
        miner = IncrementalHitSetMiner(5)
        miner.extend(paper_series)  # length 12: 2 whole + 2 pending
        assert miner.num_periods == 2
        assert miner.pending_slots == 2

    def test_empty_slots_accepted(self):
        miner = IncrementalHitSetMiner(2)
        miner.extend([None, "", {"a"}, {"a"}])
        assert miner.num_periods == 2

    def test_distinct_signatures_deduplicate(self):
        miner = IncrementalHitSetMiner(2)
        miner.extend("abababab")
        assert miner.num_periods == 4
        assert miner.distinct_signatures == 1

    def test_bad_period(self):
        with pytest.raises(MiningError):
            IncrementalHitSetMiner(0)

    def test_repr(self):
        assert "pending=0" in repr(IncrementalHitSetMiner(2))


class TestMining:
    def test_matches_batch_miner(self, paper_series):
        miner = IncrementalHitSetMiner(3, min_conf=0.5)
        miner.extend(paper_series)
        incremental = miner.mine()
        batch = mine_single_period_hitset(paper_series, 3, 0.5)
        assert dict(incremental.items()) == dict(batch.items())

    def test_matches_batch_after_chunked_feeding(self, synthetic_small):
        miner = IncrementalHitSetMiner(10)
        series = synthetic_small.series
        for start in range(0, len(series), 7):  # deliberately odd chunks
            miner.extend(series[start : start + 7])
        min_conf = synthetic_small.recommended_min_conf
        incremental = miner.mine(min_conf)
        whole = (len(series) // 10) * 10
        batch = mine_single_period_hitset(series[:whole], 10, min_conf)
        assert dict(incremental.items()) == dict(batch.items())

    def test_remine_at_different_thresholds(self, paper_series):
        miner = IncrementalHitSetMiner(3)
        miner.extend(paper_series)
        strict = miner.mine(1.0)
        relaxed = miner.mine(0.5)
        assert set(strict) < set(relaxed)
        assert Pattern.from_string("abd") in relaxed

    def test_mining_continues_after_more_data(self):
        miner = IncrementalHitSetMiner(2, min_conf=0.8)
        miner.extend("abab")
        assert Pattern.from_string("a*") in miner.mine()
        miner.extend("cdcdcdcdcdcdcdcd")  # the regime changes
        result = miner.mine()
        assert Pattern.from_string("c*") in result
        assert Pattern.from_string("a*") not in result

    def test_max_letters_cap(self):
        miner = IncrementalHitSetMiner(3, min_conf=0.9)
        miner.extend("abcabcabc")
        capped = miner.mine(max_letters=2)
        assert capped.max_letter_count == 2

    def test_mine_before_any_segment(self):
        miner = IncrementalHitSetMiner(3)
        miner.extend("ab")
        with pytest.raises(MiningError):
            miner.mine()

    def test_empty_f1(self):
        miner = IncrementalHitSetMiner(2)
        miner.extend("abcdefgh")
        assert len(miner.mine(1.0)) == 0

    @settings(max_examples=30, deadline=None)
    @given(series=series_strategy(4, 30))
    def test_property_incremental_equals_batch(self, series):
        period = 3
        if len(series) < period:
            return
        miner = IncrementalHitSetMiner(period)
        miner.extend(series)
        whole = (len(series) // period) * period
        for conf in (0.34, 0.75):
            incremental = miner.mine(conf)
            batch = mine_single_period_hitset(series[:whole], period, conf)
            assert dict(incremental.items()) == dict(batch.items())


class TestSegmentPartial:
    def segment(self, symbols):
        return tuple(frozenset(s) if s else frozenset() for s in symbols)

    def test_absorb_returns_exact_retirement_mask(self):
        partial = SegmentPartial(2)
        mask = partial.absorb(self.segment("ab"))
        assert partial.num_periods == 1
        partial.retire(mask)
        assert partial.num_periods == 0
        assert partial.distinct_signatures == 0
        assert partial.letter_count((0, "a")) == 0

    def test_retire_restores_prior_mining_state(self):
        partial = SegmentPartial(2)
        for _ in range(3):
            partial.absorb(self.segment("ab"))
        before = dict(partial.mine(0.5).items())
        mask = partial.absorb(self.segment("cd"))
        partial.retire(mask)
        assert dict(partial.mine(0.5).items()) == before

    def test_retire_unknown_mask_rejected(self):
        partial = SegmentPartial(2)
        partial.absorb(self.segment("ab"))
        with pytest.raises(MiningError, match="only be retired once"):
            partial.retire(0b1000000)

    def test_retire_empty_partial_rejected(self):
        with pytest.raises(MiningError, match="no segment left"):
            SegmentPartial(2).retire(0)

    def test_retire_same_mask_twice_rejected(self):
        partial = SegmentPartial(2)
        mask = partial.absorb(self.segment("ab"))
        partial.absorb(self.segment("cd"))
        partial.retire(mask)
        with pytest.raises(MiningError):
            partial.retire(mask)

    def test_empty_segment_roundtrip(self):
        partial = SegmentPartial(2)
        mask = partial.absorb(self.segment(["", ""]))
        assert mask == 0
        assert partial.num_periods == 1
        partial.retire(mask)
        assert partial.num_periods == 0

    def test_wrong_segment_length_rejected(self):
        with pytest.raises(MiningError, match="does not match"):
            SegmentPartial(3).absorb(self.segment("ab"))

    def test_shared_vocab_period_mismatch_rejected(self):
        from repro.encoding.vocabulary import LetterVocabulary

        with pytest.raises(MiningError, match="period"):
            SegmentPartial(3, vocab=LetterVocabulary(period=2))


def _corrupt(state, case):
    """``state`` with one inconsistency of the named kind."""
    signatures = state["signatures"]
    letter_counts = state["letter_counts"]
    if case == "mask-past-letters":
        signatures[0][0] = 1 << len(state["letters"])
    elif case == "negative-mask":
        signatures[0][0] = -1
    elif case == "zero-mask":
        signatures[0][0] = 0
    elif case == "zero-count":
        signatures[0][1] = 0
    elif case == "negative-count":
        signatures[0][1] = -1
    elif case == "counts-above-num-periods":
        state["num_periods"] = sum(count for _, count in signatures) - 1
    elif case == "letter-counts-disagree":
        letter_counts[0][2] += 1
    elif case == "letter-not-in-vocabulary":
        letter_counts[0][1] = "zz"
    elif case == "zero-letter-count":
        letter_counts[0][2] = 0
    elif case == "letter-count-above-num-periods":
        letter_counts[0][2] = state["num_periods"] + 1
    return state


class TestStateRestore:
    def partial(self):
        partial = SegmentPartial(2)
        for symbols in ("ab", "ab", "cb", "ad", "  "):
            partial.absorb(
                tuple(frozenset(s.strip()) for s in symbols)
            )
        return partial

    def test_round_trip_mines_identically(self):
        partial = self.partial()
        restored = SegmentPartial.from_state(partial.to_state())
        assert restored.to_state() == partial.to_state()
        assert dict(restored.mine(0.25).items()) == dict(
            partial.mine(0.25).items()
        )

    @pytest.mark.parametrize(
        "case, match",
        [
            ("mask-past-letters", "outside the 4-letter vocabulary"),
            ("negative-mask", "outside the 4-letter vocabulary"),
            ("zero-mask", "outside the 4-letter vocabulary"),
            ("zero-count", "signature has a count below 1"),
            ("negative-count", "signature has a count below 1"),
            ("counts-above-num-periods", "more than num_periods"),
            ("letter-counts-disagree", "letter counts sum to"),
            ("letter-not-in-vocabulary", "not in the vocabulary"),
            ("zero-letter-count", "letter has a count below 1"),
            ("letter-count-above-num-periods", "above num_periods 5"),
        ],
    )
    def test_inconsistent_state_refused(self, case, match):
        state = _corrupt(self.partial().to_state(), case)
        with pytest.raises(MiningError, match=match):
            SegmentPartial.from_state(state)

    def test_letter_counts_moved_between_letters_refused(self):
        # The totals still agree: only a letter-by-letter check sees it.
        partial = SegmentPartial(2)
        for symbols in ("ab", "ab", "ab", "cd"):
            partial.absorb(tuple(frozenset(s) for s in symbols))
        state = partial.to_state()
        counts = {(row[0], row[1]): row for row in state["letter_counts"]}
        counts[0, "a"][2] -= 1
        counts[0, "c"][2] += 1
        with pytest.raises(MiningError, match=r"sum to 2 at \(0, 'a'\)"):
            SegmentPartial.from_state(state)

    @pytest.mark.parametrize("seed", range(6))
    def test_every_letter_checked_over_wide_vocabularies(self, seed):
        rng = np.random.default_rng(seed)
        partial = SegmentPartial(5)
        for _ in range(40):
            partial.absorb(
                tuple(
                    frozenset(
                        f"f{i}" for i in range(30) if rng.random() < 0.15
                    )
                    for _ in range(5)
                )
            )
        SegmentPartial.from_state(partial.to_state())
        state = partial.to_state()
        rows = state["letter_counts"]
        gains, loses = rng.choice(
            [i for i, row in enumerate(rows) if row[2] > 1], 2, replace=False
        )
        rows[gains][2] += 1
        rows[loses][2] -= 1
        with pytest.raises(MiningError, match="letter counts sum to"):
            SegmentPartial.from_state(state)
