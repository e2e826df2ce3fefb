"""Unit tests for the incremental miner (repro.core.incremental)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from hypothesis import given, settings

from repro.core.errors import MiningError, StreamError
from repro.core.hitset import mine_single_period_hitset
from repro.core.incremental import IncrementalHitSetMiner, SegmentPartial
from repro.core.pattern import Pattern
from repro.streaming.retirement import DecrementRetirement
from repro.timeseries.feature_series import FeatureSeries

from tests.conftest import series_strategy
from tests.reference import decrement_state_v1


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
    """Format-1 ``state`` with one inconsistency of the named kind."""
    partial = state["partial"]
    signatures = partial["signatures"]
    letter_counts = partial["letter_counts"]
    if case == "mask-past-letters":
        signatures[0][0] = 1 << len(partial["letters"])
    elif case == "negative-mask":
        signatures[0][0] = -1
    elif case == "zero-mask":
        signatures[0][0] = 0
    elif case == "zero-count":
        signatures[0][1] = 0
    elif case == "negative-count":
        signatures[0][1] = -1
    elif case == "counts-above-num-periods":
        partial["num_periods"] = sum(count for _, count in signatures) - 1
    elif case == "letter-counts-disagree":
        letter_counts[0][2] += 1
    elif case == "letter-not-in-vocabulary":
        letter_counts[0][1] = "zz"
    elif case == "zero-letter-count":
        letter_counts[0][2] = 0
    elif case == "letter-count-above-num-periods":
        letter_counts[0][2] = partial["num_periods"] + 1
    return state


#: What a format-1 state whose stored counters are not its ring's raises.
NOT_DERIVED = "not the ones its ring derives"


def _retirement(period, segments):
    retirement = DecrementRetirement(period)
    for segment in segments:
        retirement.absorb(tuple(frozenset(slot) for slot in segment))
    return retirement


def _restored(state, period):
    retirement = DecrementRetirement(period)
    retirement.restore(json.loads(json.dumps(state)))
    return retirement


def _format1(retirement, period):
    state = json.loads(json.dumps(retirement.to_state()))
    return decrement_state_v1(state, period)


class TestStateRestore:
    def retirement(self):
        segments = ("ab", "ab", "cb", "ad", "  ")
        return _retirement(2, [[s.strip() for s in seg] for seg in segments])

    def test_round_trip_mines_identically(self):
        retirement = self.retirement()
        for state in (retirement.to_state(), _format1(retirement, 2)):
            restored = _restored(state, 2)
            assert restored.to_state() == retirement.to_state()
            assert dict(restored.mine(0.25).items()) == dict(
                retirement.mine(0.25).items()
            )

    @pytest.mark.parametrize(
        "case, corruption",
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
    def test_inconsistent_state_refused(self, case, corruption):
        # ``corruption`` says how the stored counters are wrong; one
        # comparison with the counters the ring derives refuses them all.
        state = _corrupt(_format1(self.retirement(), 2), case)
        with pytest.raises(StreamError, match=NOT_DERIVED):
            _restored(state, 2)

    def test_letter_counts_moved_between_letters_refused(self):
        # The totals still agree: only a letter-by-letter check sees it.
        state = _format1(_retirement(2, ["ab", "ab", "ab", "cd"]), 2)
        rows = state["partial"]["letter_counts"]
        counts = {(row[0], row[1]): row for row in rows}
        counts[0, "a"][2] -= 1
        counts[0, "c"][2] += 1
        with pytest.raises(StreamError, match=NOT_DERIVED):
            _restored(state, 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_every_letter_checked_over_wide_vocabularies(self, seed):
        rng = np.random.default_rng(seed)
        retirement = _retirement(
            5,
            [
                [
                    [f"f{i}" for i in range(30) if rng.random() < 0.15]
                    for _ in range(5)
                ]
                for _ in range(40)
            ],
        )
        state = _format1(retirement, 5)
        _restored(state, 5)
        rows = state["partial"]["letter_counts"]
        gains, loses = rng.choice(
            [i for i, row in enumerate(rows) if row[2] > 1], 2, replace=False
        )
        rows[gains][2] += 1
        rows[loses][2] -= 1
        with pytest.raises(StreamError, match=NOT_DERIVED):
            _restored(state, 5)

    @pytest.mark.parametrize(
        "case, match",
        [
            ("mask-past-letters", "outside the 4-letter vocabulary"),
            ("negative-mask", "outside the 4-letter vocabulary"),
            ("repeated-letter", "repeats a letter"),
            ("offset-past-the-period", "out of range for period 2"),
        ],
    )
    def test_corrupt_state_refused(self, case, match):
        state = json.loads(json.dumps(self.retirement().to_state()))
        assert len(state["letters"]) == 4
        if case == "mask-past-letters":
            state["ring"][0] = 1 << 4
        elif case == "negative-mask":
            state["ring"][0] = -1
        elif case == "repeated-letter":
            # A, B, A, D reads as a 3-letter vocabulary: every bit after
            # the repeat would change its meaning.
            state["letters"][2] = state["letters"][0]
        elif case == "offset-past-the-period":
            state["letters"][1][0] = 2
        fresh = DecrementRetirement(2)
        with pytest.raises(StreamError, match=match):
            fresh.restore(state)
        assert fresh.retained == 0  # a refused state loads nothing

    def test_from_masks_derives_the_counters(self):
        partial = SegmentPartial(2)
        masks = [
            partial.absorb(tuple(frozenset(s.strip()) for s in symbols))
            for symbols in ("ab", "ab", "cb", "ad", "  ")
        ]
        rebuilt = SegmentPartial.from_masks(2, partial.vocab, masks)
        assert rebuilt.num_periods == partial.num_periods == 5
        assert dict(rebuilt.signature_items()) == dict(partial.signature_items())
        for letter in partial.vocab:
            assert rebuilt.letter_count(letter) == partial.letter_count(letter)
        with pytest.raises(MiningError, match="outside the 4-letter"):
            SegmentPartial.from_masks(2, partial.vocab, [*masks, 1 << 4])
