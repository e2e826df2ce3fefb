"""Tests for repro.streaming: windows, arrival buffer, retirement, engine.

The centerpiece is the randomized equivalence sweep: every window a
:class:`StreamingMiner` emits must carry *exactly* the patterns that
batch-mining that window's slice produces — for a live miner and for one
restored from its persisted state after every window, for window sizes
the period does not divide, and for events arriving out of order through
the :class:`ArrivalBuffer`.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.errors import StreamError
from repro.core.hitset import mine_single_period_hitset
from repro.streaming import (
    ArrivalBuffer,
    DecrementRetirement,
    LateEventReport,
    StreamingMiner,
    WindowResult,
    WindowSpec,
    window_to_dict,
)
from repro.streaming.buffer import MAX_LATE_SAMPLES
from repro.timeseries.feature_series import FeatureSeries

from tests.reference import decrement_state_v1

ALPHABET = ["a", "b", "c", "d"]

#: How the equivalence cases drive the decrement retirement: ``decrement``
#: keeps it live, so its delta-maintained tree carries across windows;
#: ``restored`` round-trips it through its persisted (JSON) state after
#: every window, so each window mines from a tree rebuilt out of that
#: state — the path checkpoint resume and serve rehydration take.
PATHS = ("decrement", "restored")


def random_series(
    seed: int, length: int, period: int, empty_ok: bool = True
) -> FeatureSeries:
    """A random series with a planted periodic bias so patterns survive."""
    rng = random.Random(seed)
    slots = []
    for i in range(length):
        slot = set()
        # Planted structure: position i % period leans toward one letter.
        if rng.random() < 0.7:
            slot.add(ALPHABET[i % period % len(ALPHABET)])
        if rng.random() < 0.3:
            slot.add(rng.choice(ALPHABET))
        if not slot and not empty_ok:
            slot.add(rng.choice(ALPHABET))
        slots.append(slot)
    return FeatureSeries(slots)


def batch_window(
    series: FeatureSeries, start: int, end: int, period: int, min_conf: float
):
    """The batch oracle: mine one window's slice from scratch."""
    return mine_single_period_hitset(
        FeatureSeries(list(series)[start:end]), period, min_conf
    )


def feed(
    miner: StreamingMiner, slots, path: str
) -> tuple[StreamingMiner, list[WindowResult]]:
    """Feed ``slots`` along ``path``; returns the (possibly restored)
    miner and the windows it emitted."""
    windows = []
    for slot in slots:
        window = miner.append(slot)
        if window is None:
            continue
        windows.append(window)
        if path == "restored":
            state = json.loads(json.dumps(miner.to_state()))
            miner = StreamingMiner.from_state(state)
    return miner, windows


def assert_equivalent(
    series: FeatureSeries, miner: StreamingMiner, path: str
) -> int:
    """Feed the whole series; assert every window equals its batch mine."""
    _, windows = feed(miner, series, path)
    for window in windows:
        oracle = batch_window(
            series,
            window.start_slot,
            window.end_slot,
            miner.spec.period,
            0.5,
        )
        assert dict(window.result.items()) == dict(oracle.items()), (
            f"window {window.index} [{window.start_slot}:{window.end_slot}) "
            f"diverged from batch ({path})"
        )
        assert window.result.num_periods == oracle.num_periods
    return len(windows)


class TestWindowSpec:
    def test_rejects_bad_geometry(self):
        with pytest.raises(StreamError):
            WindowSpec(period=0, size=4, slide=4)
        with pytest.raises(StreamError):
            WindowSpec(period=5, size=4, slide=5)
        with pytest.raises(StreamError):
            WindowSpec(period=2, size=4, slide=0)

    def test_slide_must_be_period_multiple(self):
        with pytest.raises(StreamError, match="multiple"):
            WindowSpec(period=4, size=8, slide=6)

    def test_window_algebra(self):
        spec = WindowSpec(period=5, size=23, slide=10)
        assert spec.segments_per_window == 4
        assert spec.start_slot(3) == 30
        assert spec.end_slot(3) == 53
        assert spec.start_segment(3) == 6
        assert spec.emit_at(0) == 23
        assert spec.emit_at(1) == 33


class TestArrivalBuffer:
    def test_rejects_bad_parameters(self):
        with pytest.raises(StreamError):
            ArrivalBuffer(slot_width=0)
        with pytest.raises(StreamError):
            ArrivalBuffer(slot_width=1.0, lateness=-1)
        with pytest.raises(StreamError):
            ArrivalBuffer(slot_width=1.0).add(0.0, "")

    @pytest.mark.parametrize("feature", ["a,b", "}", "{", "*", "x*"])
    def test_rejects_reserved_pattern_characters(self, feature):
        buffer = ArrivalBuffer(slot_width=1.0)
        with pytest.raises(StreamError, match="reserved pattern character"):
            buffer.add(0.5, feature)
        assert buffer.watermark is None
        assert buffer.flush() == []

    def test_watermark_none_before_any_event(self):
        buffer = ArrivalBuffer(slot_width=1.0, lateness=2.0)
        assert buffer.watermark is None
        assert buffer.drain() == []
        buffer.add(5.0, "a")
        assert buffer.watermark == 3.0

    def test_in_order_events_drain_in_slot_order(self):
        buffer = ArrivalBuffer(slot_width=1.0)
        for when, feature in [(0.2, "a"), (0.7, "b"), (1.1, "c"), (2.0, "d")]:
            assert buffer.add(when, feature)
        # Watermark (lateness 0) has passed slots 0 and 1.
        assert buffer.drain() == [frozenset({"a", "b"}), frozenset({"c"})]
        assert buffer.flush() == [frozenset({"d"})]
        assert buffer.report.clean

    def test_empty_slots_come_back_as_gaps(self):
        buffer = ArrivalBuffer(slot_width=1.0)
        buffer.add(0.5, "a")
        buffer.add(3.5, "b")
        assert buffer.drain() == [
            frozenset({"a"}),
            frozenset(),
            frozenset(),
        ]

    def test_event_behind_watermark_is_quarantined(self):
        buffer = ArrivalBuffer(slot_width=1.0, lateness=1.0)
        buffer.add(0.5, "a")
        buffer.add(4.0, "b")
        assert buffer.drain() == [
            frozenset({"a"}),
            frozenset(),
            frozenset(),
        ]
        # Slot 1 is sealed; an event addressed to it must not mutate it.
        assert not buffer.add(1.5, "late")
        report = buffer.report
        assert report.total == 1
        assert report.per_feature == {"late": 1}
        assert "late" in report.samples[0].describe()
        assert not report.clean

    def test_pre_origin_events_are_quarantined(self):
        buffer = ArrivalBuffer(slot_width=1.0, start=10.0)
        assert not buffer.add(9.5, "a")
        assert buffer.report.total == 1

    def test_lateness_window_admits_stragglers(self):
        buffer = ArrivalBuffer(slot_width=1.0, lateness=3.0)
        buffer.add(4.0, "a")
        # 1.5 trails the max by 2.5 < lateness: still admitted.
        assert buffer.add(1.5, "b")
        assert buffer.drain() == [frozenset()]  # only slot 0 sealed
        assert buffer.open_slots == 2

    def test_report_samples_are_capped(self):
        report = LateEventReport()
        buffer = ArrivalBuffer(slot_width=1.0, lateness=0.0, report=report)
        buffer.add(100.0, "a")
        buffer.drain()  # seal everything below the watermark
        for i in range(MAX_LATE_SAMPLES + 7):
            buffer.add(float(i % 50), "x")
        assert report.total == MAX_LATE_SAMPLES + 7
        assert len(report.samples) == MAX_LATE_SAMPLES
        assert report.to_dict()["total"] == report.total

    def test_repr_mentions_quarantine(self):
        buffer = ArrivalBuffer(slot_width=1.0)
        buffer.add(2.0, "a")
        buffer.drain()
        buffer.add(0.0, "b")
        assert "quarantined=1" in repr(buffer)


def round_trip(
    retirement: DecrementRetirement, period: int
) -> DecrementRetirement:
    """A fresh retirement restored from ``retirement``'s JSON state."""
    restored = DecrementRetirement(period)
    restored.restore(json.loads(json.dumps(retirement.to_state())))
    return restored


class TestRetirementStrategies:
    def test_unknown_strategy_rejected(self):
        miner = StreamingMiner(period=3, window=6)
        miner.extend("abcabcabc")
        state = miner.to_state()
        state["strategy"]["name"] = "lru"
        with pytest.raises(StreamError, match="unknown retirement"):
            StreamingMiner.from_state(state)

    @pytest.mark.parametrize("path", PATHS)
    def test_retire_validation(self, path):
        retirement = DecrementRetirement(period=2)
        retirement.absorb((frozenset({"a"}), frozenset({"b"})))
        if path == "restored":
            retirement = round_trip(retirement, 2)
        with pytest.raises(StreamError):
            retirement.retire(-1)
        with pytest.raises(StreamError, match="only 1 retained"):
            retirement.retire(2)
        retirement.retire(1)
        assert retirement.retained == 0

    @pytest.mark.parametrize(
        "ring",
        [
            "one-mask-replaced",  # ab, ab, ab: cd's mask is gone
            "empty-for-a-mask",  # ab, <empty>, ab: 3 masks, 2 signatures
            "mask-for-the-empty",  # ab, cd, ab, ab: the empty one is a mask
        ],
    )
    def test_ring_must_match_the_signatures(self, ring):
        retirement = DecrementRetirement(period=2)
        for segment in ("ab", "cd", "ab", "  "):
            retirement.absorb(tuple(frozenset(s.strip()) for s in segment))
        state = decrement_state_v1(
            json.loads(json.dumps(retirement.to_state())), period=2
        )
        ab, cd, _, empty = state["ring"]
        assert empty == 0
        state["ring"] = {
            "one-mask-replaced": [ab, ab, ab, empty],
            "empty-for-a-mask": [ab, 0, ab, empty],
            "mask-for-the-empty": [ab, cd, ab, ab],
        }[ring]
        fresh = DecrementRetirement(period=2)
        with pytest.raises(StreamError, match="not the ones its ring derives"):
            fresh.restore(state)
        assert fresh.retained == 0  # a refused state loads nothing

    @pytest.mark.parametrize("path", PATHS)
    def test_interleaved_absorb_retire_stays_exact(self, path):
        series = random_series(seed=3, length=60, period=3)
        segments = [
            tuple(list(series)[i : i + 3])
            for i in range(0, len(series), 3)
        ]
        retirement = DecrementRetirement(period=3)
        low = 0
        for high, segment in enumerate(segments):
            retirement.absorb(segment)
            if high >= 6:  # slide a 7-segment window along
                retirement.retire(1)
                low += 1
            if high % 3 == 2:
                if path == "restored":
                    retirement = round_trip(retirement, 3)
                got = retirement.mine(0.5)
                window = [s for seg in segments[low : high + 1] for s in seg]
                oracle = mine_single_period_hitset(
                    FeatureSeries(window), 3, 0.5
                )
                assert dict(got.items()) == dict(oracle.items())
                assert got.num_periods == oracle.num_periods

    def test_decrement_reuses_tree_when_f1_stable(self):
        retirement = DecrementRetirement(period=2)
        for _ in range(4):
            retirement.absorb((frozenset({"a"}), frozenset({"b"})))
        retirement.mine(0.5)
        first_table = retirement._table
        retirement.absorb((frozenset({"a"}), frozenset({"b", "c"})))
        retirement.retire(1)
        retirement.mine(0.5)
        # Same F1 letter set {a, b}: the table was delta-updated in place.
        assert retirement._table is first_table


class TestStreamingEngine:
    def test_slide_defaults_to_tumbling(self):
        miner = StreamingMiner(period=2, window=6)
        assert miner.spec.slide == 6

    def test_rejects_non_aligned_slide(self):
        with pytest.raises(StreamError, match="multiple"):
            StreamingMiner(period=3, window=9, slide=4)

    @pytest.mark.parametrize("feature", ["a,b", "}", "{", "*"])
    def test_rejects_reserved_pattern_characters(self, feature):
        miner = StreamingMiner(period=2, window=4)
        with pytest.raises(StreamError, match="reserved pattern character"):
            miner.append(["a", feature])
        assert miner.slots_seen == 0
        assert miner.extend([["a"], ["b"], ["a"], ["b"]])[0].index == 0

    def test_emits_at_window_boundaries(self):
        miner = StreamingMiner(period=2, window=4, slide=2)
        emitted = miner.extend("ababab")
        assert [w.index for w in emitted] == [0, 1]
        assert [(w.start_slot, w.end_slot) for w in emitted] == [
            (0, 4),
            (2, 6),
        ]
        assert emitted[0].is_first
        assert not emitted[1].is_first

    def test_first_window_has_no_changes(self):
        miner = StreamingMiner(period=2, window=4)
        [first] = miner.extend("abab")
        assert first.changes is None
        [second] = miner.extend("acac")
        assert second.changes is not None
        assert not second.changes.is_stable

    def test_confidence_accessor(self):
        miner = StreamingMiner(period=2, window=4, min_conf=0.5)
        [window] = miner.extend("abab")
        (pattern, count), *_ = sorted(window.result.items())
        assert window.confidence(pattern) == count / 2

    def test_retained_state_is_bounded_by_window(self):
        miner = StreamingMiner(period=5, window=25, slide=5)
        cap = miner.spec.segments_per_window
        for slot in random_series(seed=1, length=300, period=5):
            miner.append(slot)
            assert miner.retained_segments <= cap

    def test_gap_windows_skip_unmined_segments(self):
        # slide 20 > size 12: slots [12, 20) of every stride are never
        # mined; their segments must not linger in the retirement.
        series = random_series(seed=2, length=100, period=4)
        miner = StreamingMiner(period=4, window=12, slide=20)
        windows = miner.extend(series)
        assert [w.start_slot for w in windows] == [0, 20, 40, 60, 80]
        assert miner.retained_segments == 0
        for window in windows:
            oracle = batch_window(
                series, window.start_slot, window.end_slot, 4, 0.5
            )
            assert dict(window.result.items()) == dict(oracle.items())

    def test_snapshot_and_repr(self):
        miner = StreamingMiner(period=2, window=4)
        miner.extend("abab")
        snapshot = miner.snapshot()
        assert snapshot["strategy"] == "decrement"
        assert snapshot["windows_emitted"] == 1
        assert snapshot["last_window"]["num_periods"] == 2
        assert "windows=1" in repr(miner)

    def test_window_to_dict_schema(self):
        miner = StreamingMiner(period=2, window=4, slide=2)
        first, second = miner.extend("ababac")
        payload = window_to_dict(first)
        assert payload["changes"] is None
        assert payload["num_periods"] == 2
        for row in payload["patterns"]:
            assert set(row) == {"pattern", "count", "confidence"}
        payload = window_to_dict(second)
        assert set(payload["changes"]) == {
            "emerged", "vanished", "strengthened", "weakened", "stable",
        }


GEOMETRIES = [
    (5, 25, 25),  # tumbling, aligned
    (5, 23, 10),  # overlapping, window not a multiple of the period
    (5, 50, 5),   # heavily overlapping
    (5, 12, 20),  # slide past the window: gaps
    (3, 7, 3),    # small, non-dividing
]


class TestStreamBatchEquivalence:
    """The headline invariant, across seeds, paths and geometries."""

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_geometries(self, path, geometry):
        period, window, slide = geometry
        series = random_series(seed=17, length=160, period=period)
        miner = StreamingMiner(
            period=period,
            window=window,
            slide=slide,
            min_conf=0.5,
        )
        assert assert_equivalent(series, miner, path) > 1

    @pytest.mark.parametrize("path", PATHS)
    def test_twenty_seeds(self, path):
        for seed in range(20):
            period, window, slide = GEOMETRIES[seed % len(GEOMETRIES)]
            series = random_series(seed=seed, length=120, period=period)
            miner = StreamingMiner(
                period=period,
                window=window,
                slide=slide,
                min_conf=0.5,
            )
            count = assert_equivalent(series, miner, path)
            assert count >= 1, f"seed {seed} emitted no windows"

    @pytest.mark.parametrize("path", PATHS)
    def test_out_of_order_arrival(self, path):
        """Locally shuffled events, reordered by the buffer, stay exact."""
        period, window, slide = 5, 23, 10
        series = random_series(
            seed=23, length=100, period=period, empty_ok=False
        )
        events = [
            (i + 0.5, feature)
            for i, slot in enumerate(series)
            for feature in sorted(slot)
        ]
        # Shuffle within blocks: displacement stays under the lateness.
        rng = random.Random(99)
        block = 8
        shuffled = []
        for start in range(0, len(events), block):
            chunk = events[start : start + block]
            rng.shuffle(chunk)
            shuffled.extend(chunk)
        buffer = ArrivalBuffer(slot_width=1.0, lateness=float(block))
        miner = StreamingMiner(period=period, window=window, slide=slide)
        windows = []
        for when, feature in shuffled:
            assert buffer.add(when, feature)
            miner, emitted = feed(miner, buffer.drain(), path)
            windows.extend(emitted)
        windows.extend(feed(miner, buffer.flush(), path)[1])
        assert buffer.report.clean
        assert len(windows) >= 2
        for emitted in windows:
            oracle = batch_window(
                series, emitted.start_slot, emitted.end_slot, period, 0.5
            )
            assert dict(emitted.result.items()) == dict(oracle.items())
            assert emitted.result.num_periods == oracle.num_periods


class TestEvolutionRebase:
    def test_mine_windows_matches_slice_mining(self):
        from repro.analysis.evolution import mine_windows

        series = random_series(seed=31, length=90, period=3)
        windows = mine_windows(
            series, period=3, min_conf=0.5, window_periods=5, step_periods=2
        )
        assert windows, "sweep emitted no windows"
        for window in windows:
            oracle = batch_window(
                series, window.start_slot, window.end_slot, 3, 0.5
            )
            assert dict(window.result.items()) == dict(oracle.items())
