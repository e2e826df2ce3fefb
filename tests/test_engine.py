"""Single-process mining: the guarantees that replaced the sharded engine.

Mining runs in one process (see DESIGN.md, "Mining is single-process").
This module keeps the test names of the sharded engine's suite it
replaces; each class now pins the in-process behaviour that took over
its job:

* ``TestPartition`` — how a series splits into whole period segments, the
  unit every scan, store row and cache entry works on;
* ``TestPicklability`` — series and segment stores still pickle exactly;
* ``TestTreeMerge`` — the max-subpattern tree is order-independent and
  exact against the brute-force oracle;
* ``TestExecutor`` — the one remaining worker pool, the serve app's,
  answers every mine exactly and survives failing requests;
* ``TestWorkerKernels`` — store-level letter and hit counts equal the
  tree's;
* ``TestEquivalence`` / ``TestMultiPeriod`` / ``TestEngineStats`` — the
  facade's retained ``workers=`` keyword changes nothing, and every
  result carries ``engine=None``;
* ``TestChaosEquivalence`` — faults injected into mining's disk paths
  (store builds and file writes, concurrent cache persists, request
  deadlines) never change a result.
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import random
import threading

import numpy as np
import pytest

from repro.core.apriori import mine_single_period_apriori
from repro.core.counting import brute_force_counts, brute_force_frequent, min_count
from repro.core.errors import MiningError, ReproError, ServeError
from repro.core.hitset import mine_single_period_hitset
from repro.core.miner import PartialPeriodicMiner
from repro.core.multiperiod import mine_periods_looping
from repro.core.pattern import Pattern
from repro.core.serialize import dumps_result
from repro.durability import FileChaosConfig
from repro.kernels import store as store_module
from repro.kernels.cache import CountCache
from repro.kernels.store import SegmentStore
from repro.serve import MiningApp, Request, ServeConfig
from repro.synth.generator import generate_series
from repro.timeseries.feature_series import FeatureSeries
from repro.timeseries.scan import ScanCountingSeries
from repro.tree.max_subpattern_tree import MaxSubpatternTree
from tests.reference import mine_mapped

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def random_series(seed: int, length: int = 60) -> FeatureSeries:
    """A small random series with empty slots and multi-feature slots."""
    rng = random.Random(seed)
    alphabet = ["a", "b", "c", "d"]
    slots = []
    for _ in range(length):
        slots.append({f for f in alphabet if rng.random() < 0.35})
    return FeatureSeries(slots)


def assert_same_result(mined, serial):
    """Letter-for-letter equality of the mining payloads."""
    assert dict(mined.items()) == dict(serial.items())
    assert mined.period == serial.period
    assert mined.num_periods == serial.num_periods
    assert mined.stats.scans == serial.stats.scans
    assert mined.stats.tree_nodes == serial.stats.tree_nodes
    assert mined.stats.hit_set_size == serial.stats.hit_set_size


def mine_request(series: str, period: int, min_conf: float) -> Request:
    """A parsed ``POST /mine`` for the serve app."""
    body = {"series": series, "period": period, "min_conf": min_conf}
    return Request(method="POST", path="/mine", body=json.dumps(body).encode())


# ---------------------------------------------------------------------------
# Segmentation
# ---------------------------------------------------------------------------


class TestPartition:
    def test_plan_chunks_even_split(self):
        series = FeatureSeries.from_symbols("abcabdabcabd")
        segments = list(series.segments(3))
        assert series.num_periods(3) == len(segments) == 4
        assert all(len(segment) == 3 for segment in segments)
        assert len(SegmentStore.from_series(series, 3)) == 4

    def test_plan_chunks_uneven_split_differs_by_at_most_one(self):
        # 11 slots at period 4: two whole segments, the 3-slot tail is
        # not a segment and never changes what is mined.
        series = random_series(5, length=11)
        assert series.num_periods(4) == 2
        assert_same_result(
            mine_single_period_hitset(series, 4, 0.5),
            mine_single_period_hitset(series[:8], 4, 0.5),
        )

    def test_plan_chunks_clips_to_segments(self):
        series = FeatureSeries.from_symbols("abc")
        assert series.num_periods(3) == 1
        assert list(series.segments(3)) == [series.slots]

    def test_plan_chunks_chunk_size(self, tmp_path, monkeypatch):
        # A store is built in chunks of segments; any chunk size yields
        # the same rows, in memory and mmap'd back from its file.
        series = random_series(6, length=70)
        expected = list(SegmentStore.from_series(series, 5))
        for rows in (1, 3, 7):
            monkeypatch.setattr(store_module, "_BUILD_SLOTS", rows * 5)
            built = SegmentStore.from_series(series, 5)
            mapped = SegmentStore.from_file(built.to_file(tmp_path / f"{rows}.seg"))
            assert mapped.mapped
            assert list(built) == list(mapped) == expected

    def test_plan_chunks_rejects_both_knobs(self):
        miner = PartialPeriodicMiner("abcabc", min_conf=0.5)
        for workers in (0, -1):
            with pytest.raises(MiningError, match="workers"):
                miner.mine(3, workers=workers)

    def test_shards_cover_series_in_order(self):
        series = random_series(1, length=35)
        rebuilt = []
        for segment in series.segments(5):
            rebuilt.extend(segment)
        m = series.num_periods(5)
        assert tuple(rebuilt) == series.slots[: m * 5]

    def test_shard_carries_only_its_chunk(self):
        series = random_series(2, length=40)
        store = SegmentStore.from_series(series, 4)
        assert len(store) == series.num_periods(4)
        for mask, segment in zip(store, series.segments(4)):
            letters = store.vocab.decode_mask(mask)
            assert {offset for offset, _ in letters} <= set(range(4))
            assert len(letters) == sum(len(slot) for slot in segment)

    def test_too_short_series_rejected(self):
        with pytest.raises(ReproError):
            PartialPeriodicMiner("ab", min_conf=0.5).mine(3)


# ---------------------------------------------------------------------------
# Pickling
# ---------------------------------------------------------------------------


class TestPicklability:
    def test_feature_series_roundtrip(self):
        series = random_series(3)
        clone = pickle.loads(pickle.dumps(series))
        assert clone == series
        assert clone.slots == series.slots

    def test_segment_shard_roundtrip(self, tmp_path):
        series = random_series(4, 30)
        built = SegmentStore.from_series(series, 3)
        for store in (
            built,
            SegmentStore.from_file(built.to_file(tmp_path / "shard.seg")),
        ):
            clone = pickle.loads(pickle.dumps(store))
            assert list(clone) == list(store)
            assert clone.vocab.letters == store.vocab.letters
            assert clone.mapped == store.mapped

    def test_sliced_series_is_independent(self):
        series = FeatureSeries.from_symbols("abdabcabd")
        chunk = series[3:6]
        assert chunk.slots == series.slots[3:6]
        assert isinstance(chunk, FeatureSeries)
        assert not hasattr(series, "slice_segments")


# ---------------------------------------------------------------------------
# The max-subpattern tree against the brute-force oracle
# ---------------------------------------------------------------------------


def _cmax_of(series: FeatureSeries, period: int, min_conf: float) -> Pattern:
    threshold = min_count(min_conf, series.num_periods(period))
    letters = SegmentStore.from_series(series, period).letter_counts()
    f1 = {k: v for k, v in letters.items() if v >= threshold}
    if not f1:
        pytest.skip("degenerate seed: empty F1")
    return Pattern.from_letters(period, f1)


class TestTreeMerge:
    def test_merge_equals_whole_series_tree(self):
        # Bulk-inserting the store's hit table builds the same tree as
        # inserting segment by segment.
        series = random_series(11, length=48)
        cmax = _cmax_of(series, 4, 0.4)
        whole = MaxSubpatternTree(cmax)
        whole.insert_all_segments(series)
        bulk = MaxSubpatternTree(cmax)
        hits = SegmentStore.from_series(series, 4).project_hits(bulk.vocab)
        for mask, count in hits.items():
            bulk.insert_mask(mask, count)
        assert bulk.total_hits == whole.total_hits
        assert bulk.hit_counts() == whole.hit_counts()

    def test_merge_against_brute_force_oracle(self):
        series = random_series(12, length=44)
        period = 4
        cmax = _cmax_of(series, period, 0.3)
        tree = MaxSubpatternTree(cmax)
        tree.insert_all_segments(series)
        oracle = brute_force_counts(series, period)
        for letters, count in oracle.items():
            if len(letters) >= 2 and letters <= cmax.letters:
                assert tree.count_of_letters(letters) == count, letters  # repro: ignore[REP701] -- per-pattern oracle probe, not a counting hot path

    def test_merge_is_commutative(self):
        series = random_series(13, length=36)
        cmax = _cmax_of(series, 3, 0.3)
        forward, backward = MaxSubpatternTree(cmax), MaxSubpatternTree(cmax)
        segments = list(series.segments(3))
        forward.insert_all_segments(series)
        backward.insert_all_segments(
            FeatureSeries([slot for segment in reversed(segments) for slot in segment])
        )
        assert forward.hit_counts() == backward.hit_counts()
        assert not hasattr(forward, "insert_segment")

    def test_merge_rejects_different_cmax(self):
        tree = MaxSubpatternTree(Pattern.from_string("ab*"))
        with pytest.raises(ReproError):
            tree.insert(Pattern.from_string("a*c"))

    def test_merge_rejects_self(self):
        tree = MaxSubpatternTree(Pattern.from_string("ab*"))
        with pytest.raises(MiningError):
            tree.insert(Pattern.from_string("ab*"), count=0)
        assert not hasattr(tree, "merge")

    def test_insert_letters_matches_insert(self):
        cmax = Pattern.from_string("a{b1,b2}*d*")
        by_pattern = MaxSubpatternTree(cmax)
        by_letters = MaxSubpatternTree(cmax)
        hit = Pattern.from_string("a{b2}*d*")
        by_pattern.insert(hit, count=3)
        by_letters.insert_letters(hit.letters, count=3)
        assert by_pattern.hit_counts() == by_letters.hit_counts()


# ---------------------------------------------------------------------------
# The serve worker pool — the one place mining runs on a pool
# ---------------------------------------------------------------------------


class TestExecutor:
    @pytest.mark.parametrize(
        "backend",
        [ServeConfig(concurrency=1), ServeConfig(concurrency=3),
         ServeConfig(concurrency=2)],
    )
    def test_map_preserves_order(self, backend):
        series = random_series(40, length=84)
        app = MiningApp(backend)
        app.registry.add("s", series)
        periods = [3, 4, 6, 7, 3, 4, 6]
        try:
            async def storm():
                return await asyncio.gather(
                    *(app.handle(mine_request("s", p, 0.3)) for p in periods)
                )

            responses = asyncio.run(storm())
        finally:
            app.close()
        for (status, payload), period in zip(responses, periods):
            assert status == 200
            expected = mine_single_period_hitset(series, period, 0.3)
            assert payload["result"]["period"] == period
            assert {
                (row["pattern"], row["count"])
                for row in payload["result"]["patterns"]
            } == {(str(p), c) for p, c in expected.items()}

    def test_failed_shard_raises_after_serial_retry(self):
        # A mine that fails on the worker thread is answered 400 with the
        # miner's own message.
        app = MiningApp(ServeConfig(concurrency=2))
        app.registry.add("s", random_series(41, length=20))
        try:
            status, payload = asyncio.run(app.handle(mine_request("s", 4, 1.5)))
        finally:
            app.close()
        assert status == 400
        assert "min_conf" in payload["error"]

    def test_process_failure_degrades_to_serial_retry(self):
        # A failed request does not poison the pool: the next mine on the
        # same app is exact.
        series = random_series(42, length=60)
        app = MiningApp(ServeConfig(concurrency=1))
        app.registry.add("s", series)
        try:
            bad, _ = asyncio.run(app.handle(mine_request("s", 0, 0.5)))
            good, payload = asyncio.run(app.handle(mine_request("s", 4, 0.4)))
        finally:
            app.close()
        assert bad == 400 and good == 200
        expected = mine_single_period_hitset(series, 4, 0.4)
        assert len(payload["result"]["patterns"]) == len(expected)

    def test_resolve_backend_auto(self):
        miner = PartialPeriodicMiner(random_series(43), min_conf=0.4)
        assert_same_result(miner.mine(3), miner.mine(3, workers=1))
        assert ServeConfig().concurrency >= 1

    def test_resolve_backend_rejects_unknown(self):
        miner = PartialPeriodicMiner("abcabc", min_conf=0.5)
        with pytest.raises(TypeError):
            miner.mine(3, backend="thread")  # type: ignore[call-arg]
        with pytest.raises(TypeError):
            ServeConfig(mine_workers=2)  # type: ignore[call-arg]
        with pytest.raises(ServeError):
            MiningApp(ServeConfig(concurrency=0))


# ---------------------------------------------------------------------------
# Store-level counts
# ---------------------------------------------------------------------------


class TestWorkerKernels:
    def test_shard_letter_counts_sum_to_serial(self):
        series = random_series(21, length=50)
        period = 5
        cut = 4 * period
        whole = SegmentStore.from_series(series, period).letter_counts()
        left = SegmentStore.from_series(series[:cut], period).letter_counts()
        right = SegmentStore.from_series(series[cut:], period).letter_counts()
        assert left + right == whole

    def test_hit_masks_match_tree_hits(self):
        series = random_series(22, length=60)
        period = 4
        cmax = _cmax_of(series, period, 0.3)
        reference = MaxSubpatternTree(cmax)
        reference.insert_all_segments(series)
        hits = SegmentStore.from_series(series, period).project_hits(
            reference.vocab
        )
        assert hits == reference.stored_hits()


# ---------------------------------------------------------------------------
# The retained workers= keyword changes nothing
# ---------------------------------------------------------------------------

EQUIVALENCE_SEEDS = list(range(16))
PLANTED_SEEDS = list(range(100, 106))


def _series_for(seed: int) -> tuple[FeatureSeries, int, float]:
    if seed >= 100:
        generated = generate_series(1200, 8, 3, f1_size=5, seed=seed)
        return generated.series, 8, 0.5
    return random_series(seed, length=50 + 3 * seed), 4, 0.35


def _oracle(series: FeatureSeries, period: int, min_conf: float) -> dict:
    if len(series) <= 200:
        return brute_force_frequent(series, period, min_conf)
    return dict(mine_single_period_apriori(series, period, min_conf).items())


class TestEquivalence:
    @pytest.mark.parametrize("seed", EQUIVALENCE_SEEDS + PLANTED_SEEDS)
    @pytest.mark.parametrize("workers", [1, 2, 4, 7])
    def test_workers_match_serial(self, seed, workers):
        series, period, min_conf = _series_for(seed)
        serial = mine_single_period_hitset(series, period, min_conf)
        mined = PartialPeriodicMiner(series, min_conf=min_conf).mine(
            period, workers=workers
        )
        assert_same_result(mined, serial)
        assert dict(mined.items()) == _oracle(series, period, min_conf)
        assert mined.engine is None

    @pytest.mark.parametrize("seed", EQUIVALENCE_SEEDS[:8])
    @pytest.mark.parametrize("chunk_size", [1, 3, 5])
    def test_chunk_sizes_match_serial(
        self, seed, chunk_size, tmp_path, monkeypatch
    ):
        # Store mining builds in chunks of any size exactly, mmap'd back
        # from the store's file.
        series, period, min_conf = _series_for(seed)
        monkeypatch.setattr(store_module, "_BUILD_SLOTS", chunk_size * period)
        serial = mine_single_period_hitset(series, period, min_conf)
        mapped = mine_mapped(series, period, min_conf, tmp_path)
        assert dict(mapped.items()) == dict(serial.items())
        assert mapped.num_periods == serial.num_periods

    def test_uneven_chunking_matches_serial(self):
        # 13 segments plus a 3-slot tail.
        series = random_series(31, length=13 * 4 + 3)
        serial = mine_single_period_hitset(series, 4, 0.3)
        mined = PartialPeriodicMiner(series, min_conf=0.3).mine(4, workers=7)
        assert_same_result(mined, serial)
        assert mined.num_periods == 13

    @pytest.mark.parametrize("seed", [0, 7, 104])
    def test_process_backend_matches_serial(self, seed):
        # What crosses a process boundary — the pickled series — mines
        # exactly like the original.
        series, period, min_conf = _series_for(seed)
        serial = mine_single_period_hitset(series, period, min_conf)
        shipped = pickle.loads(pickle.dumps(series))
        mined = PartialPeriodicMiner(shipped, min_conf=min_conf).mine(
            period, workers=2
        )
        assert_same_result(mined, serial)

    def test_empty_f1_matches_serial(self):
        series = FeatureSeries.from_symbols("abcdefgh")
        serial = mine_single_period_hitset(series, 2, 1.0)
        mined = PartialPeriodicMiner(series, min_conf=1.0).mine(2, workers=2)
        assert len(mined) == len(serial) == 0
        assert mined.stats.scans == serial.stats.scans == 1

    def test_max_letters_cap_matches_serial(self):
        series, period, min_conf = _series_for(103)
        full = mine_single_period_hitset(series, period, min_conf)
        capped = mine_single_period_hitset(
            series, period, min_conf, max_letters=2
        )
        assert dict(capped.items()) == {
            pattern: count
            for pattern, count in full.items()
            if pattern.letter_count <= 2
        }

    def test_invalid_inputs_mirror_serial_errors(self):
        with pytest.raises(MiningError):
            mine_single_period_hitset(
                FeatureSeries.from_symbols("abcabc"), 3, 0.5, max_letters=0
            )
        with pytest.raises(MiningError):
            PartialPeriodicMiner("abcabc", min_conf=0.0)
        with pytest.raises(MiningError):
            PartialPeriodicMiner("abcabc", min_conf=0.5).mine(3, workers=0)

    def test_merge_of_tree_shards_is_deterministic(self):
        series, period, min_conf = _series_for(102)
        miner = PartialPeriodicMiner(series, min_conf=min_conf)
        documents = {
            dumps_result(miner.mine(period, workers=w)) for w in (2, 3, 5)
        }
        assert len(documents) == 1


# ---------------------------------------------------------------------------
# Multi-period mining and result accounting
# ---------------------------------------------------------------------------


class TestMultiPeriod:
    def test_period_range_matches_looping(self):
        series, _, min_conf = _series_for(101)
        looping = mine_periods_looping(series, range(2, 11), min_conf)
        shared = PartialPeriodicMiner(series, min_conf=min_conf).mine_range(2, 10)
        assert shared.periods == looping.periods
        for period in looping.periods:
            assert dict(shared[period].items()) == dict(
                looping[period].items()
            ), period
        assert shared.scans == 2
        assert not hasattr(shared, "engine")

    def test_facade_workers_route_through_engine(self):
        miner = PartialPeriodicMiner("abdabcabdabc", min_conf=0.9)
        serial = miner.mine(3)
        mined = miner.mine(3, workers=2)
        assert dict(mined.items()) == dict(serial.items())
        assert mined.engine is None and serial.engine is None

    def test_facade_rejects_parallel_apriori(self):
        # workers= no longer selects an engine, so Apriori takes it too.
        miner = PartialPeriodicMiner("abcabdabcabd", algorithm="apriori")
        assert dict(miner.mine(3, workers=2).items()) == dict(
            miner.mine(3).items()
        )


class TestEngineStats:
    def test_slots_scanned_covers_two_passes(self):
        series, period, min_conf = _series_for(105)
        counted = ScanCountingSeries(series)
        result = PartialPeriodicMiner(counted, min_conf=min_conf).mine(
            period, workers=4
        )
        assert result.stats.scans == counted.scans == 2

    def test_stats_record_backend_and_shards(self):
        miner = PartialPeriodicMiner("abdabcabdabc", min_conf=0.9)
        for result in (miner.mine(3), miner.mine(3, workers=2)):
            assert result.engine is None
            assert result.stats.scans == 2

    def test_merge_trees_requires_input(self):
        # The helpers only the sharded engine called are gone.
        assert not hasattr(MaxSubpatternTree, "merge")
        assert not hasattr(FeatureSeries, "slice_segments")


# ---------------------------------------------------------------------------
# Faults on mining's disk paths never change results
# ---------------------------------------------------------------------------

CHAOS_SEEDS = list(range(14)) + [100, 101, 102, 103, 104, 105]


class _WriteCrash(RuntimeError):
    """A crash injected into a store file write mid-rows."""


class _CrashingRows(np.ndarray):
    """Store rows whose file write stops after ``crash_at`` rows."""

    crash_at = 0

    def tofile(self, handle, *args, **kwargs):
        np.asarray(self)[: self.crash_at].tofile(handle)
        handle.flush()
        raise _WriteCrash(f"injected crash at row {self.crash_at}")


class TestChaosEquivalence:
    """Injected crashes on the write paths leave results unchanged."""

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_crashy_run_matches_serial(self, seed, tmp_path):
        # Crash a store's to_file at a seeded row, after part of the rows
        # reached the temp file: nothing is published, no temp file
        # remains, and the rerun through the store's file is exact.
        series, period, min_conf = random_series(seed, 40 + seed % 50), 4, 0.35
        serial = mine_single_period_hitset(series, period, min_conf)
        store = SegmentStore.from_series(series, period)
        rows = store.rows().view(_CrashingRows)
        rows.crash_at = random.Random(seed).randrange(len(store))
        crashing = SegmentStore(store.vocab, period, rows)
        with pytest.raises(_WriteCrash):
            crashing.to_file(tmp_path / f"p{period}.seg")
        assert list(tmp_path.iterdir()) == []
        rerun = mine_mapped(series, period, min_conf, tmp_path)
        assert dict(rerun.items()) == dict(serial.items())

    @pytest.mark.parametrize("seed", CHAOS_SEEDS[:6])
    def test_chaotic_thread_pool_matches_serial(self, seed, tmp_path):
        # Racing threads persist the same count-cache entry; a fresh cache
        # over the directory answers warm and exactly.
        series, period, min_conf = _series_for(seed)
        serial = mine_single_period_hitset(series, period, min_conf)
        errors: list[BaseException] = []

        def mine_once() -> None:
            try:
                mine_single_period_hitset(
                    series, period, min_conf, cache=CountCache(tmp_path)
                )
            except BaseException as error:  # repro: ignore[REP404] -- collected and re-raised by the asserting thread
                errors.append(error)

        threads = [threading.Thread(target=mine_once) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert not [p for p in tmp_path.iterdir() if ".tmp." in p.name]
        warm = mine_single_period_hitset(
            series, period, min_conf, cache=CountCache(tmp_path)
        )
        assert warm.stats.scans == 0
        assert dict(warm.items()) == dict(serial.items())

    def test_hang_fault_times_out_and_recovers(self, monkeypatch):
        # A mine that overruns its request deadline answers 504; the app
        # keeps serving and the next request is exact.
        series = random_series(3, length=60)
        app = MiningApp(ServeConfig(concurrency=2, request_timeout_s=0.05))
        app.registry.add("s", series)
        release = threading.Event()
        real = app._mine_blocking

        def hanging(*args):
            release.wait(5.0)
            return real(*args)

        try:
            monkeypatch.setattr(app, "_mine_blocking", hanging)
            status, payload = asyncio.run(app.handle(mine_request("s", 4, 0.4)))
            assert status == 504 and payload["reason"] == "deadline"
            release.set()
            monkeypatch.setattr(app, "_mine_blocking", real)
            status, payload = asyncio.run(app.handle(mine_request("s", 3, 0.4)))
        finally:
            release.set()
            app.close()
        assert status == 200
        assert app.counters["timeouts"] == 1
        expected = mine_single_period_hitset(series, 3, 0.4)
        assert len(payload["result"]["patterns"]) == len(expected)

    def test_fault_schedule_is_reproducible(self):
        config = FileChaosConfig(
            seed=42, torn_rate=0.3, truncate_rate=0.2, stale_tmp_rate=0.2
        )
        schedule = [config.fault_for(write) for write in range(48)]
        again = [config.fault_for(write) for write in range(48)]
        assert schedule == again
        assert {"torn", "truncate", "stale-tmp", None} <= set(schedule)

    def test_multiperiod_chaos_matches_serial(self, tmp_path, monkeypatch):
        # Every period's store file fails once at the rename; each
        # failure leaves no temp file and the retried mines equal the
        # shared multi-period run.
        series, min_conf = random_series(101, length=120), 0.3
        shared = PartialPeriodicMiner(series, min_conf=min_conf).mine_range(2, 8)

        real_replace = os.replace
        failed: set[str] = set()

        def flaky_replace(src, dst):
            name = os.path.basename(os.fspath(dst))
            if name.endswith(".seg") and name not in failed:
                failed.add(name)
                raise OSError(f"injected rename failure for {name}")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", flaky_replace)
        for period in shared.periods:
            with pytest.raises(OSError, match="injected"):
                mine_mapped(series, period, min_conf, tmp_path)
            assert not [p for p in tmp_path.iterdir() if ".tmp." in p.name]
            retried = mine_mapped(series, period, min_conf, tmp_path)
            assert dict(retried.items()) == dict(shared[period].items())
