"""Tests for the columnar kernels and the out-of-core SegmentStore.

Store inputs — a prebuilt store (``mine_store``) or a series mined with
``StoreOptions`` — mine on the columnar kernels; in-memory series mine on
the batched ones.  Exactness is the whole contract: across seeds,
periods, and thresholds both paths must produce letter-identical results
to the brute-force oracle and to Apriori — in memory, spilled to disk,
mmap-backed, through the streaming engine, through the mining facade,
and through the CLI.  Wide (> 64-letter) vocabularies mine in memory and
are refused by the store path; the store's on-disk round trip (atomic
writes, sidecar metadata, pickle-by-path) is exercised directly.
"""

from __future__ import annotations

import json
import pickle
import random
import time
from collections import Counter

import numpy as np
import pytest

from repro.core.apriori import mine_single_period_apriori
from repro.core.counting import brute_force_frequent
from repro.core.errors import MiningError
from repro.core.hitset import mine_single_period_hitset, mine_store
from repro.encoding.vocabulary import LetterVocabulary
from repro.kernels.batched import batched_count_masks
from repro.kernels import columnar
from repro.kernels.cache import CountCache
from repro.kernels.profile import MiningProfile
from repro.kernels.store import (
    SegmentStore,
    StoreOptions,
    WideVocabularyError,
)
from repro.streaming import StreamingMiner
from repro.timeseries.feature_series import FeatureSeries
from tests.reference import per_candidate_mine, wide_series


def random_series(seed: int, length: int = 60, features: int = 4) -> FeatureSeries:
    """A small random series with empty and multi-feature slots."""
    rng = random.Random(seed)
    alphabet = [f"f{i}" for i in range(features)]
    return FeatureSeries(
        [{f for f in alphabet if rng.random() < 0.35} for _ in range(length)]
    )


def result_map(result):
    return {pattern.letters: count for pattern, count in result.items()}


class TestColumnarPrimitives:
    """The vectorized kernels against naive recomputation."""

    def make_store(self, seed: int, period: int = 4) -> SegmentStore:
        series = random_series(seed, length=80, features=5)
        return SegmentStore.from_series_interned(series, period)

    @pytest.mark.parametrize("seed", range(5))
    def test_letter_bit_totals_matches_naive(self, seed):
        store = self.make_store(seed)
        column = store.column()
        totals = columnar.letter_bit_totals(column)
        rows = [int(mask) for mask in store]
        for bit in range(64):
            expected = sum(1 for row in rows if row >> bit & 1)
            assert int(totals[bit]) == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_distinct_counts_matches_naive(self, seed):
        store = self.make_store(seed)
        naive = Counter(int(mask) for mask in store)
        assert +columnar.distinct_counts(store.column()) == +naive

    def test_distinct_counts_chunking(self):
        # More rows than one chunk: per-chunk uniques must merge exactly.
        rng = random.Random(7)
        rows = [rng.randrange(1, 32) for _ in range((1 << 16) + 999)]
        vocab = LetterVocabulary(((0, f"f{i}") for i in range(5)), period=1)
        store = SegmentStore(vocab, 1, rows)
        assert +store.distinct_counts() == +Counter(rows)

    @pytest.mark.parametrize("seed", range(5))
    def test_hit_counter_filters_popcount(self, seed):
        store = self.make_store(seed)
        naive = Counter(
            {
                mask: count
                for mask, count in Counter(int(m) for m in store).items()
                if mask.bit_count() >= 2
            }
        )
        assert +store.hit_counter() == +naive

    @pytest.mark.parametrize("seed", range(5))
    def test_count_masks_matches_batched_and_naive(self, seed):
        store = self.make_store(seed)
        rng = random.Random(seed)
        width = len(store.vocab)
        sample = [rng.randrange(1, 1 << width) for _ in range(40)]
        sample += list(store.distinct_counts())[:10]
        sample = [mask for mask in dict.fromkeys(sample) if mask]
        rows = Counter(int(m) for m in store)
        naive = {
            mask: sum(c for row, c in rows.items() if not mask & ~row)
            for mask in sample
        }
        assert store.count_masks(sample) == naive
        assert batched_count_masks(rows.items(), sample) == naive

    def test_as_uint64_zero_copy(self):
        store = self.make_store(0)
        column = store.column()
        converted = columnar.as_uint64(column)
        assert converted.dtype == np.uint64
        assert np.shares_memory(converted, column)


def store_options(tmp_path) -> StoreOptions:
    """Options spilling every store to disk, whatever its size."""
    return StoreOptions(directory=str(tmp_path), spill_bytes=0)


class TestKernelEquivalence:
    """Both counting paths, letter-identical — the exactness gate."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("period", (2, 4, 7))
    def test_all_tiers_match_brute_force(self, seed, period, tmp_path):
        series = random_series(seed, length=70, features=4)
        min_conf = (0.25, 0.5, 0.75)[seed % 3]
        oracle = {
            frozenset(p.letters): c
            for p, c in brute_force_frequent(series, period, min_conf).items()
        }
        in_memory = mine_single_period_hitset(series, period, min_conf)
        spilled = mine_single_period_hitset(
            series, period, min_conf, store=store_options(tmp_path)
        )
        prebuilt = mine_store(
            SegmentStore.from_series_interned(series, period), min_conf
        )
        apriori = mine_single_period_apriori(series, period, min_conf)
        for result in (in_memory, spilled, prebuilt, apriori):
            assert result_map(result) == oracle

    def test_columnar_books_one_scan(self, tmp_path):
        series = random_series(3, length=60)
        store_result = mine_single_period_hitset(
            series, 3, 0.3, store=store_options(tmp_path)
        )
        batched_result = mine_single_period_hitset(series, 3, 0.3)
        assert len(store_result)  # non-degenerate case
        # One interned encode pass serves both scans.
        assert store_result.stats.scans == 1
        assert batched_result.stats.scans == 2

    def test_unknown_kernel_rejected(self):
        # There is one counting path: no call takes a kernel choice.
        with pytest.raises(TypeError, match="kernel"):
            mine_single_period_hitset(random_series(0), 3, 0.5, kernel="numpy")

    def test_columnar_populates_shared_cache(self, tmp_path):
        series = random_series(5, length=60)
        cache = CountCache(str(tmp_path / "cache"))
        first = mine_single_period_hitset(
            series, 4, 0.4, cache=cache, store=store_options(tmp_path)
        )
        assert first.stats.scans == 1
        warm = mine_single_period_hitset(series, 4, 0.4, cache=cache)
        assert result_map(first) == result_map(warm)
        assert warm.stats.scans == 0
        # A warm store-option query answers from the cache too: no encode.
        warm_store = mine_single_period_hitset(
            series, 4, 0.5, cache=cache, store=store_options(tmp_path / "s")
        )
        assert warm_store.stats.scans == 0
        assert not (tmp_path / "s").exists()
        assert result_map(warm_store) == result_map(
            mine_single_period_hitset(series, 4, 0.5)
        )


class TestWideVocabularyFallback:
    """Past 64 letters in-memory mining is exact and stores refuse."""

    @pytest.mark.parametrize("kernel", ("batched", "columnar", "legacy"))
    def test_wide_mining_identical_across_tiers(self, kernel):
        # batched: the production miner; columnar: mine_store over a wide
        # (unpacked) store; legacy: the per-candidate reference derive.
        series = wide_series(11)
        vocab_store = SegmentStore.from_series(series, 3)
        assert not vocab_store.packed
        oracle = {
            frozenset(p.letters): c
            for p, c in brute_force_frequent(series, 3, 0.5).items()
        }
        assert oracle  # the dense letters must survive the threshold
        if kernel == "batched":
            observed = result_map(mine_single_period_hitset(series, 3, 0.5))
        elif kernel == "columnar":
            observed = result_map(mine_store(vocab_store, 0.5))
        else:
            observed = {
                p.letters: c
                for p, c in per_candidate_mine(series, 3, 0.5).items()
            }
        assert observed == oracle

    def test_wide_interning_raises(self):
        with pytest.raises(WideVocabularyError):
            SegmentStore.from_series_interned(wide_series(1), 3)

    def test_wide_store_counts_without_column(self):
        series = wide_series(2)
        from repro.encoding.codec import vocabulary_of_series

        vocab = vocabulary_of_series(series, 3)
        assert len(vocab) > 64
        store = SegmentStore.from_series(series, 3, vocab)
        assert not store.packed
        assert store.column() is None
        naive = Counter(int(mask) for mask in store)
        assert +store.distinct_counts() == +naive
        sample = list(naive)[:8]
        assert store.count_masks(sample) == {
            mask: sum(c for row, c in naive.items() if not mask & ~row)
            for mask in sample
        }
        with pytest.raises(WideVocabularyError):
            store.to_file("unused.seg")

    def test_wide_store_options_fall_back_cleanly(self, tmp_path):
        # Spill options on a wide series fail loudly, naming the letter
        # count, and never write a file.
        series = wide_series(3)
        with pytest.raises(MiningError, match=r"has \d+ letters") as raised:
            mine_single_period_hitset(
                series, 3, 0.5, store=store_options(tmp_path)
            )
        from repro.encoding.codec import vocabulary_of_series

        letters = len(vocabulary_of_series(series, 3))
        assert f"has {letters} letters" in str(raised.value)
        assert isinstance(raised.value.__cause__, WideVocabularyError)
        assert not list(tmp_path.iterdir())


class TestOutOfCoreStore:
    """to_file / from_file / spill: the mmap-backed mining path."""

    def test_file_round_trip_and_sidecar(self, tmp_path):
        store = SegmentStore.from_series_interned(random_series(1), 4)
        path = store.to_file(tmp_path / "demo.seg")
        meta = json.loads((tmp_path / "demo.seg.meta.json").read_text())
        assert meta["format"] == "repro.segstore/1"
        assert meta["segments"] == len(store)
        assert meta["period"] == 4
        mapped = SegmentStore.from_file(path)
        assert mapped.mapped and mapped.path == path
        loaded = SegmentStore.from_file(path, mmap=False)
        assert not loaded.mapped
        for other in (mapped, loaded):
            assert list(other) == list(store)
            assert other.vocab.letters == store.vocab.letters

    def test_mapped_store_pickles_by_path(self, tmp_path):
        store = SegmentStore.from_series_interned(random_series(2), 3)
        path = store.to_file(tmp_path / "p.seg")
        mapped = SegmentStore.from_file(path)
        clone = pickle.loads(pickle.dumps(mapped))
        assert clone.mapped and clone.path == path
        assert list(clone) == list(store)
        # The pickle payload carries the path, not the buffer.
        assert len(pickle.dumps(mapped)) < 600

    def test_spill_threshold(self, tmp_path):
        series = random_series(3, length=120)
        spilled = SegmentStore.from_series_interned(
            series, 4, options=StoreOptions(directory=str(tmp_path), spill_bytes=0)
        )
        assert spilled.mapped and spilled.path is not None
        assert spilled.path.parent == tmp_path
        in_memory = SegmentStore.from_series_interned(series, 4)
        assert list(spilled) == list(in_memory)
        # Below the threshold nothing is written.
        small = SegmentStore.from_series_interned(
            series,
            4,
            options=StoreOptions(directory=str(tmp_path / "x"), spill_bytes=1 << 30),
        )
        assert not small.mapped
        assert not (tmp_path / "x").exists()

    def test_spill_name_is_deterministic(self, tmp_path):
        series = random_series(4, length=80)
        options = StoreOptions(directory=str(tmp_path), spill_bytes=0)
        first = SegmentStore.from_series_interned(series, 3, options=options)
        second = SegmentStore.from_series_interned(series, 3, options=options)
        assert first.path == second.path

    def test_mine_store_matches_in_memory(self, tmp_path):
        series = random_series(5, length=100)
        store = SegmentStore.from_series_interned(series, 4)
        path = store.to_file(tmp_path / "m.seg")
        mapped = SegmentStore.from_file(path)
        from_disk = mine_store(mapped, 0.4)
        reference = mine_single_period_hitset(series, 4, 0.4)
        assert result_map(from_disk) == result_map(reference)
        assert from_disk.stats.scans == 1

    def test_mine_store_rejects_empty(self):
        vocab = LetterVocabulary(((0, "a"),), period=2)
        with pytest.raises(MiningError, match="no segments"):
            mine_store(SegmentStore(vocab, 2, []), 0.5)

    def test_spilled_mine_equals_in_memory(self, tmp_path):
        series = random_series(6, length=150, features=5)
        spilled = mine_single_period_hitset(
            series, 5, 0.3, store=store_options(tmp_path)
        )
        reference = mine_single_period_hitset(series, 5, 0.3)
        assert result_map(spilled) == result_map(reference)
        assert any(p.suffix == ".seg" for p in tmp_path.iterdir())

    def test_store_build_timed_in_encode_stage(self, tmp_path, monkeypatch):
        # The interned-store build is the store path's one pass over the
        # series; the profile must book it, not leave it unattributed.
        build = SegmentStore.from_series_interned

        def slow_build(cls, *args, **kwargs):
            time.sleep(0.05)
            return build(*args, **kwargs)

        monkeypatch.setattr(
            SegmentStore, "from_series_interned", classmethod(slow_build)
        )
        profile = MiningProfile()
        mine_single_period_hitset(
            random_series(7), 4, 0.4, profile=profile,
            store=store_options(tmp_path),
        )
        stages = profile.to_json()["stages"]
        assert stages["encode"]["elapsed_s"] >= 0.05
        assert stages["encode"]["calls"] == 1
        assert stages["scan1"]["elapsed_s"] < stages["encode"]["elapsed_s"]

    def test_store_options_require_columnar(self, tmp_path, monkeypatch):
        # Store options mine on the columnar kernels: scan 1 is the
        # column's bit-lane sum, not a pass over the series' segments.
        lanes = []
        original = columnar.letter_bit_totals

        def spy(column):
            lanes.append(len(column))
            return original(column)

        monkeypatch.setattr(columnar, "letter_bit_totals", spy)
        series = random_series(0)
        mine_single_period_hitset(series, 3, 0.5, store=store_options(tmp_path))
        assert lanes == [series.num_periods(3)]
        mine_single_period_hitset(series, 3, 0.5)
        assert len(lanes) == 1  # the in-memory path never touches it


class TestStreamingKernel:
    """Checkpoints from when the stream had a kernel setting still resume."""

    SLOTS = 30

    def slots(self):
        rng = random.Random(13)
        return [
            {f for f in "abc" if rng.random() < 0.5} for _ in range(self.SLOTS)
        ]

    def feed(self, miner, slots):
        windows = []
        for slot in slots:
            emitted = miner.append(slot)
            if emitted is not None:
                windows.append(result_map(emitted.result))
        return windows

    def test_windows_identical_across_kernels(self):
        slots = self.slots()
        reference = self.feed(
            StreamingMiner(period=2, window=6, min_conf=0.5), slots
        )
        assert len(reference) > 2  # windows actually closed
        for kernel in ("batched", "columnar", "legacy"):
            miner = StreamingMiner(period=2, window=6, min_conf=0.5)
            head = self.feed(miner, slots[:13])
            state = miner.to_state()
            state["kernel"] = kernel  # as written by an older checkpoint
            restored = StreamingMiner.from_state(json.loads(json.dumps(state)))
            assert head + self.feed(restored, slots[13:]) == reference

    def test_old_checkpoints_default_to_batched(self):
        miner = StreamingMiner(period=2, window=6, min_conf=0.5)
        self.feed(miner, self.slots())
        state = miner.to_state()
        assert "kernel" not in state
        assert "kernel" not in miner.snapshot()
        state["kernel"] = "columnar"
        restored = StreamingMiner.from_state(state)
        assert "kernel" not in restored.to_state()
        assert restored.snapshot() == miner.snapshot()

    def test_unknown_kernel_rejected(self):
        with pytest.raises(TypeError, match="kernel"):
            StreamingMiner(period=2, window=4, kernel="simd")


class TestEngineColumnar:
    """The mining facade's in-memory path matches the columnar store path."""

    def test_parallel_columnar_equivalence(self, tmp_path):
        from repro.core.miner import PartialPeriodicMiner

        series = random_series(9, length=90)
        reference = mine_store(
            SegmentStore.from_series_interned(series, 3), 0.4
        )
        miner = PartialPeriodicMiner(series, min_conf=0.4)
        mined = miner.mine(3, workers=2)
        stored = miner.mine(
            3, store=StoreOptions(str(tmp_path), spill_bytes=0)
        )
        assert result_map(mined) == result_map(reference)
        assert result_map(stored) == result_map(reference)
