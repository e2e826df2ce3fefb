"""Tests for the SegmentStore row matrix and its out-of-core path.

A prebuilt store (``mine_store``) mines on its ``(m, k)`` ``uint64``
rows; in-memory series mine on their slot column.  Exactness is the
whole contract: across seeds, periods, and thresholds both paths must
produce letter-identical results to the brute-force oracle and to
Apriori — in memory, written to a file and mmap'd back, pickled and
through the mining facade — on packed (one-word) and wide (> 64-letter,
several-word) vocabularies alike.  The store's on-disk
round trip (atomic writes, sidecar metadata, pickle-by-path, files
written before the sidecar recorded ``words``) is exercised directly.
"""

from __future__ import annotations

import json
import pickle
import random
from collections import Counter

import numpy as np
import pytest

from repro.core.apriori import mine_single_period_apriori
from repro.core.counting import (
    brute_force_frequent,
    segment_letters,
    vocabulary_of_series,
)
from repro.core.errors import MiningError
from repro.core.hitset import mine_single_period_hitset, mine_store
from repro.encoding.vocabulary import LetterVocabulary
from pathlib import Path

from repro.core.errors import EncodingError
from repro.kernels.batched import batched_count_masks
from repro.kernels.store import SegmentStore
from repro.streaming import StreamingMiner
from repro.timeseries.feature_series import FeatureSeries
from tests.reference import packed_series as random_series
from tests.reference import mine_mapped, per_candidate_mine, wide_series

#: Store files written in the one-word format whose sidecar has no
#: ``"words"`` key, with the rows, letter counts and patterns they held.
SEGSTORE_V1 = Path(__file__).parent / "fixtures" / "segstore_v1"


def result_map(result):
    return {pattern.letters: count for pattern, count in result.items()}


class TestColumnarPrimitives:
    """The store's row-matrix passes against naive recomputation.

    Odd seeds build wide stores (several words per row), even seeds
    packed ones (one word).
    """

    def make_store(self, seed: int, period: int = 4) -> SegmentStore:
        if seed % 2:
            return SegmentStore.from_series(wide_series(seed), period)
        series = random_series(seed, length=80, features=5)
        return SegmentStore.from_series(series, period)

    @pytest.mark.parametrize("seed", range(5))
    def test_letter_bit_totals_matches_naive(self, seed):
        store = self.make_store(seed)
        totals = store.bit_totals()
        assert len(totals) == 64 * store.words
        rows = [int(mask) for mask in store]
        for bit in range(64 * store.words):
            expected = sum(1 for row in rows if row >> bit & 1)
            assert int(totals[bit]) == expected

    @pytest.mark.parametrize("seed", range(5))
    def test_distinct_counts_matches_naive(self, seed):
        store = self.make_store(seed)
        naive = Counter(int(mask) for mask in store)
        assert +store.distinct_counts() == +naive
        rows, counts = store.distinct_rows()
        assert rows.shape == (len(naive), store.words)
        assert int(counts.sum()) == len(store)

    def test_distinct_counts_chunking(self):
        # More rows than one chunk: per-chunk collapses must merge
        # exactly, at one word per row and at three.
        rng = random.Random(7)
        for letters in (5, 140):
            vocab = LetterVocabulary(
                ((0, f"f{i}") for i in range(letters)), period=1
            )
            palette = [rng.randrange(1, 1 << letters) for _ in range(31)]
            chunk_rows = (1 << 16) // SegmentStore(vocab, 1, []).words
            rows = [rng.choice(palette) for _ in range(chunk_rows + 999)]
            store = SegmentStore(vocab, 1, rows)
            row_counts = Counter(rows)
            assert +store.distinct_counts() == +row_counts
            assert store.letter_counts() == Counter(
                {
                    vocab[bit]: total
                    for bit in range(letters)
                    if (
                        total := sum(
                            n for row, n in row_counts.items() if row >> bit & 1
                        )
                    )
                }
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_hit_counter_filters_popcount(self, seed):
        # Projected onto the store's own vocabulary, the hits are the
        # distinct rows holding at least two letters.
        store = self.make_store(seed)
        naive = Counter(
            {
                mask: count
                for mask, count in Counter(int(m) for m in store).items()
                if mask.bit_count() >= 2
            }
        )
        assert store.project_hits(store.vocab) == +naive

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
        # The row matrix is handed out as is, and the passes over it read
        # it in place rather than copying it.
        store = self.make_store(0)
        rows = store.rows()
        assert rows.dtype == np.uint64
        assert rows.shape == (len(store), store.words)
        assert store.rows() is rows
        assert np.shares_memory(np.ascontiguousarray(rows, dtype="<u8"), rows)


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
        mapped = mine_mapped(series, period, min_conf, tmp_path)
        prebuilt = mine_store(SegmentStore.from_series(series, period), min_conf)
        apriori = mine_single_period_apriori(series, period, min_conf)
        for result in (in_memory, mapped, prebuilt, apriori):
            assert result_map(result) == oracle

    def test_columnar_books_one_scan(self, tmp_path):
        series = random_series(3, length=60)
        store_result = mine_mapped(series, 3, 0.3, tmp_path)
        batched_result = mine_single_period_hitset(series, 3, 0.3)
        assert len(store_result)  # non-degenerate case
        # The pass that built the store is the one scan booked.
        assert store_result.stats.scans == 1
        assert batched_result.stats.scans == 2

    def test_unknown_kernel_rejected(self):
        # There is one counting path: no call takes a kernel choice.
        with pytest.raises(TypeError, match="kernel"):
            mine_single_period_hitset(random_series(0), 3, 0.5, kernel="numpy")

def lettered_series(letters: int, period: int = 5, segments: int = 60):
    """A series of exactly ``letters`` ``(offset, feature)`` letters.

    One dense letter per offset keeps the frequent set non-empty; every
    other letter is a feature of its own, planted in one to three
    segments.
    """
    rng = random.Random(letters)
    slots = [
        {"hot"} if index % period == 0 else {"warm"}
        for index in range(period * segments)
    ]
    for rare in range(letters - period):
        for segment in rng.sample(range(segments), rng.randint(1, 3)):
            slots[segment * period + rare % period].add(f"rare{rare}")
    return FeatureSeries(slots)


def wide_store_series():
    """Series of 65 and 140 letters: two and three words per store row."""
    return [(lettered_series(65), 5, 2), (lettered_series(140), 5, 3)]


class TestWideVocabularyFallback:
    """Past 64 letters a store row takes several words and mines the same."""

    @pytest.mark.parametrize("kernel", ("batched", "columnar", "legacy"))
    def test_wide_mining_identical_across_tiers(self, kernel):
        # batched: the production miner; columnar: mine_store over a wide
        # (several-word) store; legacy: the per-candidate reference derive.
        series = wide_series(11)
        vocab_store = SegmentStore.from_series(series, 3)
        assert vocab_store.words == 2
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

    def test_wide_store_matches_brute_force(self, tmp_path):
        # 65..140-letter stores mine letter-identically to the oracle in
        # memory, mmap'd from their file, read back into memory and
        # pickled.
        for index, (series, period, words) in enumerate(wide_store_series()):
            store = SegmentStore.from_series(series, period)
            assert len(store.vocab) in (65, 140) and store.words == words
            path = store.to_file(tmp_path / f"wide{index}.seg")
            meta = json.loads(Path(str(path) + ".meta.json").read_text())
            assert meta["words"] == words
            mapped = SegmentStore.from_file(path)
            stores = {
                "in-memory": store,
                "mmap": mapped,
                "read": SegmentStore.from_file(path, mmap=False),
                "pickled": pickle.loads(pickle.dumps(store)),
                "pickled-mmap": pickle.loads(pickle.dumps(mapped)),
            }
            assert mapped.mapped and stores["pickled-mmap"].mapped
            for min_conf in (0.2, 0.5):
                oracle = {
                    frozenset(p.letters): c
                    for p, c in brute_force_frequent(
                        series, period, min_conf
                    ).items()
                }
                assert oracle
                for name, other in stores.items():
                    assert list(other) == list(store), name
                    assert result_map(mine_store(other, min_conf)) == oracle, (
                        name,
                        min_conf,
                    )

    def test_wide_store_counts_without_column(self):
        # Each row of a 99-letter store equals the segment's frozensets
        # encoded one by one; counts over the rows match naive sums.
        series = wide_series(2)
        vocab = vocabulary_of_series(series, 3)
        assert len(vocab) > 64
        store = SegmentStore.from_series(series, 3, vocab)
        assert store.words == 2 and store.rows().shape == (len(store), 2)
        assert list(store) == [
            vocab.encode_letters(segment_letters(s)) for s in series.segments(3)
        ]
        naive = Counter(int(mask) for mask in store)
        assert +store.distinct_counts() == +naive
        sample = list(naive)[:8]
        assert store.count_masks(sample) == {
            mask: sum(c for row, c in naive.items() if not mask & ~row)
            for mask in sample
        }

    def test_wide_store_options_spill_and_mine(self, tmp_path):
        # A wide series' store file holds several words per row and
        # mines, mmap'd, exactly as the in-memory path does.
        series = wide_series(3)
        mined = mine_mapped(series, 3, 0.5, tmp_path)
        assert result_map(mined) == result_map(
            mine_single_period_hitset(series, 3, 0.5)
        )
        (meta_path,) = tmp_path.glob("*.meta.json")
        assert json.loads(meta_path.read_text())["words"] == 2


class TestStoreFileFormat:
    """Store files stay readable, and a torn file is refused."""

    def test_one_word_files_without_words_still_open(self):
        # The fixture was written by the one-word store format, whose
        # sidecar has no "words" key: it opens as one word per row.
        expected = json.loads((SEGSTORE_V1 / "expected.json").read_text())
        meta = json.loads((SEGSTORE_V1 / "store.seg.meta.json").read_text())
        assert "words" not in meta
        for mmap in (True, False):
            store = SegmentStore.from_file(SEGSTORE_V1 / "store.seg", mmap=mmap)
            assert store.words == 1 and store.mapped == mmap
            assert list(store) == expected["masks"]
            assert sorted(
                [[offset, feature], count]
                for (offset, feature), count in store.letter_counts().items()
            ) == expected["letter_counts"]
            patterns = sorted(
                [sorted([offset, feature] for offset, feature in p.letters), c]
                for p, c in mine_store(store, expected["min_conf"]).items()
            )
            assert patterns == expected["patterns"]

    @pytest.mark.parametrize("words", (1, 2))
    def test_size_mismatch_raises(self, tmp_path, words):
        series = random_series(1) if words == 1 else wide_series(4)
        store = SegmentStore.from_series(series, 3)
        assert store.words == words
        path = store.to_file(tmp_path / "torn.seg")
        with open(path, "ab") as handle:
            handle.write(b"\0" * 8)
        with pytest.raises(EncodingError, match="sidecar promises"):
            SegmentStore.from_file(path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(EncodingError, match="sidecar promises"):
            SegmentStore.from_file(path, mmap=False)


class TestOutOfCoreStore:
    """to_file / from_file: the mmap-backed mining path."""

    def test_file_round_trip_and_sidecar(self, tmp_path):
        store = SegmentStore.from_series(random_series(1), 4)
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
        store = SegmentStore.from_series(random_series(2), 3)
        path = store.to_file(tmp_path / "p.seg")
        mapped = SegmentStore.from_file(path)
        clone = pickle.loads(pickle.dumps(mapped))
        assert clone.mapped and clone.path == path
        assert list(clone) == list(store)
        # The pickle payload carries the path, not the buffer.
        assert len(pickle.dumps(mapped)) < 600

    def test_mine_store_matches_in_memory(self, tmp_path):
        series = random_series(5, length=100)
        store = SegmentStore.from_series(series, 4)
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
        mapped = mine_mapped(series, 5, 0.3, tmp_path)
        reference = mine_single_period_hitset(series, 5, 0.3)
        assert result_map(mapped) == result_map(reference)
        assert any(p.suffix == ".seg" for p in tmp_path.iterdir())

    def test_store_options_require_columnar(self, tmp_path, monkeypatch):
        # A store mines on its rows: scan 1 is their bit-lane sum, not a
        # pass over the series' segments.
        lanes = []
        original = SegmentStore.bit_totals

        def spy(store):
            lanes.append(len(store))
            return original(store)

        monkeypatch.setattr(SegmentStore, "bit_totals", spy)
        series = random_series(0)
        mine_mapped(series, 3, 0.5, tmp_path)
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
            SegmentStore.from_series(series, 3), 0.4
        )
        miner = PartialPeriodicMiner(series, min_conf=0.4)
        mined = miner.mine(3, workers=2)
        stored = mine_mapped(series, 3, 0.4, tmp_path)
        assert result_map(mined) == result_map(reference)
        assert result_map(stored) == result_map(reference)
