"""Tests for repro.kernels — batched counting, the segment store, the
cross-query count cache, and the mining profile.

The heart of the suite is the randomized equivalence sweep: across seeds,
periods, and thresholds, the batched production miner, the per-candidate
reference derivation, Apriori, and the brute-force oracle must produce
letter-for-letter identical frequent sets — on packed (<= 64-letter)
series, on wide ones, and through a segment store mmap'd from its file.
The cache tests pin the invalidation contract (fingerprint, letter order,
threshold direction) and assert zero data scans on warm re-queries.
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
    letter_counts_for_segments,
    segment_letters,
    vocabulary_of_series,
)
from repro.core.errors import MiningError
from repro.core.hitset import mine_single_period_hitset
from repro.core.multiperiod import mine_periods_looping, mine_periods_shared
from repro.core.miner import PartialPeriodicMiner
from repro.core.pattern import Pattern
from repro.encoding.vocabulary import LetterVocabulary
from repro.kernels import batched
from repro.kernels.batched import (
    MAX_TABLE_BITS,
    SubmaskCountTable,
    batched_count_masks,
    project_hit_counts,
)
from repro.kernels.cache import CacheKey, CountCache, letters_hash
from repro.kernels.profile import MiningProfile
from repro.kernels.store import SegmentStore
from repro.timeseries.feature_series import FeatureSeries
from repro.timeseries.scan import ScanCountingSeries
from repro.tree.max_subpattern_tree import MaxSubpatternTree
from tests.reference import packed_series as random_series
from tests.reference import mine_mapped, per_candidate_mine, wide_series


def random_hits(
    rng: random.Random, bits: int, rows: int
) -> list[tuple[int, int]]:
    """Distinct random ``(mask, count)`` rows over a ``bits``-wide universe."""
    masks = rng.sample(range(1, 1 << bits), min(rows, (1 << bits) - 1))
    return [(mask, rng.randint(1, 9)) for mask in masks]


def naive_counts(
    hits: list[tuple[int, int]], candidates: list[int]
) -> dict[int, int]:
    """The definitional count: candidate ⊆ hit, one pass per candidate."""
    return {
        candidate: sum(
            count for mask, count in hits if candidate & ~mask == 0
        )
        for candidate in candidates
    }


# ---------------------------------------------------------------------------
# Batched counting kernels
# ---------------------------------------------------------------------------


class TestSubmaskCountTable:
    def test_matches_naive_on_random_hits(self):
        rng = random.Random(7)
        for _ in range(30):
            bits = rng.randint(1, 8)
            hits = random_hits(rng, bits, rng.randint(1, 40))
            universe = (1 << bits) - 1
            table = SubmaskCountTable.from_hits(hits, universe)
            candidates = list(range(1 << bits))
            assert table.counts(candidates) == naive_counts(hits, candidates)

    def test_zero_mask_counts_everything(self):
        hits = [(0b101, 3), (0b010, 2), (0b111, 1)]
        table = SubmaskCountTable.from_hits(hits, 0b111)
        assert table.count(0) == 6

    def test_sparse_universe_is_compacted(self):
        # Bits 0 and 20 only: the dense table must be 2 entries wide, not
        # 2**21.
        hits = [(1 | (1 << 20), 4), (1, 2)]
        table = SubmaskCountTable.from_hits(hits, 1 | (1 << 20))
        assert table.count(1) == 6
        assert table.count(1 << 20) == 4
        assert table.count(1 | (1 << 20)) == 4

    def test_adaptive_representation_picks_sparse_for_narrow_rows(self):
        # A handful of narrow rows under a wide universe: enumerating their
        # submasks is decisively cheaper than sweeping a 2^14 array, so
        # from_hits builds the dict representation — same answers.
        rng = random.Random(3)
        bits = 14
        hits = [(rng.randint(0, 7), 1) for _ in range(5)]  # rows ⊆ 0b111
        universe = (1 << bits) - 1
        table = SubmaskCountTable.from_hits(hits, universe)
        assert table._sparse_table is not None
        candidates = list(range(16)) + [1 << 13, (1 << 13) | 1]
        assert table.counts(candidates) == naive_counts(hits, candidates)
        assert table.count(0) == sum(count for _, count in hits)

    def test_adaptive_representation_picks_dense_for_wide_rows(self):
        # Wide rows make submask enumeration explode; the dense sweep wins.
        hits = [(0b11111111, 2), (0b01111111, 1)]
        table = SubmaskCountTable.from_hits(hits, 0b11111111)
        assert table._sparse_table is None
        assert table.count(0b01111111) == 3
        assert table.count(0b10000000) == 2

    def test_rejects_ambiguous_construction(self):
        with pytest.raises(MiningError):
            SubmaskCountTable(0b11)
        with pytest.raises(MiningError):
            SubmaskCountTable(
                0b1, table=np.zeros(2, np.int64), sparse_table={0: 1}
            )


class TestBatchedCountMasks:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_naive_dense(self, seed):
        rng = random.Random(seed)
        bits = rng.randint(2, 10)
        hits = random_hits(rng, bits, rng.randint(1, 60))
        candidates = [
            rng.randint(0, (1 << bits) - 1) for _ in range(rng.randint(1, 30))
        ]
        assert batched_count_masks(hits, candidates) == naive_counts(
            hits, candidates
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive_sparse(self, seed):
        # A universe wider than MAX_TABLE_BITS forces the sparse kernel.
        rng = random.Random(1000 + seed)
        bits = MAX_TABLE_BITS + rng.randint(4, 16)
        hits = random_hits(rng, bits, rng.randint(1, 50))
        candidates = [
            rng.randint(0, (1 << bits) - 1) for _ in range(rng.randint(1, 25))
        ]
        assert batched_count_masks(hits, candidates) == naive_counts(
            hits, candidates
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_naive_past_64_bits(self, seed, monkeypatch):
        # Dense hits over a 65-200 bit universe take the vectorized
        # candidate scan (in many small blocks here), narrow ones the
        # submask enumeration; candidates repeat.
        monkeypatch.setattr(batched, "_COVER_BLOCK", 64)
        rng = random.Random(2000 + seed)
        bits = rng.randint(65, 200)
        hits = [
            (rng.getrandbits(bits) | rng.getrandbits(bits), rng.randint(1, 9))
            for _ in range(rng.randint(1, 40))
        ]
        hits += [
            (1 << rng.randrange(bits) | 1 << rng.randrange(bits), 1)
            for _ in range(5)
        ]
        candidates = [
            rng.choice(hits)[0] & rng.getrandbits(bits) & rng.getrandbits(bits)
            & rng.getrandbits(bits)
            for _ in range(rng.randint(20, 120))
        ]
        candidates += [
            1 << rng.randrange(bits) | 1 << rng.randrange(bits)
            for _ in range(20)
        ]
        candidates += candidates[:5]
        expected = naive_counts(hits, candidates)
        assert any(expected.values())
        assert batched_count_masks(hits, candidates) == expected

    def test_empty_inputs(self):
        assert batched_count_masks([], [0b11]) == {0b11: 0}
        assert batched_count_masks([(0b1, 2)], []) == {}

    def test_project_hit_counts_collapses_outside_bits(self):
        hits = [(0b1101, 2), (0b0101, 3), (0b0010, 1)]
        assert project_hit_counts(hits, 0b0101) == {0b0101: 5, 0b0000: 1}


# ---------------------------------------------------------------------------
# SegmentStore
# ---------------------------------------------------------------------------


class TestSegmentStore:
    def test_masks_match_per_segment_encoding(self):
        series = random_series(3, length=40)
        store = SegmentStore.from_series(series, 5)
        expected = [
            store.vocab.encode_letters(segment_letters(segment))
            for segment in series.segments(5)
        ]
        assert list(store) == expected
        assert len(store) == series.num_periods(5)
        assert store[0] == expected[0]

    def test_letter_counts_match_scan1_kernel(self):
        series = random_series(4, length=48)
        store = SegmentStore.from_series(series, 4)
        assert store.letter_counts() == letter_counts_for_segments(
            series.segments(4)
        )

    def test_hit_counter_drops_sub_two_letter_hits(self):
        series = FeatureSeries([{"a", "b"}, set(), {"a"}, set()] * 3)
        store = SegmentStore.from_series(series, 2)
        hits = store.project_hits(store.vocab)
        assert hits
        for mask in hits:
            assert mask & (mask - 1), "single-letter hit leaked through"

    def test_count_masks_matches_definition(self):
        series = random_series(5, length=60)
        store = SegmentStore.from_series(series, 6)
        vocab = store.vocab
        rng = random.Random(11)
        universe = (1 << len(vocab)) - 1
        candidates = [rng.randint(0, universe) for _ in range(15)]
        hits = list(Counter(store).items())
        assert store.count_masks(candidates) == naive_counts(hits, candidates)

    def test_packed_and_pickle_roundtrip(self):
        series = random_series(6, length=40)
        store = SegmentStore.from_series(series, 5)
        assert store.words == 1  # 4 features x 5 offsets = 20 letters <= 64
        clone = pickle.loads(pickle.dumps(store))
        assert list(clone) == list(store)
        assert clone.vocab == store.vocab
        assert clone.period == store.period
        assert clone.project_hits(clone.vocab) == store.project_hits(store.vocab)

    def test_wide_vocabulary_packs_into_words(self):
        # An explicit 70-letter vocabulary (> 64) takes two words per row,
        # and each row still equals the segment encoded on its own.
        series = random_series(7, length=70, features=5)
        letters = tuple(
            (offset, f"f{index}") for offset in range(14) for index in range(5)
        )
        vocab = LetterVocabulary(letters, period=14)
        store = SegmentStore.from_series(series, 14, vocab)
        assert len(store.vocab) > 64
        assert store.words == 2
        assert list(store) == [
            vocab.encode_letters(segment_letters(s)) for s in series.segments(14)
        ]
        clone = pickle.loads(pickle.dumps(store))
        assert list(clone) == list(store)
        assert clone.letter_counts() == store.letter_counts()
        assert clone.letter_counts() == letter_counts_for_segments(
            series.segments(14)
        )


# ---------------------------------------------------------------------------
# Randomized equivalence sweep: batched == per-candidate == brute force
# ---------------------------------------------------------------------------


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", range(20))
    def test_batched_equals_legacy_equals_brute_force(self, seed, tmp_path):
        # Even seeds draw packed series, odd seeds wide (> 64 letters)
        # ones; both also mine through an mmap'd store file.
        if seed % 2:
            series = wide_series(seed, length=120 + (seed % 5) * 12)
            assert len(vocabulary_of_series(series, 3)) > 64
        else:
            series = random_series(seed, length=48 + (seed % 5) * 12)
        for period in (3, 4, 5):
            for min_conf in (0.2, 0.45, 0.7):
                batched = dict(
                    mine_single_period_hitset(series, period, min_conf).items()
                )
                oracle = brute_force_frequent(series, period, min_conf)
                assert batched == oracle, (seed, period, min_conf)
                assert batched == per_candidate_mine(series, period, min_conf)
                assert batched == dict(
                    mine_single_period_apriori(series, period, min_conf).items()
                )
                mapped = mine_mapped(series, period, min_conf, tmp_path)
                assert dict(mapped.items()) == oracle

    def test_batched_still_two_scans(self):
        scan = ScanCountingSeries(random_series(1, length=60))
        result = mine_single_period_hitset(scan, 4, 0.3)
        assert scan.scans == 2
        assert result.stats.scans == 2

    def test_max_letters_cap_agrees_across_kernels(self):
        series = random_series(2, length=60)
        for cap in (1, 2, 3):
            batched = mine_single_period_hitset(
                series, 4, 0.25, max_letters=cap
            )
            reference = per_candidate_mine(series, 4, 0.25, max_letters=cap)
            assert dict(batched.items()) == reference
            assert all(p.letter_count <= cap for p in batched)

    def test_unknown_kernel_rejected(self):
        # There is one counting path: no call takes a kernel choice.
        series = random_series(0)
        with pytest.raises(TypeError, match="kernel"):
            mine_single_period_hitset(series, 3, 0.5, kernel="turbo")

    def test_multiperiod_kernels_agree(self):
        series = random_series(8, length=72)
        periods = (3, 4, 6)
        shared = mine_periods_shared(series, periods, 0.3)
        loop = mine_periods_looping(series, periods, 0.3)
        for period in periods:
            assert dict(shared[period].items()) == dict(loop[period].items())
            assert dict(shared[period].items()) == per_candidate_mine(
                series, period, 0.3
            )

    def test_parallel_engine_kernels_agree(self):
        # workers= no longer shards: the facade runs the same batched path.
        series = random_series(9, length=80)
        parallel = PartialPeriodicMiner(series, min_conf=0.3).mine(4, workers=2)
        serial = mine_single_period_hitset(series, 4, 0.3)
        assert dict(parallel.items()) == dict(serial.items())
        assert dict(parallel.items()) == per_candidate_mine(series, 4, 0.3)


# ---------------------------------------------------------------------------
# Max-subpattern tree memoization
# ---------------------------------------------------------------------------


class TestTreeMemoization:
    def make_tree(self) -> MaxSubpatternTree:
        cmax = Pattern.from_string("abc")
        return MaxSubpatternTree(cmax)

    def test_hit_set_size_is_incremental(self):
        tree = self.make_tree()
        assert tree.hit_set_size == 0
        tree.insert_letters(((0, "a"), (1, "b")))
        assert tree.hit_set_size == 1
        tree.insert_letters(((0, "a"), (1, "b")))
        assert tree.hit_set_size == 1  # same node, count bump only
        tree.insert_letters(((1, "b"), (2, "c")))
        assert tree.hit_set_size == 2

    def test_hit_counts_memo_invalidated_by_insert(self):
        tree = self.make_tree()
        tree.insert_letters(((0, "a"), (1, "b")))
        first = tree.hit_counts()
        tree.insert_letters(((0, "a"), (2, "c")))
        second = tree.hit_counts()
        assert first != second
        assert len(second) == 2

    def test_hit_counts_memo_invalidated_by_merge(self):
        # A bulk insert (count > 1) into a memoized tree, the one way hits
        # are added in batches now that trees are never merged.
        tree = self.make_tree()
        tree.insert_letters(((0, "a"), (1, "b")))
        before = dict(tree.hit_counts())
        tree.insert_letters(((0, "a"), (1, "b")))
        tree.insert_letters(((1, "b"), (2, "c")), count=2)
        after = tree.hit_counts()
        assert after != before
        assert tree.hit_set_size == 2
        assert sum(after.values()) == 4

    def test_count_masks_matches_count_of_mask(self):
        tree = self.make_tree()
        rng = random.Random(21)
        for _ in range(12):
            mask = rng.randint(1, 7)
            if mask & (mask - 1):
                tree.insert_mask(mask)
        candidates = list(range(8))
        batched = tree.count_masks(candidates)
        for mask in candidates:
            assert batched[mask] == tree.count_of_mask(mask)  # repro: ignore[REP701] -- cross-checking the probe against its batched replacement


# ---------------------------------------------------------------------------
# CountCache
# ---------------------------------------------------------------------------


class TestCountCache:
    def mine(self, series, period, min_conf, cache, profile=None):
        return mine_single_period_hitset(
            series, period, min_conf, cache=cache, profile=profile
        )

    def test_warm_requery_does_zero_scans(self):
        series = random_series(12, length=60)
        cache = CountCache()
        cold = self.mine(series, 4, 0.3, cache)
        assert cold.stats.scans == 2
        scan = ScanCountingSeries(series)
        warm = self.mine(scan, 4, 0.3, cache)
        assert scan.scans == 0
        assert warm.stats.scans == 0
        assert dict(warm.items()) == dict(cold.items())

    def test_higher_min_conf_requery_projects_from_cache(self):
        series = random_series(13, length=60)
        cache = CountCache()
        self.mine(series, 4, 0.25, cache)
        scan = ScanCountingSeries(series)
        warm = self.mine(scan, 4, 0.6, cache)
        assert scan.scans == 0
        fresh = mine_single_period_hitset(series, 4, 0.6)
        assert dict(warm.items()) == dict(fresh.items())
        assert cache.stats.projected >= 1

    def test_lower_min_conf_requery_rescans_scan2_only(self):
        # A smaller threshold can grow F1, so the stored hit table is not a
        # superset — scan 2 must re-run; scan 1 still answers from cache.
        series = random_series(14, length=60)
        cache = CountCache()
        self.mine(series, 4, 0.6, cache)
        scan = ScanCountingSeries(series)
        warm = self.mine(scan, 4, 0.2, cache)
        assert scan.scans == 1
        fresh = mine_single_period_hitset(series, 4, 0.2)
        assert dict(warm.items()) == dict(fresh.items())

    def test_fingerprint_change_invalidates(self):
        series = random_series(15, length=60)
        cache = CountCache()
        self.mine(series, 4, 0.3, cache)
        slots = [set(slot) for slot in series]
        slots[7] = {"mutant"}
        changed = FeatureSeries(slots)
        scan = ScanCountingSeries(changed)
        result = self.mine(scan, 4, 0.3, cache)
        assert scan.scans == 2
        assert dict(result.items()) == dict(
            mine_single_period_hitset(changed, 4, 0.3).items()
        )

    def test_periods_are_isolated(self):
        series = random_series(16, length=60)
        cache = CountCache()
        self.mine(series, 4, 0.3, cache)
        scan = ScanCountingSeries(series)
        self.mine(scan, 5, 0.3, cache)
        assert scan.scans == 2

    def test_letters_hash_is_order_sensitive(self):
        letters = ((0, "a"), (1, "b"))
        assert letters_hash(letters) != letters_hash(tuple(reversed(letters)))

    def test_persistence_roundtrip(self, tmp_path):
        series = random_series(17, length=60)
        cold_cache = CountCache(tmp_path)
        cold = self.mine(series, 4, 0.3, cold_cache)
        # A brand-new cache instance over the same directory: everything
        # must come back from disk, zero scans.
        warm_cache = CountCache(tmp_path)
        scan = ScanCountingSeries(series)
        warm = self.mine(scan, 4, 0.3, warm_cache)
        assert scan.scans == 0
        assert dict(warm.items()) == dict(cold.items())

    def test_corrupt_cache_file_is_a_miss(self, tmp_path):
        series = random_series(18, length=60)
        cache = CountCache(tmp_path)
        key = cache.key_for(series, 4)
        self.mine(series, 4, 0.3, cache)
        (tmp_path / key.file_name).write_text("not json")
        fresh = CountCache(tmp_path)
        assert fresh.get_letter_counts(key) is None
        scan = ScanCountingSeries(series)
        result = self.mine(scan, 4, 0.3, fresh)
        assert scan.scans == 2
        assert dict(result.items()) == dict(
            mine_single_period_hitset(series, 4, 0.3).items()
        )

    def test_clear_empties_memory_and_disk(self, tmp_path):
        series = random_series(19, length=60)
        cache = CountCache(tmp_path)
        self.mine(series, 4, 0.3, cache)
        assert cache.entry_count == 1
        cache.clear()
        assert cache.entry_count == 0
        assert not list(tmp_path.glob("*.json"))

    def test_key_for_rejects_non_series(self):
        cache = CountCache()
        with pytest.raises(MiningError):
            cache.key_for(object(), 4)

    def test_projection_correctness_randomized(self):
        # Direct contract check: a hit table stored under a wide letter
        # order, queried under any subset order, equals the table built
        # from scratch under the narrow order.
        rng = random.Random(23)
        for trial in range(15):
            series = random_series(100 + trial, length=48)
            store_wide = SegmentStore.from_series(series, 4)
            wide_order = store_wide.vocab.letters
            if len(wide_order) < 3:
                continue
            keep = rng.randint(2, len(wide_order) - 1)
            narrow_order = tuple(sorted(rng.sample(wide_order, keep)))
            cache = CountCache()
            key = CacheKey("fp-test", 4)
            cache.put_hit_table(
                key, wide_order, store_wide.project_hits(store_wide.vocab)
            )
            projected = cache.get_hit_table(key, narrow_order)
            narrow_vocab = LetterVocabulary(narrow_order, period=4)
            expected = SegmentStore.from_series(
                series, 4, narrow_vocab
            ).project_hits(narrow_vocab)
            assert projected == dict(expected), trial

    def test_engine_warm_requery_skips_fanouts(self):
        # The facade with workers= set still answers a warm re-query from
        # the cache without a scan.
        series = random_series(24, length=80)
        cache = CountCache()
        miner = PartialPeriodicMiner(series, min_conf=0.3)
        cold = miner.mine(4, workers=2, cache=cache)
        assert cold.stats.scans == 2
        warm = miner.mine(4, workers=2, cache=cache)
        assert warm.stats.scans == 0
        assert warm.engine is None
        assert dict(warm.items()) == dict(cold.items())

    def test_serial_cache_serves_engine_and_back(self):
        series = random_series(25, length=80)
        cache = CountCache()
        serial = mine_single_period_hitset(series, 4, 0.3, cache=cache)
        facade = PartialPeriodicMiner(series, min_conf=0.3).mine(
            4, workers=2, cache=cache
        )
        assert facade.stats.scans == 0
        assert dict(facade.items()) == dict(serial.items())


# ---------------------------------------------------------------------------
# MiningProfile
# ---------------------------------------------------------------------------


class TestMiningProfile:
    def test_stages_and_counters_recorded(self):
        series = random_series(30, length=60)
        profile = MiningProfile()
        cache = CountCache()
        mine_single_period_hitset(series, 4, 0.3, cache=cache, profile=profile)
        names = [stage.name for stage in profile.stages]
        assert "scan1" in names and "scan2" in names and "derive" in names
        assert profile.counters["cache_misses"] == 2
        profile2 = MiningProfile()
        mine_single_period_hitset(
            series, 4, 0.3, cache=cache, profile=profile2
        )
        assert profile2.counters["cache_hits"] == 2
        assert "scan1" not in [stage.name for stage in profile2.stages]

    def test_scan1_rows_counts_the_positions_read(self):
        # "a" fills every other slot; "r" alone fills a few more, too few
        # to reach the floor of 10 anywhere, so scan 1 skips its slots.
        slots = [
            {"a"} if index % 2 else ({"r"} if index % 9 == 0 else set())
            for index in range(83)
        ]
        series = FeatureSeries(slots)
        whole = slots[: series.num_periods(4) * 4]
        profile = MiningProfile()
        mine_single_period_hitset(series, 4, 0.5, profile=profile)
        assert profile.counters["scan1_rows"] == sum("a" in s for s in whole)
        assert "scan1_rows" in profile.table()
        # With a cache, scan 1 counts at floor 0: every non-empty slot.
        profile = MiningProfile()
        mine_single_period_hitset(
            series, 4, 0.5, cache=CountCache(), profile=profile
        )
        assert profile.counters["scan1_rows"] == sum(map(bool, whole))
        assert sum(map(bool, whole)) > sum("a" in s for s in whole)

    def test_table_and_json_shapes(self):
        profile = MiningProfile()
        with profile.stage("scan1", items=10):
            pass
        profile.count("cache_hits")
        table = profile.table()
        assert "scan1" in table and "cache_hits" in table
        payload = profile.to_json()
        assert payload["stages"]["scan1"]["items"] == 10
        assert payload["counters"] == {"cache_hits": 1}
        json.dumps(payload)  # must be plain-JSON serializable

    def test_engine_profile_stages(self):
        # A profiled facade mine records the in-process stages, in order,
        # and no sharding stages.
        series = random_series(31, length=80)
        profile = MiningProfile()
        PartialPeriodicMiner(series, min_conf=0.3).mine(
            4, workers=2, profile=profile
        )
        names = [stage.name for stage in profile.stages]
        assert names == [
            name for name in ("scan1", "scan2", "tree", "derive") if name in names
        ]
        for expected in ("scan1", "scan2", "derive"):
            assert expected in names, expected
        assert "partition" not in names and "merge" not in names


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------


class TestKernelCli:
    def write_series(self, tmp_path):
        from repro.timeseries.io import save_series

        path = tmp_path / "series.txt"
        save_series(random_series(40, length=60), path)
        return path

    def test_kernel_flags_agree(self, tmp_path, capsys):
        # ``ppm mine`` (in memory, on the slot column) prints the same
        # patterns as the store path over the same file, mmap'd back.
        from repro.cli import _print_result, main
        from repro.timeseries.io import load_series

        path = self.write_series(tmp_path)
        assert main(["mine", str(path), "--period", "4"]) == 0
        batched_out = capsys.readouterr().out
        mapped = mine_mapped(load_series(path), 4, 0.5, tmp_path)
        _print_result(mapped, 25, maximal=False)
        columnar_out = capsys.readouterr().out
        strip = lambda text: [
            line for line in text.splitlines() if line.startswith("  ")
        ]
        assert strip(batched_out) == strip(columnar_out)

    def test_profile_requires_period(self, tmp_path):
        from repro.cli import main

        path = self.write_series(tmp_path)
        assert (
            main(
                [
                    "mine",
                    str(path),
                    "--period-range",
                    "3",
                    "5",
                    "--profile",
                ]
            )
            == 2
        )

    def test_profile_json_written(self, tmp_path, capsys):
        from repro.cli import main

        path = self.write_series(tmp_path)
        profile_path = tmp_path / "profile.json"
        code = main(
            [
                "mine",
                str(path),
                "--period",
                "4",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--profile-json",
                str(profile_path),
            ]
        )
        assert code == 0
        payload = json.loads(profile_path.read_text())
        assert "stages" in payload and "counters" in payload
        assert payload["counters"]["scan1_rows"] > 0
        out = capsys.readouterr().out
        assert "[cache" in out


class TestCountCacheBounds:
    """The LRU bound, eviction hooks, and concurrency-safe persistence."""

    def fill(self, cache, seeds, period=4, min_conf=0.3):
        keys = []
        for seed in seeds:
            series = random_series(seed, length=40)
            mine_single_period_hitset(
                series, period, min_conf, cache=cache
            )
            keys.append(cache.key_for(series, period))
        return keys

    def test_rejects_non_positive_bound(self):
        with pytest.raises(MiningError):
            CountCache(max_entries=0)

    def test_lru_bound_evicts_oldest(self):
        cache = CountCache(max_entries=2)
        keys = self.fill(cache, [21, 22, 23])
        assert cache.entry_count == 2
        assert keys[0] not in cache.keys()
        assert keys[1] in cache.keys() and keys[2] in cache.keys()
        assert cache.stats.evictions == 1

    def test_touch_refreshes_lru_position(self):
        cache = CountCache(max_entries=2)
        keys = self.fill(cache, [31, 32])
        # Touch the older entry, then add a third: the middle one goes.
        assert cache.get_letter_counts(keys[0]) is not None
        self.fill(cache, [33])
        assert keys[0] in cache.keys()
        assert keys[1] not in cache.keys()

    def test_on_evict_hook_fires_with_key(self):
        evicted = []
        cache = CountCache(max_entries=1, on_evict=evicted.append)
        keys = self.fill(cache, [41, 42])
        assert evicted == [keys[0]]

    def test_explicit_evict_drops_memory_and_disk(self, tmp_path):
        cache = CountCache(cache_dir=tmp_path, max_entries=None)
        (key,) = self.fill(cache, [51])
        assert (tmp_path / key.file_name).exists()
        assert cache.evict(key)
        assert key not in cache.keys()
        assert not (tmp_path / key.file_name).exists()
        assert not cache.evict(key)
        assert cache.stats.evictions == 1

    def test_bound_eviction_removes_persisted_file(self, tmp_path):
        cache = CountCache(cache_dir=tmp_path, max_entries=1)
        keys = self.fill(cache, [61, 62])
        assert not (tmp_path / keys[0].file_name).exists()
        assert (tmp_path / keys[1].file_name).exists()

    def test_concurrent_writers_tolerate_races(self, tmp_path):
        # Many threads hammering one persisted cache: every write uses a
        # distinct temporary file, so no writer can clobber another's
        # half-written state, and the surviving JSON is always loadable.
        import threading

        series = [random_series(70 + i, length=40) for i in range(4)]
        cache = CountCache(cache_dir=tmp_path)
        errors = []

        def worker(worker_seed):
            rng = random.Random(worker_seed)
            try:
                for _ in range(12):
                    target = series[rng.randrange(len(series))]
                    mine_single_period_hitset(
                        target, 4, rng.choice([0.3, 0.5, 0.7]), cache=cache
                    )
            except Exception as error:  # repro: ignore[REP404] -- the test must capture any failure raised on a worker thread to re-raise it on the main thread
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert not list(tmp_path.glob("*.tmp"))
        # A fresh cache loads every surviving entry and answers warm.
        reloaded = CountCache(cache_dir=tmp_path)
        for target in series:
            scan = ScanCountingSeries(target)
            mine_single_period_hitset(scan, 4, 0.7, cache=reloaded)
            assert scan.scans == 0

    def test_cross_process_style_writers_share_directory(self, tmp_path):
        # Two independent cache objects on one directory (the multi-server
        # deployment shape): later writers replace equivalent content, and
        # both serve warm afterwards.
        series = random_series(81, length=40)
        first = CountCache(cache_dir=tmp_path)
        second = CountCache(cache_dir=tmp_path)
        mine_single_period_hitset(series, 4, 0.3, cache=first)
        mine_single_period_hitset(series, 4, 0.3, cache=second)
        scan = ScanCountingSeries(series)
        third = CountCache(cache_dir=tmp_path)
        mine_single_period_hitset(scan, 4, 0.3, cache=third)
        assert scan.scans == 0
