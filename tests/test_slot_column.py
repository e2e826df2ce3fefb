"""The interned slot column and the in-memory scans that read it.

Every in-memory hit-set miner (single-period, maximal and constrained, and
the tests' ``build_hit_tree``) runs both scans on the series' slot column
(:meth:`FeatureSeries.slot_column`).  These suites hold them equal to the
brute-force oracle and to the slow references in :mod:`tests.reference`,
which count over the frozensets, on a column built lazily and on one
built by :func:`repro.timeseries.io.load_series` while parsing.  Scan 1's
floor-pruned pair counts are also held to per-segment counting directly,
at floors around the support threshold and on the shapes where pruning
is closest to wrong.
"""

from __future__ import annotations

import pickle
import random
import sys
import threading
from collections import Counter

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.constraints import MiningConstraints, mine_with_constraints
from repro.core.counting import (
    brute_force_frequent,
    letter_counts_for_segments,
    min_count,
)
from repro.core.hitset import mine_single_period_hitset
from repro.core.maximal import maximal_patterns, mine_maximal_hitset
from repro.core.multiperiod import mine_periods_shared
from repro.kernels.cache import CountCache
from repro.kernels import slots
from repro.kernels import store as store_module
from repro.kernels.slots import (
    SlotColumn,
    SlotTable,
    distinct_rows,
    group_keys,
    pair_letter_counts,
    scan1_rows,
    segment_hits,
)
from repro.kernels.store import SegmentStore
from repro.timeseries.feature_series import FeatureSeries
from repro.timeseries.io import load_series, save_series
from repro.timeseries.scan import ScanCountingSeries
from repro.tree.max_subpattern_tree import MaxSubpatternTree
from tests.reference import (
    build_hit_tree,
    packed_series,
    per_candidate_mine,
    per_segment_letter_counts,
)


def wide_cmax_series(period: int = 35, segments: int = 30) -> FeatureSeries:
    """One of two features per slot: at ``min_conf`` 0.3 nearly every
    ``(offset, feature)`` letter is frequent, so ``C_max`` holds close to
    ``2 * period`` (> 64) letters and scan 2 takes two words a segment.
    A trailing partial segment of three slots follows the whole ones."""
    rng = random.Random(7)
    return FeatureSeries(
        [{rng.choice("xy")} for _ in range(period * segments + 3)]
    )


def floor_boundary_series(period: int = 5, segments: int = 12) -> FeatureSeries:
    """``z`` once in every segment, always at offset 2: at ``min_conf``
    1.0 its feature total, its letter's count and the support floor are
    all ``segments``.  Two other features fill the slots at random, and a
    trailing partial segment holds one more ``z``."""
    rng = random.Random(3)
    slots = [{rng.choice("ab")} for _ in range(period * segments)]
    for segment in range(segments):
        slots[segment * period + 2].add("z")
        slots[segment * period].add("a")
    return FeatureSeries(slots + [{"z"}, {"b"}])


#: name -> (series, period, min_conf, max_letters); every one ends in a
#: trailing partial segment.
SHAPES = {
    "floor-boundary": (floor_boundary_series(), 5, 1.0, None),
    "packed": (packed_series(3, length=61), 4, 0.3, None),
    "empty-slots": (
        FeatureSeries.from_symbols("a*b**ab*c*a*b***ab*ca*b**a" * 3), 5, 0.3, None
    ),
    "wide-cmax": (wide_cmax_series(), 35, 0.3, 3),
}


@pytest.fixture(params=sorted(SHAPES), ids=sorted(SHAPES))
def shape(request):
    return SHAPES[request.param]


@pytest.fixture(params=["lazy", "loaded"])
def column_source(request, tmp_path):
    """The series as built (lazy column) or reloaded (column from ingest)."""

    def source(series: FeatureSeries) -> FeatureSeries:
        if request.param == "lazy":
            return FeatureSeries(list(series))
        path = tmp_path / "series.txt"
        save_series(series, path)
        return load_series(path)

    return source


def letters_of(counts):
    return {pattern.letters: count for pattern, count in counts.items()}


class TestColumn:
    def test_loaded_column_decodes_to_the_series(self, tmp_path):
        series = packed_series(5, length=83)
        path = tmp_path / "series.txt"
        save_series(series, path)
        loaded = load_series(path)
        column = loaded.slot_column()
        assert column.table.slots_of(column.ids) == series.slots
        assert loaded == series
        assert loaded.content_digest() == series.content_digest()

    def test_lazy_column_is_built_once(self):
        series = packed_series(6, length=40)
        column = series.slot_column()
        assert series.slot_column() is column
        assert column.table.slots_of(column.ids) == series.slots
        assert len(column.table.slots) == len(set(series.slots))

    def test_slices_sums_and_pickles_keep_content(self, tmp_path):
        series = packed_series(7, length=50)
        path = tmp_path / "series.txt"
        save_series(series, path)
        loaded = load_series(path)
        for built, expected in (
            (loaded[10:30], series[10:30]),
            (loaded + loaded, series + series),
            (pickle.loads(pickle.dumps(loaded)), series),
        ):
            column = built.slot_column()
            assert column.table.slots_of(column.ids) == expected.slots
            assert built.content_digest() == expected.content_digest()

    def test_scan_counting_books_one_scan_per_column_read(self):
        scan = ScanCountingSeries(packed_series(8, length=20))
        scan.slot_column()
        scan.slot_column()
        assert scan.scans == 2
        assert scan.slots_read == 40


class TestScansOnColumn:
    """Each in-memory miner, on the column, against the references."""

    def test_single_period(self, shape, column_source):
        series, period, min_conf, max_letters = shape
        mined = mine_single_period_hitset(
            column_source(series), period, min_conf, max_letters=max_letters
        )
        reference = per_candidate_mine(series, period, min_conf, max_letters)
        assert dict(mined.items()) == reference
        if max_letters is None:
            assert dict(mined.items()) == brute_force_frequent(
                series, period, min_conf
            )

    def test_build_hit_tree(self, shape, column_source):
        series, period, min_conf, _ = shape
        tree, one_patterns = build_hit_tree(
            column_source(series), period, min_conf
        )
        reference = MaxSubpatternTree(one_patterns.max_pattern)
        reference.insert_all_segments(series)
        assert tree.stored_hits() == reference.stored_hits()
        assert tree.node_count == reference.node_count
        assert tree.hit_set_size == reference.hit_set_size

    def test_wide_cmax_takes_more_than_one_word(self):
        series, period, min_conf, _ = SHAPES["wide-cmax"]
        tree, _ = build_hit_tree(series, period, min_conf)
        assert len(tree.vocab) > 64
        assert any(mask >> 64 for mask in tree.stored_hits())

    @pytest.mark.parametrize("name", ["packed", "empty-slots", "floor-boundary"])
    def test_maximal(self, name, column_source):
        series, period, min_conf, _ = SHAPES[name]
        mined = mine_maximal_hitset(column_source(series), period, min_conf)
        expected = maximal_patterns(brute_force_frequent(series, period, min_conf))
        assert letters_of(mined) == letters_of(expected)

    @pytest.mark.parametrize("name", ["packed", "empty-slots", "floor-boundary"])
    def test_constrained(self, name, column_source):
        series, period, min_conf, _ = SHAPES[name]
        constraints = MiningConstraints(
            offsets=frozenset({0, 1, 3}), min_letters=2
        )
        mined = mine_with_constraints(
            column_source(series), period, min_conf, constraints
        )
        expected = {
            pattern: count
            for pattern, count in brute_force_frequent(
                series, period, min_conf
            ).items()
            if constraints.satisfied_by(pattern)
        }
        assert dict(mined.items()) == expected


def pair_counts(series, period, floor, length=None):
    """Scan 1's pair counts as letters, over the first ``length`` slots'
    rows (the whole segments by default)."""
    column = series.slot_column()
    num_periods = series.num_periods(period)
    if length is None:
        length = num_periods * period
    rows = scan1_rows(column, length, floor)
    letter_ids, counts = pair_letter_counts(
        column.table, rows, period, num_periods, floor
    )
    assert letter_ids.tolist() == sorted(set(letter_ids.tolist()))
    return column.table.letters_of(letter_ids, counts)


class TestPairLetterCounts:
    """Scan 1's floor-pruned pair counts against per-segment counting."""

    def check(self, series, period, floor):
        letters = pair_counts(series, period, floor)
        assert letters == per_segment_letter_counts(series, period, floor)
        return letters

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "shift", [None, -1, 0, 1], ids=["zero", "below", "at", "above"]
    )
    def test_floors_around_the_threshold(self, seed, shift):
        series = packed_series(seed, length=97, features=5)
        threshold = min_count(0.4, series.num_periods(6))
        floor = 0 if shift is None else threshold + shift
        letters = self.check(series, 6, floor)
        if shift == 0:
            assert letters and min(letters.values()) >= threshold

    def test_feature_total_at_the_floor_on_one_offset(self):
        series = floor_boundary_series()
        column = series.slot_column()

        def capable(floor):
            rows = scan1_rows(column, 60, floor)
            return {
                column.table.features[index] for index in rows.features.tolist()
            }

        assert "z" in capable(12) and "z" not in capable(13)
        assert self.check(series, 5, 12) == {(0, "a"): 12, (2, "z"): 12}
        assert self.check(series, 5, 13) == {}

    def test_feature_frequent_overall_but_below_the_floor_at_every_offset(self):
        # "w" sits at offset s % 4 of segment s: 12 in all, 3 at each offset.
        period, segments = 4, 12
        slots = [
            {"a"} if index % period == 0 else set()
            for index in range(period * segments)
        ]
        for segment in range(segments):
            slots[segment * period + segment % period].add("w")
        series = FeatureSeries(slots)
        assert self.check(series, period, 6) == {(0, "a"): 12}
        assert self.check(series, period, 3)[(1, "w")] == 3

    @pytest.mark.parametrize("extra", [1, 4])
    def test_length_not_a_multiple_of_the_period(self, extra):
        series = packed_series(11, length=5 * 13 + extra, features=4)
        for floor in (0, 3, 6):
            self.check(series, 5, floor)

    def test_all_empty_slots(self):
        series = FeatureSeries([set()] * 20)
        for floor in (0, 1):
            assert self.check(series, 4, floor) == {}

    def test_no_whole_segment(self):
        # Period 5 over 3 slots: the prefix of whole segments is empty.
        column = FeatureSeries([{"a"}, {"b"}, {"a"}]).slot_column()
        for floor in (0, 1):
            rows = scan1_rows(column, 0, floor)
            assert len(rows.positions) == 0
            letter_ids, counts = pair_letter_counts(
                column.table, rows, 5, 0, floor
            )
            assert len(letter_ids) == len(counts) == 0

    def test_more_than_64_letters(self):
        series = grid_series(8, "abcdefgh", 40, extra=[(3, "z")])
        assert len(all_letters(series, 8)) == 65
        for floor in (0, 1, 20, 21):
            self.check(series, 8, floor)

    @pytest.mark.parametrize("period", [3, 7])
    def test_noisy_distinct_slots(self, period):
        series = noisy_series()
        assert len(series.slot_column().table.slots) > 0.8 * len(series)
        for floor in (0, 2, 3, 5):
            self.check(series, period, floor)

    def test_one_selection_serves_periods_with_different_floors(self):
        # Shared mining selects rows once, over the longest prefix at the
        # lowest floor, and counts every period from them.
        series = packed_series(13, length=131, features=4)
        periods = [3, 7, 11, 20]
        floors = {
            period: min_count(0.35, series.num_periods(period))
            for period in periods
        }
        assert len(set(floors.values())) == len(periods)
        column = series.slot_column()
        rows = scan1_rows(
            column,
            max(series.num_periods(p) * p for p in periods),
            min(floors.values()),
        )
        for period, floor in floors.items():
            letter_ids, counts = pair_letter_counts(
                column.table, rows, period, series.num_periods(period), floor
            )
            assert column.table.letters_of(letter_ids, counts) == (
                per_segment_letter_counts(series, period, floor)
            )

    def test_shared_mining_with_different_floors(self):
        series = packed_series(13, length=131, features=4)
        periods = [3, 7, 11, 20]
        shared = mine_periods_shared(series, periods, 0.35)
        for period in periods:
            single = mine_single_period_hitset(series, period, 0.35)
            reference = per_candidate_mine(series, period, 0.35)
            assert dict(shared[period].items()) == reference
            assert dict(single.items()) == reference
            for stat in ("tree_nodes", "hit_set_size", "candidate_counts"):
                assert getattr(shared[period].stats, stat) == getattr(
                    single.stats, stat
                )

    def test_cache_requery_at_a_lower_min_conf(self):
        # The cache stores scan 1 at floor 0, so a lower min_conf after a
        # higher one needs only scan 2.
        series = packed_series(22, length=97, features=5)
        cache = CountCache()
        high = mine_single_period_hitset(series, 6, 0.7, cache=cache)
        assert dict(high.items()) == brute_force_frequent(series, 6, 0.7)
        stored = cache.get_letter_counts(cache.key_for(series, 6))
        assert dict(stored) == per_segment_letter_counts(series, 6)
        scan = ScanCountingSeries(series)
        low = mine_single_period_hitset(scan, 6, 0.3, cache=cache)
        assert scan.scans == 1
        assert dict(low.items()) == brute_force_frequent(series, 6, 0.3)


@st.composite
def tally_cases(draw):
    """A column, a selection over a prefix that may end mid-segment, and
    several periods with floors at or above the selection's.

    ``single`` columns hold at most one feature a slot and ``multi`` ones
    at least two, so at floor 0 every kept row is in one half; ``mixed``
    slots hold 0 to 3 features, and a floor splits them further.  Up to
    12 features and periods up to 30 put the period x feature product
    above the row count about as often as below it.
    """
    shape = draw(st.sampled_from(["mixed", "single", "multi"]))
    alphabet = [f"f{index}" for index in range(draw(st.integers(1, 12)))]
    low, high = {"mixed": (0, 3), "single": (0, 1), "multi": (2, 3)}[shape]
    slot = st.sets(
        st.sampled_from(alphabet), min_size=min(low, len(alphabet)), max_size=high
    )
    series = FeatureSeries(draw(st.lists(slot, min_size=1, max_size=90)))
    periods = draw(
        st.lists(
            st.integers(1, min(30, len(series))), min_size=1, max_size=4, unique=True
        )
    )
    whole = max(series.num_periods(period) * period for period in periods)
    length = whole + draw(st.integers(0, len(series) - whole))
    top = max(Counter(f for slot in series for f in slot).values(), default=0) + 2
    selection = draw(st.integers(0, top))
    floors = {period: draw(st.integers(selection, top)) for period in periods}
    return series, length, selection, floors


class TestTallyProperty:
    """The two-half tally against per-segment counting, on any shape."""

    @settings(max_examples=300, deadline=None)
    @given(tally_cases())
    def test_matches_per_segment_counting(self, case):
        series, length, selection, floors = case
        column = series.slot_column()
        table = column.table
        rows = scan1_rows(column, length, selection)
        for period, floor in floors.items():
            letter_ids, counts = pair_letter_counts(
                table, rows, period, series.num_periods(period), floor
            )
            assert letter_ids.tolist() == sorted(set(letter_ids.tolist()))
            expected = letter_counts_for_segments(series.segments(period))
            assert table.letters_of(letter_ids, counts) == {
                letter: count
                for letter, count in expected.items()
                if count >= floor
            }

    @pytest.mark.parametrize(
        "slots_of, singles, multis",
        [
            (lambda i: {"a"} if i % 3 else set(), True, False),
            (lambda i: {"a", "b", "c"} if i % 3 else {"a", "b"}, False, True),
            (lambda i: [set(), {"a"}, {"a", "b"}][i % 3], True, True),
        ],
        ids=["all-single", "all-multi", "mixed"],
    )
    def test_rows_split_by_capable_features(self, slots_of, singles, multis):
        series = FeatureSeries([slots_of(index) for index in range(60)])
        rows = scan1_rows(series.slot_column(), 60, 0)
        width = len(rows.features)
        assert (rows.codes < width).any() == singles
        assert (len(rows.multi_positions) > 0) == multis
        assert rows.multi_positions.tolist() == (
            rows.positions[rows.codes == width].tolist()
        )
        for period in (1, 4, 7):
            assert pair_counts(series, period, 0) == (
                per_segment_letter_counts(series, period)
            )

    @pytest.mark.parametrize("period, sorts", [(2, 0), (60, 2)])
    def test_bins_or_sort_by_size(self, monkeypatch, period, sorts):
        # 120 slots alternating {a} and {b, c}: 3 capable features, 60
        # single and 60 multi rows.  At period 2 there are 8 letter bins
        # and 4 pair bins, fewer than the rows, so both tallies bincount.
        # At period 60, 240 letter bins outnumber the 120 rows and 60
        # fanned pairs, and 120 pair bins the 60 multi rows: both sort.
        series = FeatureSeries([[{"a"}, {"b", "c"}][i % 2] for i in range(120)])
        calls = []

        def spy(keys):
            calls.append(len(keys))
            return group_keys(keys)

        monkeypatch.setattr(slots, "group_keys", spy)
        for floor in (0, 2, 3):
            calls.clear()
            assert pair_counts(series, period, floor) == (
                per_segment_letter_counts(series, period, floor)
            )
            assert len(calls) == sorts


def reference_hits(series, period, letters):
    """Per-segment hits: bit ``i`` of a segment's mask is set when it holds
    ``letters[i]``; masks of fewer than two letters drop."""
    bit_of = {letter: 1 << index for index, letter in enumerate(letters)}
    hits: dict[int, int] = {}
    for segment in series.segments(period):
        mask = 0
        for offset, slot in enumerate(segment):
            for feature in slot:
                mask |= bit_of.get((offset, feature), 0)
        if mask.bit_count() >= 2:
            hits[mask] = hits.get(mask, 0) + 1
    return hits


def all_letters(series, period):
    """Every ``(offset, feature)`` letter of the whole segments, sorted."""
    return sorted(
        {
            (offset, feature)
            for segment in series.segments(period)
            for offset, slot in enumerate(segment)
            for feature in slot
        }
    )


def grid_series(period, features, segments, extra=(), seed=0):
    """Every slot holds a random half of ``features``, so the series has
    ``period * len(features)`` letters; ``extra`` adds ``(position,
    feature)`` occurrences on top."""
    rng = random.Random(seed)
    slots = [
        {feature for feature in features if rng.random() < 0.5}
        for _ in range(period * segments)
    ]
    for index in range(period):
        slots[index] |= set(features)
    for position, feature in extra:
        slots[position].add(feature)
    return FeatureSeries(slots)


def noisy_series(length=900, alphabet=300, seed=4):
    """One to four random features a slot from a wide alphabet: nearly
    every slot is distinct (D close to N)."""
    rng = random.Random(seed)
    return FeatureSeries(
        [
            {f"n{rng.randrange(alphabet)}" for _ in range(rng.randint(1, 4))}
            for _ in range(length)
        ]
    )


class TestDistinctRows:
    """Distinct rows and their counts, ascending, at one word or several."""

    @pytest.mark.parametrize("words", [1, 2, 3])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_counter(self, words, weighted):
        rng = np.random.default_rng(words)
        rows = rng.integers(0, 6, size=(500, words)).astype(np.uint64) << 61
        weights = rng.integers(1, 9, size=500) if weighted else None
        expected = Counter()
        for index, row in enumerate(map(tuple, rows.tolist())):
            expected[row] += 1 if weights is None else int(weights[index])
        distinct, counts = distinct_rows(rows, weights)
        assert distinct.shape == (len(expected), words)
        assert distinct.dtype == np.uint64
        got = [tuple(row) for row in distinct.tolist()]
        assert got == sorted(expected)
        assert dict(zip(got, counts.tolist())) == expected

    @pytest.mark.parametrize("words", [1, 2])
    def test_empty(self, words):
        distinct, counts = distinct_rows(np.zeros((0, words), np.uint64))
        assert distinct.shape == (0, words) and len(counts) == 0


class TestGroupKeys:
    """The grouping (presence table or packed sort) against
    ``np.unique(return_inverse=True)``."""

    def check(self, keys):
        distinct, inverse = group_keys(keys)
        expected, expected_inverse = np.unique(keys, return_inverse=True)
        assert distinct.dtype == keys.dtype
        assert distinct.tolist() == expected.tolist()
        assert inverse.tolist() == expected_inverse.ravel().tolist()

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_unique(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 3000))
        high = int(rng.choice([3, 100, 1 << 20, 1 << 40]))
        low = -high if seed % 2 else 0
        self.check(rng.integers(low, high, size))
        self.check(rng.integers(0, min(high, 1 << 30), size).astype(np.int32))

    def test_single_key_and_empty(self):
        self.check(np.array([7], np.int64))
        distinct, inverse = group_keys(np.zeros(0, np.int64))
        assert len(distinct) == 0 and len(inverse) == 0

    def test_keys_too_wide_to_pack_fall_back_to_argsort(self, monkeypatch):
        # A range of 2^60 leaves too few bits for 4,000 positions.
        rng = np.random.default_rng(11)
        keys = rng.integers(0, 6, 4_000) << 60
        keys += rng.integers(0, 3, 4_000)
        calls = []
        argsort = np.argsort

        def counted(values):
            calls.append(len(values))
            return argsort(values)

        monkeypatch.setattr(slots.np, "argsort", counted)
        self.check(keys)
        assert calls == [4_000]

    def test_a_column_near_two_to_the_28_slots(self, monkeypatch):
        # segment_rows' keys for a group of 64 offsets over a column of
        # ~2^28 distinct slots span 34 bits: with 5,000 positions (13
        # bits) they pack.  Shifted 17 bits up they need 64 and fall back.
        calls = []
        argsort = np.argsort
        monkeypatch.setattr(
            slots.np, "argsort", lambda values: calls.append(1) or argsort(values)
        )
        rng = np.random.default_rng(5)
        distinct_slots = (1 << 28) - 3
        keys = rng.integers(0, 64, 5_000) * distinct_slots
        keys += rng.integers(0, distinct_slots, 5_000)
        self.check(keys)
        assert not calls
        self.check(keys << 17)
        assert calls

    def sorts(self, monkeypatch, keys):
        """The ``np.sort`` / ``np.argsort`` calls grouping ``keys`` makes."""
        calls = []
        for name in ("sort", "argsort"):
            real = getattr(np, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(slots.np, name, spy)
        group_keys(keys)
        monkeypatch.undo()
        self.check(keys)
        return calls

    def test_dense_keys_group_without_a_sort(self, monkeypatch):
        rng = np.random.default_rng(3)
        dense = rng.integers(0, 5_000, 4_000)
        sparse = rng.integers(0, 1 << 40, 4_000)
        assert self.sorts(monkeypatch, dense) == []
        assert self.sorts(monkeypatch, sparse) == ["sort"]

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    @pytest.mark.parametrize("low", [0, -7_000])
    @pytest.mark.parametrize("outside", [False, True])
    def test_span_bound(self, monkeypatch, dtype, low, outside):
        # 1,000 keys spanning DENSE_SPAN * 1,000 values group densely;
        # one value more and they sort.
        size = 1_000
        span = slots.DENSE_SPAN * size + outside
        rng = np.random.default_rng(span)
        keys = rng.integers(low, low + span, size).astype(dtype)
        keys[:2] = low, low + span - 1
        assert self.sorts(monkeypatch, keys) == (["sort"] if outside else [])

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_one_repeated_key(self, monkeypatch, dtype):
        assert self.sorts(monkeypatch, np.full(500, -3, dtype)) == []


class TestSlotCounts:
    """The column's kept slot counts, less the tail past a prefix."""

    @staticmethod
    def columns(tmp_path, monkeypatch):
        """Columns from load_series, intern_slots (a series' lazy column)
        and the parts a store build cuts from that lazy column."""
        series = packed_series(4, length=203)
        path = tmp_path / "series.txt"
        save_series(series, path)
        parts = []
        build = store_module.segment_rows

        def keep(part, *args):
            parts.append(part)
            return build(part, *args)

        monkeypatch.setattr(store_module, "_BUILD_SLOTS", 60)
        monkeypatch.setattr(store_module, "segment_rows", keep)
        SegmentStore.from_series(series, 5)
        assert len(parts) == 4
        return [load_series(path).slot_column(), series.slot_column(), *parts]

    def test_prefix_counts_equal_a_fresh_bincount(self, tmp_path, monkeypatch):
        for column in self.columns(tmp_path, monkeypatch):
            slot_ids = len(column.table.slots)
            for length in (len(column.ids), len(column.ids) - 1, 37, 1, 0):
                expected = np.bincount(column.ids[:length], minlength=slot_ids)
                assert column.slot_counts(length).tolist() == expected.tolist()

    @pytest.mark.parametrize("floor", [0, 3, 9])
    def test_scan1_rows_on_a_prefix(self, tmp_path, monkeypatch, floor):
        # The capable features and kept positions follow the prefix's
        # own feature totals, counted here from a fresh bincount.
        for column in self.columns(tmp_path, monkeypatch):
            table = column.table
            for length in (len(column.ids), len(column.ids) - 4, 25):
                prefix = column.ids[:length]
                totals = table.feature_totals(
                    np.bincount(prefix, minlength=len(table.slots))
                )
                capable = np.flatnonzero(totals >= max(floor, 1))
                names = {table.features[feature] for feature in capable}
                rows = scan1_rows(column, length, floor)
                assert rows.features.tolist() == capable.tolist()
                assert rows.positions.tolist() == [
                    i for i, slot in enumerate(table.slots_of(prefix)) if slot & names
                ]

    def test_counts_kept_per_column(self, tmp_path, monkeypatch):
        columns = self.columns(tmp_path, monkeypatch)
        whole = [column.slot_counts(len(column.ids)) for column in columns]
        for column, counts in zip(columns, whole):
            assert column.slot_counts(len(column.ids)) is counts
            assert not counts.flags.writeable
            assert counts.sum() == len(column.ids)
        # The parts share the lazy column's table, not its counts.
        assert {column.table for column in columns[2:]} == {columns[1].table}
        assert len({id(counts) for counts in whole}) == len(whole)

    def test_threads_racing_to_count(self):
        # More threads than cores, switching often: each must read whole
        # counts, whichever thread's array the column kept.
        series = packed_series(9, length=5_000)
        table = series.slot_column().table
        ids = series.slot_column().ids
        expected = np.bincount(ids[:4_990], minlength=len(table.slots)).tolist()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                column = SlotColumn(table, ids)
                barrier = threading.Barrier(4, timeout=10)
                results = []

                def count():
                    barrier.wait()
                    results.append(column.slot_counts(4_990).tolist())

                threads = [threading.Thread(target=count) for _ in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                assert results == [expected] * 4
        finally:
            sys.setswitchinterval(interval)


class TestSegmentHits:
    """Scan 2 against per-segment hit counting over the frozensets."""

    def check(self, series, period, letters):
        column = series.slot_column()
        ids = column.table.letter_ids(letters)
        hits = segment_hits(column, period, series.num_periods(period), ids)
        assert len({mask for mask, _ in hits}) == len(hits)
        assert dict(hits) == reference_hits(series, period, letters)
        return hits

    @pytest.mark.parametrize("seed", range(4))
    def test_packed(self, seed):
        series = packed_series(seed, length=97, features=5)
        self.check(series, 6, all_letters(series, 6))

    @pytest.mark.parametrize(
        "extra, width",
        [((), 64), ([(3, "z")], 65)],
        ids=["64-letters", "65-letters"],
    )
    def test_one_word_boundary(self, extra, width):
        series = grid_series(8, "abcdefgh", 40, extra=extra)
        letters = all_letters(series, 8)
        assert len(letters) == width
        hits = self.check(series, 8, letters)
        assert any(mask >> 63 for mask, _ in hits)
        if width == 65:
            assert any(mask >> 64 for mask, _ in hits)

    def test_more_than_two_words(self):
        series = grid_series(20, "abcdefg", 30, seed=1)
        letters = all_letters(series, 20)
        assert len(letters) == 140
        hits = self.check(series, 20, letters)
        assert any(mask >> 128 for mask, _ in hits)

    def test_bit_order_is_not_letter_order(self):
        # Shuffled bits put an offset's letters in several words, so one
        # group of offsets spans words it does not start in.
        series = grid_series(20, "abcdefg", 30, seed=2)
        letters = all_letters(series, 20)
        random.Random(5).shuffle(letters)
        self.check(series, 20, letters)

    @pytest.mark.parametrize("period", [3, 7])
    def test_noisy_distinct_slots(self, period):
        series = noisy_series()
        assert len(series.slot_column().table.slots) > 0.8 * len(series)
        letters = all_letters(series, period)
        assert len(letters) > 128
        self.check(series, period, letters)

    def test_empty_slots(self):
        series, period, _, _ = SHAPES["empty-slots"]
        self.check(series, period, all_letters(series, period))
        blank = FeatureSeries([set()] * 10 + [{"a"}, {"b"}] + [set()] * 8)
        self.check(blank, 4, all_letters(blank, 4))

    def test_cmax_on_a_single_offset(self):
        series = packed_series(9, length=120, features=6)
        letters = [letter for letter in all_letters(series, 5) if letter[0] == 2]
        assert len(letters) >= 2
        self.check(series, 5, letters)

    @pytest.mark.parametrize("extra", [1, 4])
    def test_length_not_a_multiple_of_the_period(self, extra):
        series = packed_series(11, length=5 * 13 + extra, features=4)
        assert len(series) % 5
        self.check(series, 5, all_letters(series, 5))

    def test_shared_mining_over_a_period_range(self):
        series = packed_series(12, length=203, features=4)
        periods = range(3, 9)
        shared = mine_periods_shared(series, periods, 0.3)
        for period in periods:
            single = mine_single_period_hitset(series, period, 0.3)
            assert dict(shared[period].items()) == dict(single.items())
            assert dict(shared[period].items()) == brute_force_frequent(
                series, period, 0.3
            )
            for stat in ("tree_nodes", "hit_set_size", "candidate_counts"):
                assert getattr(shared[period].stats, stat) == getattr(
                    single.stats, stat
                )


class TestCacheRequeryByName:
    """Cached letter counts and hits are keyed by letter, not letter id."""

    def reordered(self, series: FeatureSeries) -> FeatureSeries:
        """Equal content, with distinct-slot ids (and so feature ids)
        assigned in reverse first-seen order."""
        column = series.slot_column()
        distinct = column.table.slots
        order = list(reversed(range(len(distinct))))
        new_id = {old: new for new, old in enumerate(order)}
        table = SlotTable([distinct[old] for old in order])
        ids = column.ids.copy()
        for old, new in new_id.items():
            ids[column.ids == old] = new
        return FeatureSeries._from_column(SlotColumn(table, ids))

    def test_requery_on_equal_content_with_other_feature_order(self):
        series = packed_series(21, length=81, features=5)
        other = self.reordered(series)
        assert other == series
        assert other.content_digest() == series.content_digest()
        assert other.slot_column().table.features != (
            series.slot_column().table.features
        )
        cache = CountCache()
        mine_single_period_hitset(series, 4, 0.6, cache=cache)
        # A lower threshold re-runs scan 2 on ``other`` over letters whose
        # scan-1 counts came from ``series``.
        scan = ScanCountingSeries(other)
        warm = mine_single_period_hitset(scan, 4, 0.25, cache=cache)
        assert scan.scans == 1
        assert dict(warm.items()) == brute_force_frequent(series, 4, 0.25)
        # And the hits ``other`` stored serve ``series`` at a higher one.
        scan = ScanCountingSeries(series)
        again = mine_single_period_hitset(scan, 4, 0.5, cache=cache)
        assert scan.scans == 0
        assert dict(again.items()) == brute_force_frequent(series, 4, 0.5)
