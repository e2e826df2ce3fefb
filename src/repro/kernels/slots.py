"""Interned slot-column kernels — the two scans of every in-memory mine.

A :class:`~repro.timeseries.feature_series.FeatureSeries` keeps one
interned slot column (:class:`SlotColumn`): a :class:`SlotTable` of its
distinct slots, each with its feature ids in CSR form, plus one
``int32`` slot id per slot.  :func:`repro.timeseries.io.load_series`
builds it while parsing; any other series builds it once, on its first
mine (:func:`intern_slots`).  Every in-memory scan then runs as bulk
numpy ops over the column instead of one interpreter round-trip per
slot, period and feature:

* Scan 1 is floor-pruned letter tallying.  It needs only the letters
  found in at least ``floor`` of the ``m`` whole segments, and a letter
  ``(o, f)`` can get there only if feature ``f`` occurs that often in
  the ``m * p`` whole-segment slots.  :func:`scan1_rows` takes every
  feature's total from the prefix's slot counts fanned out through the
  CSR (the column keeps its whole slot counts from its first mine on,
  and a prefix subtracts the fewer than ``p`` slots past it), keeps the
  positions whose slot holds a feature that can reach the floor, and
  codes each by how many such *capable* features its slot holds
  (:class:`Scan1Rows`): exactly one gives that feature's rank, more
  than one gives the code ``C`` and lists the position, with its slot
  id, among the multi-feature rows.
  :func:`pair_letter_counts` then counts one period: one
  ``np.bincount`` of ``(i % p) * (C + 1) + code`` tallies the
  single-feature rows, and the multi-feature rows' ``(offset, slot)``
  pair counts fan out through a CSR of capable features into the same
  bins.  On sparse data nearly every kept row holds one capable
  feature, so a period costs no sort; wherever bins would outnumber
  the rows they count, the same keys are grouped by :func:`group_keys`
  instead.  No occurrence is ever expanded, and at floor 0 (a count
  cache keeps every letter) it counts every non-empty slot.
* :func:`segment_hits` is scan 2 for one period.  It asks only which
  ``C_max`` letters each segment holds, and those sit on at most
  ``|C_max|`` of the ``p`` offsets, so it reads only the column's slots
  at those offsets.  The distinct slots there (found by
  :func:`group_keys`, with no sort while they span few values) each
  get one bit row, built from their CSR features through a feature ->
  bit table, and every segment ORs in the rows of its slots: ``k``
  ``uint64`` words per segment, with ``k = ceil(|C_max| / 64)``.  Rows
  with fewer than two letters drop, and one lexicographic sort plus a
  diff of neighbours collapses the rest to the distinct hits with their
  counts.  The work follows the slots and features at the ``C_max``
  offsets, never all occurrences or the number of distinct slots.  The
  row build alone is :func:`segment_rows`, which also builds every
  :class:`~repro.kernels.store.SegmentStore`.
* :meth:`SlotColumn.occurrences` expands the whole column into one
  ``(position, feature)`` row per feature occurrence
  (:class:`Occurrences`), and :func:`letter_totals` counts every letter
  of one period from them by sorting.  Period discovery reads these: it
  needs every letter of many periods, which the pair counts do not
  prune.

The single-period miners (Algorithm 3.2 and its maximal and constrained
forms) call the scans for one period; shared multi-period mining
(Algorithm 3.4) selects scan 1's rows once, over the longest prefix at
the lowest floor, and counts every period from them.  Memory is
``O(N)`` for scan 1's position selection plus arrays sized by the kept
positions, the distinct slots, the features and a period's ``p * (C +
1)`` letter bins, and ``O(m * k)`` plus
one group of offsets' bit rows for scan 2; no distinct-slots x features
matrix is ever built, because on noisy data there are about as many
distinct slots as slots.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.pattern import Letter


@dataclass(frozen=True, slots=True)
class Occurrences:
    """Every feature occurrence of a series, as ``(position, feature)`` rows.

    ``positions`` is ascending (slot order), so the occurrences of the
    first ``n`` slots are a prefix of both arrays.
    """

    positions: np.ndarray
    features: np.ndarray
    num_features: int

    def whole_segments(
        self, period: int, num_periods: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Positions and letter ids of the occurrences in the ``m`` segments.

        A letter's id is ``offset * num_features + feature``; slots from
        ``m * period`` on belong to no whole segment and are left out.
        """
        end = int(np.searchsorted(self.positions, num_periods * period))
        positions = self.positions[:end]
        letters = (positions % period) * self.num_features + self.features[:end]
        return positions, letters

    def feature_totals(self) -> np.ndarray:
        """Occurrences of each feature id over the whole series."""
        return np.bincount(self.features, minlength=self.num_features)


class SlotTable:
    """Distinct slots with dense ids, and dense ids for their features.

    ``slots[d]`` is distinct slot ``d`` and ``features[i]`` the feature of
    feature id ``i``, in first-seen order.  Distinct slot ``d`` holds the
    feature ids ``feature_ids[indptr[d]:indptr[d + 1]]``.
    """

    __slots__ = (
        "slots", "features", "_feature_index", "_indptr", "_sizes", "_feature_ids"
    )

    def __init__(self, distinct: Iterable[frozenset[str]]) -> None:
        """Intern ``distinct``: the ``d``-th slot given gets slot id ``d``."""
        self.slots: list[frozenset[str]] = list(distinct)
        names = [feature for slot in self.slots for feature in slot]
        self._feature_index: dict[str, int] = {
            feature: index for index, feature in enumerate(dict.fromkeys(names))
        }
        self.features: list[str] = list(self._feature_index)
        self._sizes = np.fromiter(map(len, self.slots), np.int32, len(self.slots))
        self._indptr = np.zeros(len(self.slots) + 1, np.int64)
        np.cumsum(self._sizes, out=self._indptr[1:])
        self._feature_ids = np.fromiter(
            map(self._feature_index.__getitem__, names), np.int32, len(names)
        )

    def slots_of(self, slot_ids: np.ndarray) -> tuple[frozenset[str], ...]:
        """The slot of every id, in order (equal slots share one object)."""
        return tuple(map(self.slots.__getitem__, slot_ids.tolist()))

    def feature_rows(self, slot_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One ``(owner, feature)`` row per feature of the given slots.

        ``owners[r]`` indexes ``slot_ids``: a slot's rows are consecutive,
        in CSR order, and owners ascend.  Apart from ``slot_ids`` itself,
        every array here is sized by its non-empty slots or by the rows.
        """
        return _fan_out(
            self._indptr, self._feature_ids, slot_ids, self._sizes[slot_ids]
        )

    def expand(self, slot_ids: np.ndarray) -> Occurrences:
        """The occurrence rows of a series given as its slot ids."""
        return Occurrences(*self.feature_rows(slot_ids), len(self.features))

    def feature_totals(self, slot_counts: np.ndarray) -> np.ndarray:
        """Each feature's total when slot ``d`` occurs ``slot_counts[d]`` times."""
        weights = np.repeat(slot_counts, self._sizes)
        return np.bincount(
            self._feature_ids, weights=weights, minlength=len(self.features)
        ).astype(np.int64)

    def wanted_ranks(self, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each distinct slot's features where ``wanted`` is set, as a CSR.

        A wanted feature's rank is its place among the wanted feature ids,
        ascending.  Distinct slot ``d`` holds the ranks
        ``ranks[indptr[d]:indptr[d + 1]]``, in CSR order, so
        ``np.diff(indptr)`` is how many wanted features each slot holds.
        """
        flags = wanted[self._feature_ids]
        held = np.zeros(len(self._feature_ids) + 1, np.int64)
        np.cumsum(flags, out=held[1:])
        rank = np.cumsum(wanted) - 1
        return held[self._indptr], rank[self._feature_ids[flags]]

    def letters_of(
        self, letter_ids: np.ndarray, counts: np.ndarray
    ) -> dict[Letter, int]:
        """``(offset, feature) -> count`` for letter ids and their counts."""
        width = len(self.features)
        names = self.features
        return {
            (letter // width, names[letter % width]): count
            for letter, count in zip(letter_ids.tolist(), counts.tolist())
        }

    def letter_ids(self, letters: Iterable[Letter]) -> np.ndarray:
        """The letter id of each ``(offset, feature)`` letter, in order."""
        width = len(self.features)
        index = self._feature_index
        return np.array(
            [offset * width + index[feature] for offset, feature in letters],
            dtype=np.int64,
        )


@dataclass(frozen=True, slots=True)
class SlotColumn:
    """A series as one slot id per slot into its table of distinct slots."""

    table: SlotTable
    #: ``int32`` distinct-slot id of every slot, in slot order.
    ids: np.ndarray
    #: Read-only occurrences of each distinct slot in the whole column,
    #: counted on first use; ``None`` until then.
    _counts: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def occurrences(self) -> Occurrences:
        """One read of the column: its occurrence rows."""
        return self.table.expand(self.ids)

    def slot_counts(self, length: int) -> np.ndarray:
        """How often each distinct slot occurs among the first ``length`` slots.

        The whole column's counts are one ``np.bincount`` of the slot
        ids, made on first use and kept with the column (not its table,
        which a store build's part columns share); a prefix then costs
        a copy of them less the slots past it.  Two threads that race to
        make the counts each build a whole array and keep one of them,
        so neither ever reads a half-built one.
        """
        counts = self._counts
        if counts is None:
            counts = np.bincount(self.ids, minlength=len(self.table.slots))
            counts.flags.writeable = False
            object.__setattr__(self, "_counts", counts)
        tail = self.ids[length:]
        if not len(tail):
            return counts
        counts = counts.copy()
        np.subtract.at(counts, tail, 1)
        return counts


def intern_slots(slots: Sequence[frozenset[str]]) -> SlotColumn:
    """The slot column of ``slots``: one dictionary pass, then one lookup each."""
    index = {slot: id_ for id_, slot in enumerate(dict.fromkeys(slots))}
    return SlotColumn(
        SlotTable(index),
        np.fromiter(map(index.__getitem__, slots), np.int32, len(slots)),
    )


@dataclass(frozen=True, slots=True)
class Scan1Rows:
    """The positions of a slot-column prefix that scan 1 reads.

    A position is kept when its slot holds a *capable* feature: one whose
    total over the prefix reaches the floor (and at least 1), the only
    features a letter at or above the floor can have.  Each kept position
    gets a code: a slot holding exactly one capable feature gives that
    feature's rank (its index in ``features``), and any other slot gives
    ``C = len(features)``, a bin no letter reads.  The positions coded
    ``C`` are also listed apart with their slot ids, and the capable-only
    CSR fans those slots out.  Positions ascend in both lists, so the
    rows inside a shorter prefix are a prefix of each list's arrays.
    """

    #: ``int64`` kept positions, ascending.
    positions: np.ndarray
    #: Each kept position's code: its one capable feature's rank, or ``C``.
    codes: np.ndarray
    #: ``int64`` positions whose slot holds two or more capable features.
    multi_positions: np.ndarray
    #: Distinct-slot id of each multi position.
    multi_slots: np.ndarray
    #: Feature ids of the capable features, ascending: rank ``r`` is
    #: feature ``features[r]``.
    features: np.ndarray
    #: The capable-only CSR: distinct slot ``d`` holds the capable ranks
    #: ``ranks[indptr[d]:indptr[d + 1]]``.
    indptr: np.ndarray
    ranks: np.ndarray


def scan1_rows(column: SlotColumn, length: int, floor: int) -> Scan1Rows:
    """The rows of the first ``length`` slots that can hold a letter >= ``floor``.

    The prefix's slot counts (:meth:`SlotColumn.slot_counts`: the
    column's kept counts less the slots past ``length``), fanned out
    through the CSR, give every feature's total; a letter ``(o, f)``
    occurs at most as often as ``f`` does, so only features with a
    total of at least ``max(floor, 1)`` can reach the floor.  The capable-only CSR
    (:meth:`SlotTable.wanted_ranks`) says how many capable features each
    distinct slot holds, which keeps a position and gives its code.
    Past the column's first count, everything but that lookup of the
    slot ids is sized by the distinct slots, the features and the kept
    positions.
    """
    table = column.table
    ids = column.ids[:length]
    totals = table.feature_totals(column.slot_counts(length))
    capable = totals >= max(floor, 1)
    features = np.flatnonzero(capable)
    indptr, ranks = table.wanted_ranks(capable)
    held = np.diff(indptr)
    code = np.full(len(held), len(features), np.int32)
    single = np.flatnonzero(held == 1)
    code[single] = ranks[indptr[single]]
    positions = np.flatnonzero(held.astype(bool).take(ids))
    kept = ids.take(positions)
    codes = code.take(kept)
    multi = np.flatnonzero(codes == len(features))
    return Scan1Rows(
        positions,
        codes,
        positions.take(multi),
        kept.take(multi),
        features,
        indptr,
        ranks,
    )


def pair_letter_counts(
    table: SlotTable,
    rows: Scan1Rows,
    period: int,
    num_periods: int,
    floor: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Scan 1 for one period: the letters at or above ``floor``, with counts.

    ``rows`` must cover at least the ``num_periods`` whole segments and
    have been selected at a floor no higher than ``floor``.  Letters are
    tallied in bins ``offset * (C + 1) + rank`` over the ``C`` capable
    features, and two :func:`_tally` calls count them, with no sort while
    the bins are fewer than the rows:

    * every kept position is one row of bin ``(i % p) * (C + 1) + code``,
      which is its letter's bin when its slot holds one capable feature
      (the bins of code ``C`` are read by no letter);
    * the multi-feature positions are tallied as ``(offset, slot)`` pair
      keys ``(i % p) * D + slot id``, and each distinct pair fans out
      through the capable-only CSR into the bins of its capable
      features, weighted by its count.

    Returns ascending letter ids (``offset * num_features + feature``)
    and their counts; at floor 0 that is every letter that occurs.
    """
    length = num_periods * period
    capable = len(rows.features)
    stride = capable + 1
    positions = rows.positions[: int(np.searchsorted(rows.positions, length))]
    bins = _offsets(positions, period)
    bins *= stride
    bins += rows.codes[: len(positions)]
    end = int(np.searchsorted(rows.multi_positions, length))
    distinct_slots = len(table.slots)
    pairs = _offsets(rows.multi_positions[:end], period)
    pairs *= distinct_slots
    pairs += rows.multi_slots[:end]
    pairs, pair_counts = _tally(pairs, period * distinct_slots)
    pair_offsets, slot_ids = np.divmod(pairs, distinct_slots)
    indptr = rows.indptr
    owners, ranks = _fan_out(
        indptr, rows.ranks, slot_ids, indptr[slot_ids + 1] - indptr[slot_ids]
    )
    fanned = pair_offsets[owners] * stride
    fanned += ranks
    bins, counts = _tally(bins, period * stride, fanned, pair_counts[owners])
    offsets, ranks = np.divmod(bins, stride)
    # Rank C is the bin of the multi-feature rows themselves: no letter.
    kept = (counts >= max(floor, 1)) & (ranks < capable)
    letters = offsets[kept] * len(table.features)
    letters += rows.features[ranks[kept]]
    return letters, counts[kept]


def _offsets(positions: np.ndarray, period: int) -> np.ndarray:
    """``positions % period``, as ``positions - positions // period * period``.

    numpy divides by a scalar several times faster than it takes a
    remainder.
    """
    offsets = positions // period
    offsets *= -period
    offsets += positions
    return offsets


def _fan_out(
    indptr: np.ndarray, values: np.ndarray, ids: np.ndarray, sizes: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One ``(owner, value)`` row per CSR value of each id.

    Id ``ids[i]`` holds the ``sizes[i]`` values from
    ``values[indptr[ids[i]]]`` on.  ``owners[r]`` indexes ``ids``: an
    id's rows are consecutive, in CSR order, and owners ascend.
    """
    occupied = np.flatnonzero(sizes)
    lengths = sizes[occupied]
    # Row r of an id reads values[start + r - first], where start is its
    # CSR row and first is the id's first row.
    shift = indptr[ids[occupied]]
    shift -= np.cumsum(lengths) - lengths
    index = np.repeat(shift, lengths)
    del shift
    index += np.arange(len(index))
    return np.repeat(occupied, lengths), values[index]


def _tally(
    keys: np.ndarray,
    size: int,
    weighted: np.ndarray | None = None,
    weights: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in ``range(size)``, ascending, with their counts.

    Each of ``keys`` counts 1, and each of ``weighted`` (when given) its
    entry of ``weights``.  One ``np.bincount`` into ``size`` bins when
    there are no more bins than keys; past that (long periods over wide
    vocabularies or many distinct slots) the bins would outgrow the rows
    they count, and :func:`group_keys` groups the same keys by sort
    instead.
    """
    if weighted is None:
        weighted = weights = keys[:0]
    if size <= len(keys) + len(weighted):
        counts = np.bincount(keys, minlength=size)
        np.add.at(counts, weighted, weights)
        present = np.flatnonzero(counts)
        return present, counts[present]
    distinct, inverse = group_keys(np.concatenate([keys, weighted]))
    counts = np.bincount(inverse[: len(keys)], minlength=len(distinct))
    np.add.at(counts, inverse[len(keys) :], weights)
    return distinct, counts


def _run_flags(values: np.ndarray) -> np.ndarray:
    """Whether each entry of sorted ``values`` starts a run of equal ones."""
    starts = np.ones(len(values), bool)
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


#: :func:`group_keys` groups keys spanning at most this many values per
#: key through a presence table, and sorts keys spread wider.
DENSE_SPAN = 4


def group_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct integer ``keys``, ascending, and each key's group.

    What ``np.unique(keys, return_inverse=True)`` returns for a flat
    array.  Keys whose observed range spans at most :data:`DENSE_SPAN`
    values per key are grouped without a sort: one scatter marks each
    present key, less the smallest, in a ``bool`` table the size of the
    range, the marks' positions are the distinct keys, and a lookup
    table over the range numbers them for one gather.  Wider keys take
    one ``np.sort``: each key, less the smallest, is packed above its
    position into one ``int64`` word (``key << b | position``), so the
    sorted words hold the keys in order with their positions alongside.
    Where a run of equal keys starts gives the distinct keys, and the
    positions in the low bits say where each key's group number goes.
    When the keys' range and the position bits together need more than
    63 bits, an ``argsort`` orders the keys instead.  The choice follows
    the sizes alone, and the result is the same.  ``np.unique`` is not
    called, since its first call imports ``numpy.ma``.
    """
    size = len(keys)
    if not size:
        return keys.copy(), np.zeros(0, np.intp)
    low = int(keys.min())
    span = int(keys.max()) - low + 1
    if span <= DENSE_SPAN * size:
        shifted = keys.astype(np.intp)
        shifted -= low
        present = np.zeros(span, bool)
        present[shifted] = True
        distinct = np.flatnonzero(present)
        group = np.empty(span, np.intp)
        group[distinct] = np.arange(len(distinct))
        distinct += low
        return distinct.astype(keys.dtype, copy=False), group[shifted]
    shift = max(1, (size - 1).bit_length())
    if (span - 1).bit_length() + shift <= 63:
        packed = keys.astype(np.int64)
        packed -= low
        packed <<= shift
        packed |= np.arange(size)
        packed = np.sort(packed)
        order = packed & ((1 << shift) - 1)
        packed >>= shift
        packed += low
        ordered = packed
    else:
        order = np.argsort(keys)
        ordered = keys[order]
    starts = _run_flags(ordered)
    inverse = np.empty(size, np.intp)
    inverse[order] = np.cumsum(starts) - 1
    return ordered[starts].astype(keys.dtype, copy=False), inverse


def letter_totals(
    occurrences: Occurrences, period: int, num_periods: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every letter of one period and its count, from occurrence rows.

    Period discovery's count (the miners' scan 1 is
    :func:`pair_letter_counts`).  Returns ascending letter ids
    (``offset * num_features + feature``) and each one's occurrence
    count over the ``num_periods`` whole segments; letters that never
    occur are absent.
    """
    _, letters = occurrences.whole_segments(period, num_periods)
    return np.unique(letters, return_counts=True)


def segment_hits(
    column: SlotColumn,
    period: int,
    num_periods: int,
    letter_ids: np.ndarray,
) -> list[tuple[int, int]]:
    """Scan 2 for one period: the distinct >= 2-letter hits and counts.

    ``letter_ids`` are the ``C_max`` letters in bit order (bit ``i`` is
    ``letter_ids[i]``).  Each hit is a Python int mask over those bits.
    The segments' rows come from :func:`segment_rows`; rows with fewer
    than two letters drop, and :func:`distinct_rows` collapses the rest.
    """
    rows = segment_rows(column, period, num_periods, letter_ids)
    rows = rows[np.bitwise_count(rows).sum(axis=1, dtype=np.int64) >= 2]
    distinct, counts = distinct_rows(rows)
    return list(zip(row_masks(distinct), counts.tolist()))


def segment_rows(
    column: SlotColumn,
    period: int,
    num_periods: int,
    letter_ids: np.ndarray,
) -> np.ndarray:
    """Each whole segment's letters as a row of ``k`` ``uint64`` words.

    Returns an ``(num_periods, k)`` matrix where bit ``i`` of a row
    (word ``i // 64``, bit ``i % 64``) is set when the segment holds
    letter ``letter_ids[i]``; ``n`` letters take ``k = ceil(n / 64)``
    words (at least one).  Only the column's slots at offsets of those
    letters are read: at those offsets each distinct slot gets one bit
    row, built from its CSR features, and every segment ORs in the rows
    of its slots there.  An offset joins the group of the word holding
    its lowest bit, so one pass per group (at most ``k``, each over at
    most 64 offsets) covers every offset, and a group's rows span only
    the words its letters reach.
    """
    table = column.table
    width = len(table.features)
    distinct_slots = len(table.slots)
    words = max(1, -(-len(letter_ids) // 64))
    word_of = np.arange(len(letter_ids)) >> 6
    offsets, letter_offset = group_keys(letter_ids // width)
    kinds, letter_kind = group_keys(letter_ids % width)
    # Feature id -> its index among the C_max features, -1 for the rest.
    kind_of = np.full(width, -1, np.int64)
    kind_of[kinds] = np.arange(len(kinds))
    low = np.full(len(offsets), words)
    high = np.zeros(len(offsets), np.int64)
    np.minimum.at(low, letter_offset, word_of)
    np.maximum.at(high, letter_offset, word_of)
    grid = column.ids[: num_periods * period].reshape(num_periods, period)
    rank = np.empty(len(offsets), np.int64)
    rows = np.zeros((num_periods, words), np.uint64)
    # A plain np.unique would import numpy.ma on its first call.
    for word in sorted(set(low.tolist())):
        members = np.flatnonzero(low == word)
        span = int(high[members].max()) - word + 1
        rank[members] = np.arange(len(members))
        # (offset rank, C_max feature) -> bit, counted from the group's
        # first word; -1 where that letter is not in C_max.
        bit_of = np.full(len(members) * len(kinds), -1, np.int64)
        bits = np.flatnonzero(low[letter_offset] == word)
        bit_of[rank[letter_offset[bits]] * len(kinds) + letter_kind[bits]] = (
            bits - 64 * word
        )
        # Column c of the group holds slot ids shifted by c * D, so one
        # sort finds the distinct slots at every offset of the group.
        keys = grid[:, offsets[members]].astype(np.int64)
        keys += np.arange(len(members)) * distinct_slots
        pairs, inverse = group_keys(keys.ravel())
        owners, features = table.feature_rows(pairs % distinct_slots)
        kind = kind_of[features]
        owners, kind = owners[kind >= 0], kind[kind >= 0]
        bit = bit_of[(pairs // distinct_slots)[owners] * len(kinds) + kind]
        owners, bit = owners[bit >= 0], bit[bit >= 0]
        pair_rows = np.zeros(len(pairs) * span, np.uint64)
        np.bitwise_or.at(
            pair_rows,
            owners * span + (bit >> 6),
            np.left_shift(np.uint64(1), (bit & 63).astype(np.uint64)),
        )
        gathered = pair_rows.reshape(-1, span)[inverse.reshape(keys.shape)]
        rows[:, word : word + span] |= np.bitwise_or.reduce(gathered, axis=1)
    return rows


def distinct_rows(
    rows: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a ``k``-word matrix, with their counts.

    One lexicographic sort (word 0 first) brings equal rows together,
    and a diff of neighbours marks where each run of equal rows starts.
    A row counts once, or ``weights[r]`` times when weights are given.
    One-word rows sort as a plain column instead, several times faster
    than ``lexsort`` with a single key.
    """
    if rows.shape[1] == 1:
        if weights is None:
            values, counts = np.unique(rows[:, 0], return_counts=True)
            return values[:, None], counts
        order = np.argsort(rows[:, 0])
    else:
        order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    starts = np.ones(len(rows), bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=starts[1:])
    starts = np.flatnonzero(starts)
    if weights is None:
        counts = np.diff(starts, append=len(rows))
    else:
        counts = np.add.reduceat(weights[order], starts)
    return rows[starts], counts


def row_masks(rows: np.ndarray) -> list[int]:
    """Each ``k``-word row as one Python int mask (word 0 lowest)."""
    masks = rows[:, 0].tolist()
    for word in range(1, rows.shape[1]):
        shift = 64 * word
        masks = [
            mask | high << shift for mask, high in zip(masks, rows[:, word].tolist())
        ]
    return masks
