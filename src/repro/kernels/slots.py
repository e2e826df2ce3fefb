"""Interned slot-column kernels — the two scans of every in-memory mine.

A :class:`~repro.timeseries.feature_series.FeatureSeries` keeps one
interned slot column (:class:`SlotColumn`): a :class:`SlotTable` of its
distinct slots, each with its feature ids in CSR form, plus one
``int32`` slot id per slot.  :func:`repro.timeseries.io.load_series`
builds it while parsing; any other series builds it once, on its first
mine (:func:`intern_slots`).  Every in-memory scan then runs as bulk
numpy ops over one occurrence array instead of one interpreter
round-trip per slot, period and feature:

* :meth:`SlotColumn.occurrences` is one read of the whole column: one
  ``(position, feature)`` row per feature occurrence, in slot order
  (:class:`Occurrences`).
* :func:`letter_totals` is scan 1 for one period: letter id
  ``(position % p) * F + feature`` for every occurrence inside the ``m``
  whole segments, counted by sorting (``np.unique``), so the cost and
  memory follow the occurrences and never the ``p * F`` letter space.
* :func:`segment_hits` is scan 2 for one period.  It asks only which
  ``C_max`` letters each segment holds, and those sit on at most
  ``|C_max|`` of the ``p`` offsets, so it reads only the column's slots
  at those offsets.  The distinct slots there (found by one sort) each
  get one bit row, built from their CSR features through a feature ->
  bit table, and every segment ORs in the rows of its slots: ``k``
  ``uint64`` words per segment, with ``k = ceil(|C_max| / 64)``.  Rows
  with fewer than two letters drop, and one lexicographic sort plus a
  diff of neighbours collapses the rest to the distinct hits with their
  counts.  The work follows the slots and features at the ``C_max``
  offsets, never all occurrences or the number of distinct slots.

The single-period miners (Algorithm 3.2 and its maximal and constrained
forms) call these for one period, shared multi-period mining
(Algorithm 3.4) and period discovery for many periods over the same
read.  Memory is ``O(N + occurrences)`` for scan 1's arrays and
``O(m * k)`` plus one group of offsets' bit rows for scan 2; no
distinct-slots x features matrix is ever built, because on noisy data
there are about as many distinct slots as slots.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

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
        sizes = self._sizes[slot_ids]
        occupied = np.flatnonzero(sizes)
        lengths = sizes[occupied]
        del sizes
        # Row r of a slot reads feature_ids[start + r - first], where
        # start is its distinct slot's CSR row and first is the slot's
        # first row.
        shift = self._indptr[slot_ids[occupied]]
        shift -= np.cumsum(lengths) - lengths
        index = np.repeat(shift, lengths)
        del shift
        index += np.arange(len(index))
        return np.repeat(occupied, lengths), self._feature_ids[index]

    def expand(self, slot_ids: np.ndarray) -> Occurrences:
        """The occurrence rows of a series given as its slot ids."""
        return Occurrences(*self.feature_rows(slot_ids), len(self.features))

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

    def occurrences(self) -> Occurrences:
        """One read of the column: its occurrence rows."""
        return self.table.expand(self.ids)


def intern_slots(slots: Sequence[frozenset[str]]) -> SlotColumn:
    """The slot column of ``slots``: one dictionary pass, then one lookup each."""
    index = {slot: id_ for id_, slot in enumerate(dict.fromkeys(slots))}
    return SlotColumn(
        SlotTable(index),
        np.fromiter(map(index.__getitem__, slots), np.int32, len(slots)),
    )


def letter_totals(
    occurrences: Occurrences, period: int, num_periods: int
) -> tuple[np.ndarray, np.ndarray]:
    """Scan 1 for one period: the letters that occur and their counts.

    Returns ascending letter ids (``offset * num_features + feature``)
    and each one's occurrence count over the ``num_periods`` whole
    segments; letters that never occur are absent.
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
    ``letter_ids[i]``).  Each hit is a Python int mask over those bits;
    a ``C_max`` of ``n`` letters uses ``k = ceil(n / 64)`` words per
    segment.  Only the column's slots at offsets of ``C_max`` letters are
    read: at those offsets each distinct slot gets one bit row, built
    from its CSR features, and every segment ORs in the rows of its slots
    there.  An offset joins the group of the word holding its lowest bit,
    so one pass per group (at most ``k``, each over at most 64 offsets)
    covers every offset, and a group's rows span only the words its
    letters reach.
    """
    table = column.table
    width = len(table.features)
    distinct_slots = len(table.slots)
    words = max(1, -(-len(letter_ids) // 64))
    word_of = np.arange(len(letter_ids)) >> 6
    offsets, letter_offset = np.unique(letter_ids // width, return_inverse=True)
    kinds, letter_kind = np.unique(letter_ids % width, return_inverse=True)
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
    for word in np.unique(low).tolist():
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
        pairs, inverse = np.unique(keys, return_inverse=True)
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
    rows = rows[np.bitwise_count(rows).sum(axis=1, dtype=np.int64) >= 2]
    return _distinct_rows(rows)


def _distinct_rows(rows: np.ndarray) -> list[tuple[int, int]]:
    """Each distinct row of ``rows`` as an int mask, with its count.

    One lexicographic sort (word 0 first) brings equal rows together,
    and a diff of neighbours marks where each run of equal rows starts.
    """
    rows = rows[np.lexsort(rows.T[::-1])]
    starts = np.ones(len(rows), bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=starts[1:])
    starts = np.flatnonzero(starts)
    counts = np.diff(starts, append=len(rows))
    distinct = rows[starts]
    masks = distinct[:, 0].tolist()
    for word in range(1, distinct.shape[1]):
        shift = 64 * word
        masks = [
            mask | high << shift
            for mask, high in zip(masks, distinct[:, word].tolist())
        ]
    return list(zip(masks, counts.tolist()))
