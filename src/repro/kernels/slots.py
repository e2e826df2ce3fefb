"""Interned slot-column kernels — the two scans of every in-memory mine.

A :class:`~repro.timeseries.feature_series.FeatureSeries` keeps one
interned slot column (:class:`SlotColumn`): a :class:`SlotTable` of its
distinct slots, each with its feature ids in CSR form, plus one
``int32`` slot id per slot.  :func:`repro.timeseries.io.load_series`
builds it while parsing; any other series builds it once, on its first
mine (:func:`intern_slots`).  Every in-memory scan then runs as bulk
numpy ops over one occurrence array instead of one interpreter
round-trip per slot, period and feature:

* :meth:`SlotColumn.occurrences` is one read of the column: one
  ``(position, feature)`` row per feature occurrence, in slot order
  (:class:`Occurrences`).
* :func:`letter_totals` is scan 1 for one period: letter id
  ``(position % p) * F + feature`` for every occurrence inside the ``m``
  whole segments, counted by sorting (``np.unique``), so the cost and
  memory follow the occurrences and never the ``p * F`` letter space.
* :func:`segment_hits` is scan 2 for one period: each occurrence of a
  ``C_max`` letter sets its bit in its segment's row of ``k`` ``uint64``
  words (``np.bitwise_or.at``), rows with fewer than two letters drop, and
  ``np.unique`` collapses the rest to the distinct hits with their counts.
  A ``C_max`` wider than 64 letters just takes more words per row.

The single-period miners (Algorithm 3.2 and its maximal and constrained
forms) call these for one period, shared multi-period mining
(Algorithm 3.4) and period discovery for many periods over the same
read.  Memory is ``O(N + occurrences)`` for the arrays plus one period's
segment rows at a time; no distinct-slots x features matrix is ever
built, because on noisy data there are about as many distinct slots as
slots.
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

    def expand(self, slot_ids: np.ndarray) -> Occurrences:
        """The occurrence rows of a series given as its slot ids.

        Apart from ``slot_ids`` itself, every array here is sized by the
        non-empty slots or by the occurrences.
        """
        sizes = self._sizes[slot_ids]
        occupied = np.flatnonzero(sizes)
        lengths = sizes[occupied]
        del sizes
        # Occurrence row r of a slot reads feature_ids[start + r - first],
        # where start is its distinct slot's CSR row and first is the
        # slot's first occurrence row.
        shift = self._indptr[slot_ids[occupied]]
        shift -= np.cumsum(lengths) - lengths
        index = np.repeat(shift, lengths)
        del shift
        index += np.arange(len(index))
        return Occurrences(
            np.repeat(occupied, lengths),
            self._feature_ids[index],
            len(self.features),
        )

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
    occurrences: Occurrences,
    period: int,
    num_periods: int,
    letter_ids: np.ndarray,
) -> list[tuple[int, int]]:
    """Scan 2 for one period: the distinct >= 2-letter hits and counts.

    ``letter_ids`` are the ``C_max`` letters in bit order (bit ``i`` is
    ``letter_ids[i]``).  Each hit is a Python int mask over those bits;
    a ``C_max`` of ``n`` letters uses ``ceil(n / 64)`` words per segment.
    """
    positions, letters = occurrences.whole_segments(period, num_periods)
    order = np.argsort(letter_ids)
    sorted_ids = letter_ids[order]
    found = np.searchsorted(sorted_ids, letters)
    found[found == len(sorted_ids)] = 0
    keep = sorted_ids[found] == letters
    bits = order[found[keep]]
    words = max(1, -(-len(letter_ids) // 64))
    rows = np.zeros(num_periods * words, dtype=np.uint64)
    np.bitwise_or.at(
        rows,
        positions[keep] // period * words + (bits >> 6),
        np.left_shift(np.uint64(1), (bits & 63).astype(np.uint64)),
    )
    rows = rows.reshape(num_periods, words)
    rows = rows[np.bitwise_count(rows).sum(axis=1, dtype=np.int64) >= 2]
    distinct, counts = np.unique(rows, axis=0, return_counts=True)
    little = distinct.astype("<u8", copy=False)
    return [
        (int.from_bytes(row.tobytes(), "little"), count)
        for row, count in zip(little, counts.tolist())
    ]
