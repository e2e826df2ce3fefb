"""Interned slot-occurrence kernels — the slot passes of Algorithm 3.4.

Shared multi-period mining (Algorithm 3.4) and period discovery read the
series slot by slot, once for every period at the same time.  Counting
those passes in Python costs one interpreter round-trip per slot, period
and feature.  This module instead interns the series once and answers
every period with bulk numpy ops over one occurrence array:

* :func:`intern_slots` reads the slots once.  Every distinct slot gets a
  dense id and every distinct feature a dense feature id, and the distinct
  slots keep their feature ids in CSR form (:class:`SlotTable`).  The
  expansion is the :class:`Occurrences` array: one ``(position, feature)``
  row per feature occurrence, in slot order.
* :func:`letter_totals` is scan 1 for one period: letter id
  ``(position % p) * F + feature`` for every occurrence inside the ``m``
  whole segments, counted by sorting (``np.unique``), so the cost and
  memory follow the occurrences and never the ``p * F`` letter space.
* :func:`segment_hits` is scan 2 for one period: each occurrence of a
  ``C_max`` letter sets its bit in its segment's row of ``k`` ``uint64``
  words (``np.bitwise_or.at``), rows with fewer than two letters drop, and
  ``np.unique`` collapses the rest to the distinct hits with their counts.
  A ``C_max`` wider than 64 letters just takes more words per row.

Scan 2 re-reads the slots through :meth:`SlotTable.slot_ids`, mapping
each slot through the scan-1 intern table.  Memory is ``O(N +
occurrences)`` for the arrays plus one period's segment rows at a time;
no distinct-slots x features matrix is ever built, because on noisy data
there are about as many distinct slots as slots.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.core.errors import MiningError
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
    """Scan 1's intern table: dense ids for distinct slots and features.

    ``features[i]`` is the feature of feature id ``i``, in first-seen
    order.  Distinct slot ``d`` holds the feature ids
    ``feature_ids[indptr[d]:indptr[d + 1]]``.
    """

    __slots__ = (
        "_ids", "features", "_feature_index", "_indptr", "_sizes", "_feature_ids"
    )

    def __init__(self, distinct: Iterable[frozenset[str]]) -> None:
        self._ids: dict[frozenset[str], int] = {}
        self._feature_index: dict[str, int] = {}
        sizes = [0]
        flat: list[int] = []
        feature_index = self._feature_index
        for slot in distinct:
            self._ids[slot] = len(self._ids)
            sizes.append(len(slot))
            flat.extend(
                feature_index.setdefault(feature, len(feature_index))
                for feature in slot
            )
        self.features: list[str] = list(feature_index)
        self._indptr = np.cumsum(sizes, dtype=np.int64)
        self._sizes = np.diff(self._indptr).astype(np.int32)
        self._feature_ids = np.array(flat, dtype=np.int32)

    def slot_ids(self, slots: Iterable[frozenset[str]]) -> np.ndarray:
        """Read ``slots`` once: each slot's distinct-slot id (``int32``).

        Every slot must be one the table interned; a slot it has never
        seen means the series changed between the passes.
        """
        try:
            return np.fromiter(map(self._ids.__getitem__, slots), np.int32)
        except KeyError:
            raise MiningError(
                "a slot read in scan 2 was not seen in scan 1; the series "
                "changed between the scans"
            ) from None

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


def intern_slots(
    slots: Iterable[frozenset[str]],
) -> tuple[SlotTable, Occurrences]:
    """Scan 1's read: the intern table and the occurrences of ``slots``.

    ``slots`` is consumed exactly once.
    """
    slots = list(slots)
    table = SlotTable(dict.fromkeys(slots))
    slot_ids = table.slot_ids(slots)
    del slots
    return table, table.expand(slot_ids)


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
