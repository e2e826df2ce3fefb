"""Columnar scan kernels — vectorized mask ops over the segment column.

A packed :class:`~repro.kernels.store.SegmentStore` already lays the
encoded series out as a contiguous ``array('Q')`` buffer (or an mmap'd
on-disk file).  This module reinterprets that buffer as a numpy ``uint64``
column — zero-copy via ``np.frombuffer`` / ``np.memmap`` — and runs every
scan kernel as a bulk array op instead of a Python loop:

* **Scan 1** (letter counting) — unpack the column to a bit matrix in
  fixed-size chunks and sum each bit lane: one ``popcount``-style pass
  yields the occurrence count of all 64 letters at once
  (:func:`letter_bit_totals`).
* **Scan 2** (hit collection) — ``np.unique`` over the column collapses
  segments to the distinct-mask multiset (:func:`distinct_counts`); a
  vectorized ``np.bitwise_count`` filter keeps the >= 2-letter hits
  (:func:`hit_counter`), and projecting hits onto the tree vocabulary is
  one shift/OR sweep per kept bit lane (:func:`remap_counts`).

Store inputs (:func:`repro.core.hitset.mine_store` and series mined with
:class:`~repro.kernels.store.StoreOptions`) run both scans here;
in-memory series scan on their slot column instead
(:mod:`repro.kernels.slots`).

Every kernel works in bounded chunks (:data:`CHUNK_ROWS`), so the same
code path serves in-memory columns and mmap'd stores far larger than RAM:
peak working memory is ``O(CHUNK_ROWS + distinct masks)`` regardless of
column length.  All kernels are exact — the differential fuzzer
(:mod:`repro.devtools.fuzz`) and the randomized sweeps in
``tests/test_columnar.py`` hold them letter-identical to brute force.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

import numpy as np

from repro.encoding.vocabulary import LetterVocabulary

#: Rows (segment masks) processed per chunk by every columnar kernel.
#: 64Ki rows = 512 KiB of column per chunk — small enough that mmap'd
#: stores mine in bounded memory, large enough to amortize numpy call
#: overhead.  Kept a multiple of 8 so per-chunk bit matrices pack into
#: whole bitmap bytes.
CHUNK_ROWS = 1 << 16

#: Bit width of a packed segment mask (one ``uint64`` per segment).
COLUMN_BITS = 64


def as_uint64(column: "np.ndarray") -> "np.ndarray":
    """The column as little-endian ``uint64`` (no copy on native LE data).

    Every kernel below slices raw bytes out of the masks, so the byte
    order must be pinned; on big-endian hosts this is one byteswapped
    copy, on the common case it is the input array unchanged.
    """
    return np.ascontiguousarray(column, dtype="<u8")


def letter_bit_totals(column: "np.ndarray") -> "np.ndarray":
    """Scan 1 as one vectorized pass: occurrence count of every bit lane.

    Returns a ``(64,)`` int64 vector where entry ``i`` is the number of
    column rows with bit ``i`` set — the frequency count of letter ``i``.
    Runs chunk-wise: unpack each chunk's bytes to a ``rows x 64`` bit
    matrix and column-sum it.
    """
    column = as_uint64(column)
    totals = np.zeros(COLUMN_BITS, np.int64)
    for start in range(0, len(column), CHUNK_ROWS):
        chunk = column[start : start + CHUNK_ROWS]
        bits = np.unpackbits(chunk.view(np.uint8), bitorder="little")
        totals += bits.reshape(-1, COLUMN_BITS).sum(axis=0, dtype=np.int64)
    return totals


def letter_counts(column: "np.ndarray", vocab: LetterVocabulary) -> Counter:
    """Scan-1 state: letter -> occurrence count, from the bit totals.

    Letters with zero occurrences are omitted, matching
    :func:`repro.core.counting.letter_counts_for_segments`.
    """
    totals = letter_bit_totals(column)
    counts: Counter = Counter()
    for letter_id, letter in enumerate(vocab):
        total = int(totals[letter_id])
        if total:
            counts[letter] = total
    return counts


def distinct_counts(column: "np.ndarray") -> Counter:
    """Scan-2 state: the distinct-mask multiset, via chunked ``np.unique``.

    Chunking bounds the sort working set on mmap'd columns; per-chunk
    results merge into one counter keyed by plain Python ints (periodic
    data has orders of magnitude fewer distinct masks than segments, so
    the merge touches few keys).
    """
    column = as_uint64(column)
    merged: dict[int, int] = {}
    for start in range(0, len(column), CHUNK_ROWS):
        values, counts = np.unique(
            column[start : start + CHUNK_ROWS], return_counts=True
        )
        for value, count in zip(values.tolist(), counts.tolist()):
            merged[value] = merged.get(value, 0) + count
    return Counter(merged)


def hit_counter(distinct: Counter, min_letters: int = 2) -> Counter:
    """Distinct masks with at least ``min_letters`` bits — the tree's hits.

    The popcount filter runs vectorized over the distinct keys
    (``np.bitwise_count``), not per segment.
    """
    if not distinct:
        return Counter()
    values = np.fromiter(distinct.keys(), np.uint64, count=len(distinct))
    kept = values[np.bitwise_count(values) >= min_letters]
    return Counter({int(value): distinct[int(value)] for value in kept})


def remap_counts(
    distinct: Counter, table: Sequence[int], min_letters: int = 2
) -> Counter:
    """Project distinct-mask counts onto a target vocabulary, vectorized.

    The scan-2 "hit" computation over an already-encoded column: ``table``
    is a :meth:`~repro.encoding.vocabulary.LetterVocabulary.remap_table`
    (source bit -> target bit, ``-1`` drops the letter).  Each kept source
    bit is shifted to its target lane with one shift/AND/OR over the whole
    distinct-key vector; projected masks that collide are re-aggregated
    with ``np.unique`` and a weighted bincount, and the popcount filter
    keeps the >= ``min_letters`` hits.  Identical results to remapping
    each mask with :func:`repro.encoding.vocabulary.remap_mask`.
    """
    if not distinct:
        return Counter()
    keys = np.fromiter(distinct.keys(), np.uint64, count=len(distinct))
    weights = np.fromiter(distinct.values(), np.int64, count=len(distinct))
    projected = np.zeros_like(keys)
    one = np.uint64(1)
    for source_bit, target_bit in enumerate(table):
        if target_bit >= 0:
            projected |= (
                (keys >> np.uint64(source_bit)) & one
            ) << np.uint64(target_bit)
    kept = np.bitwise_count(projected) >= min_letters
    if not kept.any():
        return Counter()
    values, inverse = np.unique(projected[kept], return_inverse=True)
    totals = np.bincount(
        inverse, weights=weights[kept], minlength=len(values)
    ).astype(np.int64)
    return Counter(
        dict(zip(values.tolist(), totals.tolist()))
    )


__all__ = [
    "CHUNK_ROWS",
    "COLUMN_BITS",
    "as_uint64",
    "distinct_counts",
    "hit_counter",
    "letter_bit_totals",
    "letter_counts",
    "remap_counts",
]
