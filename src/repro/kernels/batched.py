"""Batched candidate counting — one pass over the hits, all candidates at once.

A per-candidate derivation (Algorithm 4.2 read literally) answers each
candidate with its own pass over the stored hits: ``candidates x stored``
disjointness tests per level.  The paper's observation that the tree already holds *all* the
information needed for *every* subpattern count invites the batched dual:
walk the stored hits once and push each hit's count into every candidate it
covers.

Two kernels implement that, picked automatically by candidate-universe
width:

* :class:`SubmaskCountTable` — the superset-sum (zeta) transform.
  Project every stored hit onto the candidate universe, scatter the counts
  into a ``2^n`` table, then run the standard in-place superset-sum so that
  ``table[X] = sum(count(T) for T superset of X)``.  Cost ``O(2^n * n)``
  once, then every candidate of every level is a single table lookup.  With
  the paper's Table-1 parameters (``|F1| = 12``) the table has 4096 entries
  — far below the work of even one per-candidate level.  When the hit rows are few
  and narrow (small inputs), the same table is built as a sparse dict by
  enumerating each distinct projection's submasks instead — identical
  lookups, without paying the ``2^n`` sweep.
* **Sparse projection fallback** — when the universe is too wide for a
  table, collapse the stored hits to *distinct projections* onto the
  universe (the per-level memo: hits sharing a projection are touched
  once), then test every projection against every candidate at once,
  as packed ``uint64`` words in numpy.

Both return exactly the per-candidate totals — the randomized sweep in
``tests/test_kernels.py`` holds them equal to each other and to brute
force.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.core.candidates import generate_candidate_masks
from repro.core.errors import MiningError

#: Widest candidate universe (in bits) the dense table kernel handles; a
#: ``2^16``-entry list is ~0.5 MB and builds in milliseconds, while wider
#: universes fall back to the sparse projection kernel.
MAX_TABLE_BITS = 16

#: ``(hit mask, count)`` rows — the mergeable scan-2 state all kernels eat.
HitRows = Iterable[tuple[int, int]]


def project_hit_counts(hits: HitRows, universe: int) -> dict[int, int]:
    """Collapse hit rows to distinct projections onto a candidate universe.

    Hits agreeing on ``mask & universe`` are interchangeable for every
    candidate drawn from ``universe``, so their counts merge — this is the
    shared memo both batched kernels start from.
    """
    projected: dict[int, int] = {}
    for mask, count in hits:
        key = mask & universe
        projected[key] = projected.get(key, 0) + count
    return projected


class SubmaskCountTable:
    """Superset-sum table: ``count(X)`` for every ``X`` in a universe.

    Built once from hit rows, then :meth:`count` answers any submask of the
    universe in O(popcount) — the whole candidate set of a derivation costs
    one table build plus one lookup per candidate.

    :meth:`from_hits` picks the cheaper of two equivalent representations:
    a dense ``2^n`` array swept by the in-place superset sum, or — when the
    distinct projections are few and narrow enough that enumerating all of
    their submasks costs less than the sweep — a sparse dict holding only
    the submasks that actually occur (absent keys count zero).

    Examples
    --------
    >>> table = SubmaskCountTable.from_hits([(0b111, 2), (0b011, 1)], 0b111)
    >>> table.count(0b011), table.count(0b100), table.count(0b101)
    (3, 2, 2)
    """

    __slots__ = (
        "_universe",
        "_table",
        "_sparse_table",
        "_dense_bits",
        "_compact_identity",
    )

    def __init__(
        self,
        universe: int,
        table: "np.ndarray | None" = None,
        sparse_table: "dict[int, int] | None" = None,
    ):
        if (table is None) == (sparse_table is None):
            raise MiningError(
                "exactly one of table / sparse_table must be given"
            )
        self._universe = universe
        self._table = table if table is not None else np.zeros(1, np.int64)
        # Sparse dict tables key on raw (uncompacted) masks; absent keys
        # count zero.
        self._sparse_table = sparse_table
        # Map each universe bit to its dense position so sparse universes
        # (candidate letters that are not the low bits) compact correctly.
        self._dense_bits: dict[int, int] = {}
        dense = 1
        remaining = universe
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            self._dense_bits[low] = dense
            dense <<= 1
        self._compact_identity = universe == len(self._table) - 1

    @classmethod
    def from_hits(cls, hits: HitRows, universe: int) -> "SubmaskCountTable":
        """Scatter hit counts into the universe and superset-sum in place."""
        bits = universe.bit_count()
        if bits > MAX_TABLE_BITS:
            raise MiningError(
                f"universe of {bits} bits exceeds the dense-table limit "
                f"({MAX_TABLE_BITS}); use the sparse kernel"
            )
        projected = project_hit_counts(hits, universe)
        size = 1 << bits
        # The dense sweep is ``bits`` vectorized passes over a ``2^bits``
        # array; direct submask enumeration pays one Python dict update per
        # enumerated submask (``sum(2^popcount(row))`` of them), each worth
        # roughly an order of magnitude more than a vector element.  Go
        # sparse only when the enumeration is decisively cheaper — few,
        # narrow rows under a wide universe.
        enumeration_cost = 0
        for projection in projected:
            enumeration_cost += 1 << projection.bit_count()
            if enumeration_cost * 16 > size:
                break
        if enumeration_cost * 16 <= size:
            sparse_table: dict[int, int] = {}
            for projection, count in projected.items():
                sub = projection
                while True:
                    sparse_table[sub] = sparse_table.get(sub, 0) + count
                    if not sub:
                        break
                    sub = (sub - 1) & projection
            return cls(universe, sparse_table=sparse_table)
        table = np.zeros(size, np.int64)
        self = cls(universe, table)
        for projection, count in projected.items():
            table[self._compact(projection)] += count
        # In-place superset sum: after processing bit i, table[s] holds the
        # total over all supersets of s within the bits processed so far.
        # Viewing the table as (blocks, 2, 2^i), the middle axis is bit i:
        # one vectorized add folds every with-bit half into its without-bit
        # partner.
        for i in range(bits):
            halves = table.reshape(-1, 2, 1 << i)
            halves[:, 0, :] += halves[:, 1, :]
        return self

    @property
    def universe(self) -> int:
        """The candidate universe the table was built over."""
        return self._universe

    def _compact(self, mask: int) -> int:
        """Repack a submask of the universe onto dense low bits."""
        if self._compact_identity:
            return mask
        out = 0
        dense_bits = self._dense_bits
        while mask:
            low = mask & -mask
            out |= dense_bits[low]
            mask ^= low
        return out

    def count(self, mask: int) -> int:
        """Total hit count over all stored hits containing ``mask``."""
        key = mask & self._universe
        sparse = self._sparse_table
        if sparse is not None:
            return sparse.get(key, 0)
        return int(self._table[self._compact(key)])

    def counts(self, masks: Iterable[int]) -> dict[int, int]:
        """:meth:`count` over a whole candidate set."""
        mask_list = list(masks)
        sparse = self._sparse_table
        if sparse is not None:
            universe = self._universe
            return {
                mask: sparse.get(mask & universe, 0) for mask in mask_list
            }
        universe = self._universe
        if self._compact_identity:
            indices = [mask & universe for mask in mask_list]
        else:
            indices = [self._compact(mask & universe) for mask in mask_list]
        values = self._table[
            np.fromiter(indices, np.intp, len(indices))
        ].tolist()
        return dict(zip(mask_list, values))

    def __repr__(self) -> str:
        return (
            f"SubmaskCountTable(bits={self._universe.bit_count()}, "
            f"total={self.count(0)})"
        )


def batched_count_masks(
    hits: HitRows,
    candidates: Sequence[int],
) -> dict[int, int]:
    """Counts of every candidate mask against the hit rows, in one pass.

    Equivalent to ``{c: sum(n for mask, n in hits if c & ~mask == 0)}``
    but never loops candidates-times-hits: a dense superset-sum table when
    the combined candidate universe fits :data:`MAX_TABLE_BITS`, the
    sparse projection kernel otherwise.
    """
    if not candidates:
        return {}
    universe = 0
    for candidate in candidates:
        universe |= candidate
    if universe.bit_count() <= MAX_TABLE_BITS:
        table = SubmaskCountTable.from_hits(hits, universe)
        return table.counts(candidates)
    return _sparse_count_masks(hits, candidates, universe)


#: Entries of the ``candidates x projections`` table :func:`_covering_totals`
#: holds at a time (512 KiB of ``uint64``).
_COVER_BLOCK = 1 << 16


def _sparse_count_masks(
    hits: HitRows,
    candidates: Sequence[int],
    universe: int,
) -> dict[int, int]:
    """Projection kernel for universes too wide for a dense table.

    The stored hits collapse to their distinct projections onto the
    universe, and :func:`_covering_totals` tests every projection against
    every candidate at once in numpy — no Python loop ever runs once per
    (candidate, projection) pair.
    """
    ordered = list(dict.fromkeys(candidates))
    totals = _covering_totals(ordered, project_hit_counts(hits, universe), universe)
    return dict(zip(ordered, totals.tolist()))


def pack_masks(masks: Sequence[int], words: int) -> np.ndarray:
    """Masks as rows of ``words`` little-endian ``uint64`` words."""
    width = 8 * words
    return np.frombuffer(
        b"".join(mask.to_bytes(width, "little") for mask in masks), "<u8"
    ).reshape(len(masks), words)


def _covering_totals(
    candidates: Sequence[int], projections: Mapping[int, int], universe: int
) -> np.ndarray:
    """For each candidate, the summed count of the projections covering it.

    Candidates and projections are packed into ``k``-word ``uint64`` rows
    (as :func:`repro.kernels.slots.segment_hits` packs its hits).  For a
    block of projections at a time, ``candidate & ~projection`` is ORed
    across the words into one candidates x projections table; its zero
    entries are the covered pairs, and one matrix product sums their
    counts.
    """
    words = max(1, -(-universe.bit_length() // 64))
    wanted = pack_masks(candidates, words).T.copy()
    missing = ~pack_masks(list(projections), words).T
    weights = np.fromiter(projections.values(), np.int64, len(projections))
    totals = np.zeros(len(candidates), np.int64)
    step = max(1, _COVER_BLOCK // len(candidates))
    for start in range(0, len(weights), step):
        stop = start + step
        outside = np.bitwise_and.outer(wanted[0], missing[0, start:stop])
        for word in range(1, words):
            outside |= np.bitwise_and.outer(wanted[word], missing[word, start:stop])
        totals += (outside == 0).astype(np.int64) @ weights[start:stop]
    return totals


def derive_frequent_masks(
    hits: HitRows,
    threshold: int,
    f1_bit_counts: Mapping[int, int],
    max_letters: int | None = None,
) -> tuple[dict[int, int], dict[int, int]]:
    """Algorithm 4.2 on the batched kernels — all frequent masks at once.

    The derivation behind :meth:`~repro.core.hittable.HitTable.derive`
    (and the reference tree's ``derive_frequent``): level-wise
    apriori-gen, where every level's candidates are counted by one
    :class:`SubmaskCountTable` lookup apiece (the table is built once, up
    front, over the F1 universe) instead of one pass over the stored hits
    apiece.

    Parameters
    ----------
    hits:
        ``(hit mask, count)`` rows — e.g. a hit table's items or
        :meth:`~repro.kernels.store.SegmentStore.project_hits` output.
    threshold:
        The integer frequency threshold.
    f1_bit_counts:
        Level 1: single-bit mask of each frequent letter to its exact count
        from the F1 scan.
    max_letters:
        Optional cap on derived pattern size.

    Returns
    -------
    (mask_counts, candidate_counts):
        Frequent masks with counts, and candidates examined per level.
    """
    mask_counts = dict(f1_bit_counts)
    candidate_counts = {1: len(f1_bit_counts)}
    frequent_level = set(mask_counts)
    universe = 0
    for bit in f1_bit_counts:
        universe |= bit
    table: SubmaskCountTable | None = None
    hit_rows: list[tuple[int, int]] | None = None
    if frequent_level:
        if universe.bit_count() <= MAX_TABLE_BITS:
            table = SubmaskCountTable.from_hits(hits, universe)
        else:
            hit_rows = list(hits)
    level = 1
    while frequent_level:
        if max_letters is not None and level >= max_letters:
            break
        candidates = generate_candidate_masks(frequent_level)
        if not candidates:
            break
        level += 1
        candidate_counts[level] = len(candidates)
        if table is not None:
            level_counts = table.counts(candidates)
        else:
            assert hit_rows is not None
            level_counts = _sparse_count_masks(
                hit_rows, list(candidates), universe
            )
        frequent_level = {
            candidate
            for candidate, total in level_counts.items()
            if total >= threshold
        }
        for candidate in frequent_level:
            mask_counts[candidate] = level_counts[candidate]
    return mask_counts, candidate_counts
