"""Slot-column and batched kernels, the segment store and the count cache.

The performance layer under every miner:

* :mod:`~repro.kernels.slots` — both scans of every in-memory mine, as
  numpy ops over a series' interned slot column (distinct slots with CSR
  feature ids plus one slot id per slot), and the per-segment row build
  every segment store is made with;
* :mod:`~repro.kernels.batched` — single-pass candidate counting: the
  dense superset-sum table and the sparse projection kernel that replace
  the legacy per-candidate walks of Algorithm 4.2;
* :mod:`~repro.kernels.store` — :class:`SegmentStore`, every whole
  segment's letters as a row of ``k = ceil(letters / 64)`` ``uint64``
  words, shared by scan 1, scan 2 and verification — persistable to disk
  (:meth:`SegmentStore.to_file` / :meth:`SegmentStore.from_file`), so a
  prebuilt row file mines out-of-core over ``np.memmap``;
* :mod:`~repro.kernels.cache` — :class:`CountCache`, memoized scan results
  keyed by (series fingerprint, period, letter-order hash) so re-mining at
  a different ``min_conf`` never rescans the data;
* :mod:`~repro.kernels.profile` — :class:`MiningProfile`, the per-stage
  wall-time/cache-counter ledger behind ``ppm mine --profile``.

In-memory series scan on their slot column and store inputs on the
store's row matrix; both derive on the batched kernels, and there is no
kernel switch.  Every kernel is exact: the randomized sweeps in
``tests/test_kernels.py`` / ``tests/test_columnar.py`` hold both paths
equal to the brute-force counter in :mod:`repro.core.counting`, and the
differential fuzzer (:mod:`repro.devtools.fuzz`, ``ppm fuzz``) hammers
the same invariant across randomized corners.  See ``docs/kernels.md``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.kernels.batched": (
        "MAX_TABLE_BITS",
        "SubmaskCountTable",
        "batched_count_masks",
        "derive_frequent_masks",
        "project_hit_counts",
    ),
    "repro.kernels.cache": ("CacheKey", "CacheStats", "CountCache", "letters_hash"),
    "repro.kernels.profile": ("MiningProfile", "StageTiming"),
    "repro.kernels.store": ("SegmentStore",),
})

if TYPE_CHECKING:
    from repro.kernels.batched import (
        MAX_TABLE_BITS,
        SubmaskCountTable,
        batched_count_masks,
        derive_frequent_masks,
        project_hit_counts,
    )
    from repro.kernels.cache import CacheKey, CacheStats, CountCache, letters_hash
    from repro.kernels.profile import MiningProfile, StageTiming
    from repro.kernels.store import SegmentStore

__all__ = [
    "MAX_TABLE_BITS",
    "CacheKey",
    "CacheStats",
    "CountCache",
    "MiningProfile",
    "SegmentStore",
    "StageTiming",
    "SubmaskCountTable",
    "batched_count_masks",
    "derive_frequent_masks",
    "letters_hash",
    "project_hit_counts",
]
