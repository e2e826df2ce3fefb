"""Scan accounting for the disk-resident time-series argument.

Section 5.2 of the paper argues that when the feature series lives on disk,
the dominating cost difference between the Apriori miner (up to ``p`` scans)
and the max-subpattern hit-set miner (exactly 2 scans) is the extra I/O.
:class:`ScanCountingSeries` makes that argument measurable: it wraps a
:class:`~repro.timeseries.feature_series.FeatureSeries` and counts every full
pass over the data, optionally charging a simulated per-slot read cost.

All miners in :mod:`repro.core` access the series only through
``num_periods`` / ``segments`` / ``iter_slots`` / ``slot_column`` /
``__len__`` / ``alphabet``, so the wrapper is a drop-in substitute.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.timeseries.feature_series import FeatureSeries, Segment

if TYPE_CHECKING:
    from repro.kernels.slots import SlotColumn


class ScanCountingSeries:
    """A feature series wrapper that counts full scans over the data.

    Parameters
    ----------
    series:
        The wrapped feature series.
    slot_cost:
        Simulated cost units charged per slot read (e.g. microseconds per
        tuple fetched from disk).  Purely bookkeeping: no real delay is
        introduced; the accumulated figure is exposed as
        :attr:`simulated_cost`.

    Notes
    -----
    A *scan* is counted when a :meth:`segments` or :meth:`iter_slots`
    iterator is created, and on every :meth:`slot_column` read (which
    reads every slot); slots read are accumulated as the data is handed
    out.  This matches the paper's accounting, where each mining round
    reads the whole series once.
    """

    __slots__ = ("_series", "_slot_cost", "scans", "slots_read")

    def __init__(self, series: FeatureSeries, slot_cost: float = 0.0):
        self._series = series
        self._slot_cost = slot_cost
        #: Number of full passes started over the series.
        self.scans = 0
        #: Total number of slots delivered to consumers.
        self.slots_read = 0

    # -- the miner-facing protocol -------------------------------------

    def num_periods(self, period: int) -> int:
        """Delegate to the wrapped series (metadata access, not a scan)."""
        return self._series.num_periods(period)

    def segments(self, period: int) -> Iterator[Segment]:
        """Iterate period segments while counting the pass as one scan."""
        self.scans += 1
        for segment in self._series.segments(period):
            self.slots_read += period
            yield segment

    def iter_slots(self) -> Iterator[frozenset[str]]:
        """Iterate raw slots while counting the pass as one scan."""
        self.scans += 1
        for slot in self._series.iter_slots():
            self.slots_read += 1
            yield slot

    def slot_column(self) -> SlotColumn:
        """Hand out the wrapped series' slot column, counted as one scan."""
        self.scans += 1
        self.slots_read += len(self._series)
        return self._series.slot_column()

    def __len__(self) -> int:
        return len(self._series)

    @property
    def alphabet(self) -> frozenset[str]:
        """Alphabet of the wrapped series (metadata access, not a scan)."""
        return self._series.alphabet

    # -- bookkeeping -----------------------------------------------------

    @property
    def series(self) -> FeatureSeries:
        """The wrapped series."""
        return self._series

    @property
    def simulated_cost(self) -> float:
        """Accumulated simulated I/O cost: ``slots_read * slot_cost``."""
        return self.slots_read * self._slot_cost

    def reset(self) -> None:
        """Zero the scan and read counters."""
        self.scans = 0
        self.slots_read = 0

    def __repr__(self) -> str:
        return (
            f"ScanCountingSeries(len={len(self._series)}, scans={self.scans}, "
            f"slots_read={self.slots_read})"
        )
