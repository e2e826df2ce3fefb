"""The pool of loaded series the server answers queries against.

A long-running service cannot re-read its input file per request — the
whole point of the serving tier is that one loaded series answers many
queries.  :class:`SeriesRegistry` owns that pool: series are loaded by
name (from the line-oriented format of :mod:`repro.timeseries.io`,
honouring the lenient quarantine mode), fingerprinted once at load time,
and handed out to the mining path by reference.

The registry is thread-safe: loads run on the server's worker pool (file
I/O never blocks the event loop — rule REP801) while lookups happen on
the event-loop thread.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.errors import ServeError
from repro.timeseries.feature_series import FeatureSeries, series_fingerprint
from repro.timeseries.io import LoadReport, load_series

if TYPE_CHECKING:
    from pathlib import Path


@dataclass(frozen=True, slots=True)
class LoadedSeries:
    """One resident series plus the identity facts the server reports."""

    name: str
    series: FeatureSeries
    #: Content digest — the count-cache and result-cache identity.
    fingerprint: str
    #: Where the series came from (a path, or ``"inline"``).
    source: str
    #: Slots in the loaded series.
    slots: int
    #: Lines quarantined by a lenient load (0 for strict loads).
    quarantined: int

    def describe(self) -> dict:
        """The JSON shape of one ``GET /series`` row."""
        return {
            "name": self.name,
            "fingerprint": self.fingerprint,
            "source": self.source,
            "slots": self.slots,
            "quarantined": self.quarantined,
        }


class SeriesRegistry:
    """Named, loaded series; the server's only source of mineable data."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._series: dict[str, LoadedSeries] = {}

    def load(
        self, name: str, path: "str | Path", lenient: bool = False
    ) -> LoadedSeries:
        """Load a series file under a name (replacing any previous holder).

        Blocking (reads the file; fingerprints the content) — the
        application dispatches it to the worker pool.  ``lenient`` maps
        to the quarantine mode of :func:`repro.timeseries.io.load_series`.
        """
        _check_name(name)
        report = LoadReport()
        series = load_series(path, strict=not lenient, report=report)
        loaded = LoadedSeries(
            name=name,
            series=series,
            fingerprint=series_fingerprint(series),
            source=str(path),
            slots=len(series),
            quarantined=len(report.quarantined),
        )
        with self._lock:
            self._series[name] = loaded
        return loaded

    def add(
        self, name: str, series: FeatureSeries, source: str = "inline"
    ) -> LoadedSeries:
        """Register an already-built series (tests, benchmarks, embedding)."""
        _check_name(name)
        loaded = LoadedSeries(
            name=name,
            series=series,
            fingerprint=series_fingerprint(series),
            source=source,
            slots=len(series),
            quarantined=0,
        )
        with self._lock:
            self._series[name] = loaded
        return loaded

    def unload(self, name: str) -> LoadedSeries:
        """Drop one series from the pool; raises if the name is unknown."""
        with self._lock:
            loaded = self._series.pop(name, None)
        if loaded is None:
            raise ServeError(f"no loaded series named {name!r}")
        return loaded

    def get(self, name: str) -> LoadedSeries:
        """The loaded series of a name; raises if unknown."""
        with self._lock:
            loaded = self._series.get(name)
        if loaded is None:
            raise ServeError(f"no loaded series named {name!r}")
        return loaded

    def describe(self) -> list[dict]:
        """Every loaded series, name-sorted, in ``GET /series`` shape."""
        with self._lock:
            loaded = sorted(self._series.values(), key=lambda item: item.name)
        return [item.describe() for item in loaded]

    def __len__(self) -> int:
        with self._lock:
            return len(self._series)

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._series


def _check_name(name: str) -> None:
    """Reject names that would not survive a URL path segment."""
    if not name or "/" in name or name != name.strip():
        raise ServeError(
            f"series name must be a non-empty path-safe token, got {name!r}"
        )
