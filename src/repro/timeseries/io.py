"""Plain-text persistence for feature series.

Format: one slot per line, features separated by spaces; an empty line is an
empty slot.  Lines starting with ``#`` are comments.  The format is
line-oriented so a series can be streamed from disk, matching the paper's
disk-resident-database setting.

Malformed content — bytes that are not UTF-8, features carrying control
characters, or features using the reserved ``*`` wildcard — fails loudly
with the file name and 1-based line number.  Long-running ingestion can
instead pass ``strict=False`` plus a :class:`LoadReport`: malformed lines
are *quarantined* (dropped from the series, with later slots shifting up)
and described on the report for the caller to surface.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.errors import SeriesError
from repro.timeseries.feature_series import FeatureSeries

if TYPE_CHECKING:
    from repro.timeseries.events import EventDatabase


@dataclass(frozen=True, slots=True)
class QuarantinedLine:
    """One malformed series line set aside by a ``strict=False`` load."""

    path: str
    #: 1-based line number in the source file.
    line: int
    reason: str
    #: The offending content (repr-safe, truncated).
    content: str

    def describe(self) -> str:
        """``file:line: reason`` for logs and CLI warnings."""
        return f"{self.path}:{self.line}: {self.reason} ({self.content})"


@dataclass(slots=True)
class LoadReport:
    """Side-channel record of everything a lenient load quarantined."""

    quarantined: list[QuarantinedLine] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when nothing was quarantined."""
        return not self.quarantined


def _feature_problem(feature: str) -> str | None:
    """Why a feature token is unusable, or ``None`` if it is fine."""
    if "*" in feature:
        return "feature uses the reserved wildcard character '*'"
    if any(ord(ch) < 32 or ord(ch) == 127 for ch in feature):
        return "feature contains control characters"
    return None


def _snippet(raw: bytes) -> str:
    """A short, printable excerpt of a raw line for error reports."""
    text = raw.decode("utf-8", errors="backslashreplace")
    return repr(text if len(text) <= 60 else text[:57] + "...")


@dataclass(frozen=True, slots=True)
class _BadLine:
    """Why one distinct raw line is malformed, and its report excerpt."""

    reason: str
    content: str


def _parse_line(raw: bytes) -> frozenset[str] | _BadLine | None:
    """Decode, split and validate one raw line (``None`` for a comment)."""
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError as error:
        return _BadLine(
            f"line is not valid UTF-8 ({error.reason} at byte {error.start})",
            _snippet(raw),
        )
    if line.startswith("#"):
        return None
    features = line.split()
    # A printable line without '*' cannot hold a bad feature; anything
    # else is checked feature by feature, so the first problem is named.
    if "*" in line or not line.isprintable():
        for feature in features:
            problem = _feature_problem(feature)
            if problem is not None:
                return _BadLine(problem, _snippet(raw))
    return frozenset(features)


def save_series(series: FeatureSeries, path: str | Path) -> None:
    """Write a series to a text file (one slot per line)."""
    target = Path(path)
    with target.open("w", encoding="utf-8") as handle:
        handle.write("# repro feature series v1\n")
        for slot in series:
            handle.write(" ".join(sorted(slot)))
            handle.write("\n")


def iter_slot_lines(
    path: str | Path,
    strict: bool = True,
    report: LoadReport | None = None,
) -> Iterator[frozenset[str]]:
    """Stream slots from a series file without materializing the series.

    Malformed lines raise :class:`~repro.core.errors.SeriesError` naming
    ``file:line``; with ``strict=False`` they are skipped instead and, if
    ``report`` is given, recorded there as :class:`QuarantinedLine`
    entries (one per occurrence, each with its own line number).  The
    file is read as bytes and decoded per line so even an encoding error
    points at its exact line.

    Each distinct line is decoded, split and validated once: a repeated
    line costs one dictionary lookup and yields the same shared
    frozenset, and equal slots spelled differently share one too.
    """
    source = Path(path)
    if not source.exists():
        raise SeriesError(f"series file not found: {source}")
    # Both memos live for this one call only.
    parsed: dict[bytes, frozenset[str] | _BadLine | None] = {}
    shared: dict[frozenset[str], frozenset[str]] = {}
    with source.open("rb") as handle:
        for number, raw in enumerate(handle, start=1):
            raw = raw.rstrip(b"\n").rstrip(b"\r")
            try:
                slot = parsed[raw]
            except KeyError:
                slot = _parse_line(raw)
                if isinstance(slot, frozenset):
                    slot = shared.setdefault(slot, slot)
                parsed[raw] = slot
            if isinstance(slot, frozenset):
                yield slot
            elif slot is not None:
                if strict:
                    raise SeriesError(f"{source}:{number}: {slot.reason}")
                if report is not None:
                    report.quarantined.append(
                        QuarantinedLine(
                            path=str(source),
                            line=number,
                            reason=slot.reason,
                            content=slot.content,
                        )
                    )


def load_series(
    path: str | Path,
    strict: bool = True,
    report: LoadReport | None = None,
) -> FeatureSeries:
    """Read a series previously written by :func:`save_series`.

    ``strict`` and ``report`` behave as in :func:`iter_slot_lines`:
    the default fails fast with ``file:line`` context, ``strict=False``
    quarantines malformed lines onto ``report`` and loads the rest.  The
    slots arrive validated, so the series wraps them without a second
    per-slot check.
    """
    return FeatureSeries._from_normalized(
        tuple(iter_slot_lines(path, strict=strict, report=report))
    )


def load_numeric_csv(
    path: str | Path,
    column: str,
    delimiter: str = ",",
) -> list[float]:
    """Read one numeric column from a headed CSV file.

    A thin, dependency-free reader for the discretization pipeline: the
    first row is the header, the named column is parsed as floats.
    """
    import csv

    source = Path(path)
    if not source.exists():
        raise SeriesError(f"CSV file not found: {source}")
    values: list[float] = []
    with source.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle, delimiter=delimiter)
        if reader.fieldnames is None or column not in reader.fieldnames:
            raise SeriesError(
                f"column {column!r} not in CSV header "
                f"{reader.fieldnames}: {source}"
            )
        for row_number, row in enumerate(reader, start=2):
            raw = row[column]
            try:
                values.append(float(raw))
            except (TypeError, ValueError) as error:
                raise SeriesError(
                    f"{source}:{row_number}: {column}={raw!r} is not numeric"
                ) from error
    if not values:
        raise SeriesError(f"CSV file has no data rows: {source}")
    return values


def load_events_csv(
    path: str | Path,
    time_column: str = "time",
    feature_column: str = "feature",
    delimiter: str = ",",
) -> "EventDatabase":
    """Read a timestamped event database from a headed CSV file.

    Returns a :class:`~repro.timeseries.events.EventDatabase`; bucket it
    with ``to_feature_series`` to obtain a mineable series.
    """
    import csv

    from repro.timeseries.events import EventDatabase

    source = Path(path)
    if not source.exists():
        raise SeriesError(f"CSV file not found: {source}")
    database = EventDatabase()
    with source.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle, delimiter=delimiter)
        missing = {time_column, feature_column} - set(reader.fieldnames or ())
        if missing:
            raise SeriesError(
                f"columns {sorted(missing)} not in CSV header "
                f"{reader.fieldnames}: {source}"
            )
        for row_number, row in enumerate(reader, start=2):
            try:
                time = float(row[time_column])
            except (TypeError, ValueError) as error:
                raise SeriesError(
                    f"{source}:{row_number}: bad timestamp "
                    f"{row[time_column]!r}"
                ) from error
            feature = row[feature_column]
            if not feature:
                raise SeriesError(
                    f"{source}:{row_number}: empty feature name"
                )
            database.add(time, feature)
    if not database.events:
        raise SeriesError(f"CSV file has no data rows: {source}")
    return database
