"""Plain-text persistence for feature series.

Format: one slot per line, features separated by spaces; an empty line is an
empty slot.  Lines starting with ``#`` are comments.  The format is
line-oriented so a series can be streamed from disk, matching the paper's
disk-resident-database setting.

Malformed content — bytes that are not UTF-8, features carrying control
characters, or features using a character of the pattern notation (the
``*`` wildcard, ``{``, ``}`` or ``,``) — fails loudly
with the file name and 1-based line number.  Long-running ingestion can
instead pass ``strict=False`` plus a :class:`LoadReport`: malformed lines
are *quarantined* (dropped from the series, with later slots shifting up)
and described on the report for the caller to surface.

:func:`load_series` parses straight into the series' interned slot
column (:class:`~repro.kernels.slots.SlotColumn`), the form every
in-memory scan reads.  It reads the file in bounded ``readlines`` chunks,
decodes, splits and validates each distinct line once, and maps every
line to its slot id in bulk (``np.fromiter`` over C-level dictionary
lookups), so a repeated line costs no Python-level work at all.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.errors import SeriesError
from repro.core.pattern import feature_problem
from repro.kernels.slots import SlotColumn, SlotTable
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
    """Why a feature token is unusable, or ``None`` if it is fine.

    The shared feature-name rule (:func:`~repro.core.pattern.feature_problem`)
    plus the file format's own: no control characters.
    """
    problem = feature_problem(feature)
    if problem is None and any(ord(ch) < 32 or ord(ch) == 127 for ch in feature):
        return "feature contains control characters"
    return problem


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
    # A printable line without a reserved character cannot hold a bad
    # feature; anything else is checked feature by feature, so the first
    # problem is named.
    if (
        "*" in line
        or "{" in line
        or "}" in line
        or "," in line
        or not line.isprintable()
    ):
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


#: Bytes of lines one ``readlines`` call returns (at least one line): the
#: loader holds one such chunk of raw lines at a time.
READ_CHUNK_BYTES = 1 << 16

#: Slot-id code of a comment line; malformed line ``i`` (in first-seen
#: order) has code ``-2 - i``.
_COMMENT = -1


class _LineCodes(dict[bytes, int]):
    """Raw line (terminator included) -> slot id, ``_COMMENT`` or bad code.

    A line missing from the table is decoded, split and validated on its
    first lookup, so each distinct line is parsed once and every later
    lookup is a plain dictionary hit.  Equal slots, however spelled,
    share one slot id and one frozenset.
    """

    __slots__ = ("slot_ids", "bad")

    def __init__(self) -> None:
        super().__init__()
        #: Every distinct slot, in first-seen order, to its slot id.
        self.slot_ids: dict[frozenset[str], int] = {}
        #: Why each distinct malformed line is malformed.
        self.bad: list[_BadLine] = []

    def __missing__(self, raw: bytes) -> int:
        slot = _parse_line(raw.rstrip(b"\n").rstrip(b"\r"))
        if slot is None:
            code = _COMMENT
        elif isinstance(slot, _BadLine):
            code = -2 - len(self.bad)
            self.bad.append(slot)
        else:
            code = self.slot_ids.setdefault(slot, len(self.slot_ids))
        self[raw] = code
        return code


def load_series(
    path: str | Path,
    strict: bool = True,
    report: LoadReport | None = None,
) -> FeatureSeries:
    """Read a series previously written by :func:`save_series`.

    Malformed lines raise :class:`~repro.core.errors.SeriesError` naming
    ``file:line`` of the first one; with ``strict=False`` they are
    skipped instead and, if ``report`` is given, recorded there as
    :class:`QuarantinedLine` entries (one per occurrence, each with its
    own line number).  The file is read as bytes and decoded per distinct
    line, so even an encoding error points at its exact line.

    The series arrives with its slot column: each distinct line is
    decoded, split and validated once, equal slots (however spelled)
    share one frozenset and one slot id, and every line maps to its id
    through one dictionary lookup in C.
    """
    source = Path(path)
    if not source.exists():
        raise SeriesError(f"series file not found: {source}")
    codes = _LineCodes()
    chunks: list[np.ndarray] = []
    lines_before = 0
    with source.open("rb") as handle:
        while lines := handle.readlines(READ_CHUNK_BYTES):
            ids = np.fromiter(map(codes.__getitem__, lines), np.int32, len(lines))
            if ids.min() < 0:
                for row in np.flatnonzero(ids < _COMMENT).tolist():
                    problem = codes.bad[-2 - int(ids[row])]
                    number = lines_before + row + 1
                    if strict:
                        raise SeriesError(f"{source}:{number}: {problem.reason}")
                    if report is not None:
                        report.quarantined.append(
                            QuarantinedLine(
                                path=str(source),
                                line=number,
                                reason=problem.reason,
                                content=problem.content,
                            )
                        )
                ids = ids[ids >= 0]
            chunks.append(ids)
            lines_before += len(lines)
    return FeatureSeries._from_column(
        SlotColumn(
            SlotTable(codes.slot_ids),
            np.concatenate(chunks) if chunks else np.zeros(0, np.int32),
        )
    )


def iter_slot_lines(
    path: str | Path,
    strict: bool = True,
    report: LoadReport | None = None,
) -> Iterator[frozenset[str]]:
    """The slots of a series file in order: a view over :func:`load_series`."""
    return iter(load_series(path, strict=strict, report=report))


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
