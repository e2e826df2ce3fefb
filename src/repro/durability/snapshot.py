"""Atomic, checksummed, versioned snapshot files.

Snapshots are published through
:func:`~repro.durability.files.atomic_write`, so a reader sees either the
old snapshot or the new one — never a half-written hybrid — and any
interrupted write leaves only a stale ``*.tmp*`` file that
:func:`clean_stale_tmp` sweeps on the next startup.

Within the file, corruption is *detectable*: the layout is three JSONL
lines —

1. a header ``{"format": "repro.snapshot/1", "kind": ..., "version": N}``,
2. the payload object,
3. a footer ``{"crc32": ..., "length": ...}`` over the first two lines'
   exact bytes

— so truncation (missing footer), torn writes (CRC mismatch), and foreign
files (bad header) all raise :class:`~repro.core.errors.SnapshotCorruption`,
which recovery treats as "fall back to the previous snapshot", never as
silently-wrong state.

Fault injection: a :class:`~repro.durability.files.FileChaos` cursor passed
to :class:`SnapshotWriter` deterministically injects torn writes, footer
truncation, and stale-tmp crashes — the failure modes the recovery ladder
must absorb, exercised by the durability chaos suite.
"""

from __future__ import annotations

import json
import zlib
from collections.abc import Iterable
from pathlib import Path
from typing import Any

from repro.core.errors import DurabilityError, SnapshotCorruption
from repro.durability.files import FileChaos, atomic_write

#: Format tag written into every snapshot header.
FORMAT_TAG = "repro.snapshot/1"

#: Current schema version of the snapshot *envelope* (header + footer).
#: Payload schemas carry their own ``kind``-specific versioning.
ENVELOPE_VERSION = 1


def snapshot_bytes(kind: str, payload: Any, version: int = 1) -> bytes:
    """The full serialized form of one snapshot (header, payload, footer)."""
    header = json.dumps(
        {"format": FORMAT_TAG, "kind": kind, "version": version},
        separators=(",", ":"),
    )
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    content = (header + "\n" + body + "\n").encode("utf-8")
    footer = json.dumps(
        {"crc32": zlib.crc32(content), "length": len(content)},
        separators=(",", ":"),
    )
    return content + footer.encode("utf-8") + b"\n"


class SnapshotWriter:
    """Atomic writes of checksummed snapshots into one directory.

    Parameters
    ----------
    directory:
        Target directory; created if missing.
    chaos:
        Optional :class:`~repro.durability.files.FileChaos` fault cursor.
        When a scheduled fault fires, the write is deliberately damaged
        (torn bytes, missing footer, or an un-renamed tmp file) instead
        of completed — the recovery ladder's test harness.
    """

    __slots__ = ("directory", "chaos")

    def __init__(self, directory: str | Path, chaos: "FileChaos | None" = None):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.chaos = chaos

    def write(
        self, name: str, kind: str, payload: Any, version: int = 1
    ) -> Path:
        """Atomically publish one snapshot at ``directory/name``.

        Returns the final path.  On an injected fault the final state is
        deliberately one of the crash outcomes (torn file, truncated
        file, or stale tmp with no rename); callers never observe an
        exception — exactly like a real kill.
        """
        final = self.directory / name
        data = snapshot_bytes(kind, payload, version=version)
        fault = None if self.chaos is None else self.chaos.next_fault()
        if fault is not None:
            FileChaos.inflict(fault, final, data)
            return final
        with atomic_write(final) as handle:
            handle.write(data)
        return final


def read_snapshot(
    path: str | Path, kind: str | None = None
) -> dict[str, Any]:
    """Validate and load one snapshot, returning its payload.

    Raises :class:`SnapshotCorruption` for anything that reads as damage
    (missing file counts: a snapshot that vanished mid-crash is the same
    recovery case as one that tore), and :class:`DurabilityError` for
    files that are *valid* but of the wrong kind — that is a caller bug,
    not corruption, and falling back would mask it.
    """
    source = Path(path)
    try:
        raw = source.read_bytes()
    except OSError as error:
        raise SnapshotCorruption(f"{source}: unreadable: {error}") from error
    lines = raw.split(b"\n")
    if len(lines) < 4 or lines[3] != b"" or lines[-1] != b"":
        raise SnapshotCorruption(
            f"{source}: truncated snapshot ({len(raw)} bytes)"
        )
    header_line, body_line, footer_line = lines[0], lines[1], lines[2]
    try:
        footer = json.loads(footer_line)
    except json.JSONDecodeError as error:
        raise SnapshotCorruption(
            f"{source}: unparseable footer: {error}"
        ) from error
    content = header_line + b"\n" + body_line + b"\n"
    if footer.get("length") != len(content):
        raise SnapshotCorruption(
            f"{source}: length mismatch (footer says "
            f"{footer.get('length')}, content is {len(content)} bytes)"
        )
    if footer.get("crc32") != zlib.crc32(content):
        raise SnapshotCorruption(f"{source}: checksum mismatch")
    try:
        header = json.loads(header_line)
        payload = json.loads(body_line)
    except json.JSONDecodeError as error:
        raise SnapshotCorruption(
            f"{source}: unparseable content behind a valid checksum: {error}"
        ) from error
    if header.get("format") != FORMAT_TAG:
        raise SnapshotCorruption(
            f"{source}: not a snapshot (format {header.get('format')!r})"
        )
    if int(header.get("version", 0)) > ENVELOPE_VERSION:
        raise DurabilityError(
            f"{source}: snapshot version {header.get('version')} is newer "
            f"than this reader understands ({ENVELOPE_VERSION}); upgrade "
            "before resuming"
        )
    if kind is not None and header.get("kind") != kind:
        raise DurabilityError(
            f"{source}: snapshot kind {header.get('kind')!r} does not "
            f"match the expected {kind!r}"
        )
    if not isinstance(payload, dict):
        raise SnapshotCorruption(
            f"{source}: snapshot payload must be a JSON object"
        )
    return payload


def is_stale_tmp(name: str) -> bool:
    """Whether a file name is an interrupted write's leftover temp file."""
    return ".tmp." in name


def remove_stale_tmp(paths: Iterable[Path]) -> list[Path]:
    """Remove stale temp files; returns the ones actually removed."""
    removed = []
    for path in paths:
        try:
            path.unlink()
        except OSError:
            continue
        removed.append(path)
    return removed


def clean_stale_tmp(directory: str | Path) -> list[Path]:
    """Remove leftover ``*.tmp*`` files from interrupted writes.

    Returns what was removed so callers can log the sweep.  Stale tmps
    are pure garbage by construction: a tmp file only outlives its
    writer when the process died before the rename, and the snapshot it
    was going to replace is still the latest valid one.
    """
    base = Path(directory)
    if not base.is_dir():
        return []
    return remove_stale_tmp(
        entry
        for entry in sorted(base.iterdir())
        if is_stale_tmp(entry.name) and entry.is_file()
    )
