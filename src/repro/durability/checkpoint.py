"""Crash-safe stream checkpointing: snapshots plus a write-ahead log.

One :class:`StreamCheckpointer` owns a directory with two kinds of files:

``snapshot-<index>.json``
    A full state snapshot (via :mod:`repro.durability.snapshot`, so atomic
    and checksummed) taken when the stream had consumed exactly ``index``
    records.  The payload wraps the caller's state with that watermark:
    ``{"records_consumed": index, "state": {...}}``.

``wal-<index>.jsonl``
    A write-ahead log segment whose first record has global index
    ``index``.  Every input record is appended *before* it is applied, as
    ``{"i": n, "r": <record>}`` — one flushed line each — so a kill at any
    instant loses at most the in-flight record, never an applied one.  A
    caller may attach metadata to a record as ``"m"`` (a durable stream
    logs its parameters with record 0), so it is durable before any
    snapshot exists without a write of its own.

The protocol is the classic one: log the record, apply it, and every
``snapshot()`` call captures the applied state, rotates the WAL, and
prunes.  Recovery (:meth:`recover`) walks the fallback ladder:

1. sweep stale ``*.tmp*`` files from interrupted snapshot publishes;
2. load the newest snapshot that validates, skipping corrupt ones — each
   skip just means a longer WAL replay from an older snapshot;
3. replay every WAL record with ``i >= records_consumed`` in order,
   truncating a torn trailing line of the active segment (the one write
   a kill can tear);
4. if *no* snapshot validates but the WAL still reaches back to record 0,
   replay everything from scratch.

Replay is idempotent by construction — records below the snapshot's
watermark are skipped by index, so it does not matter whether the crash
landed before or after a WAL rotation.  A genuine gap in the record
indices (which the retention policy never creates) fails loudly with
:class:`~repro.core.errors.DurabilityError` rather than resuming wrong.

Retention keeps the newest ``keep`` snapshots *and* extends older until at
least one of the kept ones validates, then drops WAL segments that only
cover records below the oldest kept valid snapshot.  Chaos-damaged
snapshots therefore never strand the directory: the WAL needed to recover
past them is retained precisely because they fail validation at prune
time.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any

from repro.core.errors import DurabilityError, SnapshotCorruption
from repro.durability.snapshot import (
    SnapshotWriter,
    is_stale_tmp,
    read_snapshot,
    remove_stale_tmp,
)

if TYPE_CHECKING:
    from repro.durability.files import FileChaos

#: Zero-padded width of the record index embedded in file names.
_INDEX_WIDTH = 12

#: One WAL line per record: compact, keys sorted.  Built once, since
#: ``json.dumps`` with options builds a new encoder on every call.
_WAL_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=True)

_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{%d})\.json$" % _INDEX_WIDTH)
_WAL_RE = re.compile(r"^wal-(\d{%d})\.jsonl$" % _INDEX_WIDTH)


def _snapshot_name(index: int) -> str:
    return f"snapshot-{index:0{_INDEX_WIDTH}d}.json"


def _wal_name(index: int) -> str:
    return f"wal-{index:0{_INDEX_WIDTH}d}.jsonl"


@dataclass(frozen=True)
class RecoveredState:
    """What :meth:`StreamCheckpointer.recover` reassembled.

    ``state`` is the caller payload of the newest valid snapshot, or
    ``None`` when recovery replayed the whole WAL from record 0 (either
    no snapshot existed yet, or every one was corrupt but the log was
    complete).  ``tail`` holds the WAL records the caller must re-apply,
    in order, starting at global index ``records_consumed``.
    """

    state: dict[str, Any] | None
    records_consumed: int
    tail: list[Any] = field(default_factory=list)
    #: Corrupt snapshots skipped on the way down the ladder.
    snapshots_skipped: int = 0
    #: Torn trailing WAL records truncated away.
    torn_wal_records: int = 0
    #: Stale ``*.tmp*`` files swept from interrupted publishes.
    stale_tmp_removed: int = 0
    #: Metadata logged with a retained WAL record (the newest one), or
    #: ``None`` when no retained record carries any.
    meta: Any = None

    @property
    def replayed(self) -> int:
        """Records the caller will re-apply."""
        return len(self.tail)

    def describe(self) -> str:
        """One log line summarizing the recovery."""
        origin = (
            "from scratch (no valid snapshot)"
            if self.state is None and self.records_consumed == 0
            else f"from snapshot at record {self.records_consumed}"
        )
        extras = []
        if self.snapshots_skipped:
            extras.append(f"{self.snapshots_skipped} corrupt snapshot(s)")
        if self.torn_wal_records:
            extras.append(f"{self.torn_wal_records} torn WAL record(s)")
        if self.stale_tmp_removed:
            extras.append(f"{self.stale_tmp_removed} stale tmp file(s)")
        suffix = f" (swept {', '.join(extras)})" if extras else ""
        return (
            f"recovered {origin}, replaying {self.replayed} WAL "
            f"record(s){suffix}"
        )


class StreamCheckpointer:
    """Write-ahead logging and snapshot rotation for one stream.

    Parameters
    ----------
    directory:
        The checkpoint directory; created if missing.  One stream per
        directory — the WAL indices are a single global sequence.
    kind:
        Snapshot kind tag; a directory written for a different kind is
        rejected at recovery (caller bug, not corruption).
    keep:
        Snapshots retained after each rotation (at least 1; older ones
        are kept anyway while none of the newest ``keep`` validate).
    chaos:
        Optional :class:`~repro.durability.files.FileChaos` cursor; its
        faults hit snapshot publishes, which is exactly what the
        recovery ladder exists to absorb.
    """

    __slots__ = (
        "directory",
        "_kind",
        "_keep",
        "_writer",
        "_handle",
        "_next_index",
        "_last_snapshot_index",
        "_recovered",
    )

    def __init__(
        self,
        directory: str | Path,
        kind: str,
        keep: int = 2,
        chaos: "FileChaos | None" = None,
    ):
        if keep < 1:
            raise DurabilityError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self._kind = kind
        self._keep = keep
        self._writer = SnapshotWriter(self.directory, chaos=chaos)
        self._handle: IO[str] | None = None
        self._next_index = 0
        self._last_snapshot_index = -1
        self._recovered = False

    # -- directory scan --------------------------------------------------

    def _scan(
        self,
    ) -> tuple[list[Path], list[tuple[int, Path]], list[tuple[int, Path]]]:
        """One listing of the directory, classified.

        Returns the stale tmp files, then the snapshots and the WAL
        segments as ``(index, path)``, each sorted.
        """
        stale: list[Path] = []
        snapshots: list[tuple[int, Path]] = []
        segments: list[tuple[int, Path]] = []
        with os.scandir(self.directory) as listing:
            for entry in listing:
                if not entry.is_file():
                    continue
                name = entry.name
                path = self.directory / name
                if is_stale_tmp(name):
                    stale.append(path)
                elif match := _SNAPSHOT_RE.match(name):
                    snapshots.append((int(match.group(1)), path))
                elif match := _WAL_RE.match(name):
                    segments.append((int(match.group(1)), path))
        stale.sort()
        snapshots.sort()
        segments.sort()
        return stale, snapshots, segments

    # -- recovery --------------------------------------------------------

    def recover(self) -> RecoveredState | None:
        """Reassemble the latest durable state; ``None`` on a fresh dir.

        Must be called exactly once, before any :meth:`append` — it also
        opens (or creates) the active WAL segment.
        """
        if self._recovered:
            raise DurabilityError("recover() may only be called once")
        self._recovered = True
        stale, snapshots, segments = self._scan()
        # Swept before anything is read, as step 1 of the ladder.
        removed = remove_stale_tmp(stale)

        state: dict[str, Any] | None = None
        consumed = 0
        skipped = 0
        for index, path in reversed(snapshots):
            try:
                payload = read_snapshot(path, kind=self._kind)
                consumed = int(payload["records_consumed"])
                raw_state = payload["state"]
                if not isinstance(raw_state, dict):
                    raise SnapshotCorruption(
                        f"{path}: snapshot state must be a JSON object"
                    )
                state = raw_state
                self._last_snapshot_index = index
                break
            except (SnapshotCorruption, KeyError, ValueError):
                skipped += 1
                continue
        if state is None and snapshots:
            # Every snapshot is corrupt: the last rung is a full replay,
            # possible only while the WAL still reaches back to record 0.
            if not segments or segments[0][0] != 0:
                raise DurabilityError(
                    f"{self.directory}: no snapshot validates and the WAL "
                    f"no longer reaches record 0; cannot recover exactly"
                )

        tail, torn, meta = self._replay_wal(segments, consumed)
        self._next_index = consumed + len(tail)

        if segments:
            active = segments[-1][1]
            self._handle = active.open("a", encoding="utf-8")
        else:
            active = self.directory / _wal_name(consumed)
            self._handle = active.open("a", encoding="utf-8")
        if not snapshots and not segments and not removed:
            return None
        return RecoveredState(
            state=state,
            records_consumed=consumed,
            tail=tail,
            snapshots_skipped=skipped,
            torn_wal_records=torn,
            stale_tmp_removed=len(removed),
            meta=meta,
        )

    def _replay_wal(
        self, segments: list[tuple[int, Path]], consumed: int
    ) -> tuple[list[Any], int, Any]:
        """Collect WAL records from ``consumed`` on, truncating torn tails;
        also returns the newest metadata any retained record carries."""
        tail: list[Any] = []
        torn = 0
        meta: Any = None
        expected = consumed
        for position, (_, path) in enumerate(segments):
            last_segment = position == len(segments) - 1
            raw = path.read_bytes()
            offset = 0
            chunks = raw.split(b"\n")
            for number, chunk in enumerate(chunks):
                if chunk == b"" and number == len(chunks) - 1:
                    break  # clean trailing newline
                complete = number < len(chunks) - 1
                record: dict[str, Any] | None = None
                if complete:
                    try:
                        decoded = json.loads(chunk)
                        if (
                            isinstance(decoded, dict)
                            and isinstance(decoded.get("i"), int)
                            and "r" in decoded
                        ):
                            record = decoded
                    except json.JSONDecodeError:
                        record = None
                if record is None:
                    # A torn (or never-finished) trailing write.  Only the
                    # active segment can legitimately have one; truncate it
                    # so the append path continues from a clean line.
                    if not last_segment:
                        raise DurabilityError(
                            f"{path}: unreadable WAL record mid-log "
                            f"(line {number + 1}); cannot recover exactly"
                        )
                    with path.open("r+b") as handle:
                        handle.truncate(offset)
                    torn += 1
                    break
                index = record["i"]
                if "m" in record:
                    meta = record["m"]
                if index >= consumed:
                    if index != expected:
                        raise DurabilityError(
                            f"{path}: WAL gap — expected record "
                            f"{expected}, found {index}"
                        )
                    tail.append(record["r"])
                    expected += 1
                offset += len(chunk) + 1
        return tail, torn, meta

    # -- the append path -------------------------------------------------

    @property
    def next_index(self) -> int:
        """Global index the next appended record will get."""
        return self._next_index

    def append(self, record: Any, meta: Any = None) -> int:
        """Log one input record (flushed) and return its global index.

        Call this *before* applying the record to in-memory state — the
        write-ahead ordering is the whole crash-safety argument.
        ``meta``, when given, is logged on the same line and comes back
        as :attr:`RecoveredState.meta` while the record is retained.
        """
        if self._handle is None:
            raise DurabilityError(
                "checkpointer is not open (call recover() first)"
            )
        entry: dict[str, Any] = {"i": self._next_index, "r": record}
        if meta is not None:
            entry["m"] = meta
        line = _WAL_ENCODER.encode(entry)
        self._handle.write(line + "\n")
        self._handle.flush()
        self._next_index += 1
        return self._next_index - 1

    def sync(self) -> None:
        """fsync the active WAL segment (power-loss durability barrier)."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    # -- snapshots -------------------------------------------------------

    def snapshot(self, state: dict[str, Any]) -> Path | None:
        """Snapshot the caller's applied state, rotate the WAL, prune.

        ``state`` must reflect exactly the records appended so far.  A
        call with no new records since the last snapshot is a no-op.
        Crash-ordering note: the snapshot publishes *before* the WAL
        rotates, and replay skips records below the snapshot's watermark
        — so a kill between the two steps merely replays nothing from
        the stale segment.
        """
        if self._handle is None:
            raise DurabilityError(
                "checkpointer is not open (call recover() first)"
            )
        if self._next_index == self._last_snapshot_index:
            return None
        self.sync()
        path = self._writer.write(
            _snapshot_name(self._next_index),
            kind=self._kind,
            payload={"records_consumed": self._next_index, "state": state},
        )
        self._last_snapshot_index = self._next_index
        self._handle.close()
        self._handle = (self.directory / _wal_name(self._next_index)).open(
            "a", encoding="utf-8"
        )
        self._prune()
        return path

    def _prune(self) -> None:
        """Apply retention: newest ``keep`` snapshots (extended older
        until one validates) plus every WAL segment still needed."""
        _, snapshots, segments = self._scan()
        kept = 0
        valid_floor: int | None = None
        cut = 0  # snapshots[:cut] get deleted
        for position in range(len(snapshots) - 1, -1, -1):
            index, path = snapshots[position]
            if kept >= self._keep and valid_floor is not None:
                break
            kept += 1
            cut = position
            if valid_floor is None:
                try:
                    read_snapshot(path, kind=self._kind)
                    valid_floor = index
                except (SnapshotCorruption, DurabilityError):
                    pass
            else:
                valid_floor = index if self._is_valid(path) else valid_floor
        for _, path in snapshots[:cut]:
            path.unlink(missing_ok=True)
        if valid_floor is None:
            return  # nothing validates: keep the whole WAL
        for position, (_, path) in enumerate(segments[:-1]):
            next_start = segments[position + 1][0]
            if next_start <= valid_floor:
                path.unlink(missing_ok=True)

    def _is_valid(self, path: Path) -> bool:
        try:
            read_snapshot(path, kind=self._kind)
            return True
        except (SnapshotCorruption, DurabilityError):
            return False

    def close(self) -> None:
        """Close the active WAL segment (safe to call repeatedly)."""
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "StreamCheckpointer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"StreamCheckpointer({str(self.directory)!r}, "
            f"kind={self._kind!r}, next_index={self._next_index})"
        )
