"""Durable checkpoint/recovery for streams and serve sessions.

Four layers, each usable alone:

- :mod:`repro.durability.files` — :func:`atomic_write`, the one
  write-temp + fsync + rename + directory-fsync primitive every state file
  in the package is published through, and :class:`FileChaos`, its
  deterministic fault injector.
- :mod:`repro.durability.snapshot` — atomic, checksummed, versioned state
  files (CRC32 footer).
- :mod:`repro.durability.checkpoint` — :class:`StreamCheckpointer`: a
  write-ahead log of input records plus rotating snapshots, with a
  corruption fallback ladder at recovery.
- :mod:`repro.durability.stream` — :class:`DurableStream`: the
  checkpointer wrapped around a :class:`~repro.streaming.StreamingMiner`
  (and optional arrival buffer), guaranteeing a killed-and-resumed run
  emits the identical window sequence as an uninterrupted one.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.errors": ("DurabilityError", "SnapshotCorruption"),
    "repro.durability.checkpoint": ("RecoveredState", "StreamCheckpointer"),
    "repro.durability.files": (
        "FileChaos",
        "FileChaosConfig",
        "atomic_write",
        "file_chaos_from_env",
    ),
    "repro.durability.snapshot": (
        "ENVELOPE_VERSION",
        "FORMAT_TAG",
        "SnapshotWriter",
        "clean_stale_tmp",
        "read_snapshot",
        "snapshot_bytes",
    ),
    "repro.durability.stream": ("DurableSink", "DurableStream"),
})

if TYPE_CHECKING:
    from repro.core.errors import DurabilityError, SnapshotCorruption
    from repro.durability.checkpoint import RecoveredState, StreamCheckpointer
    from repro.durability.files import (
        FileChaos,
        FileChaosConfig,
        atomic_write,
        file_chaos_from_env,
    )
    from repro.durability.snapshot import (
        ENVELOPE_VERSION,
        FORMAT_TAG,
        SnapshotWriter,
        clean_stale_tmp,
        read_snapshot,
        snapshot_bytes,
    )
    from repro.durability.stream import DurableSink, DurableStream

__all__ = [
    "DurabilityError",
    "DurableSink",
    "DurableStream",
    "ENVELOPE_VERSION",
    "FORMAT_TAG",
    "FileChaos",
    "FileChaosConfig",
    "RecoveredState",
    "SnapshotCorruption",
    "SnapshotWriter",
    "StreamCheckpointer",
    "atomic_write",
    "clean_stale_tmp",
    "file_chaos_from_env",
    "read_snapshot",
    "snapshot_bytes",
]
