"""Durable file writes: the one atomic-write primitive and its fault injector.

Every state file the package persists — snapshots, count-cache entries,
segment-store columns and their sidecars — is published through
:func:`atomic_write`, so the crash-safety argument is made once: content
goes to a uniquely named temporary file beside the target, is flushed and
fsynced, renamed over the final path (atomic on POSIX), and the directory
entry is fsynced so the rename itself survives a power cut.  A reader
sees either the old file or the new one, never a hybrid; a write that
raises leaves neither a changed target nor its temporary file behind, and
a process killed mid-write leaves only a stale ``*.tmp.*`` file that
:func:`~repro.durability.snapshot.clean_stale_tmp` sweeps.

:class:`FileChaos` is the deliberate counterpart: a deterministic schedule
of the damage a crash leaves (torn files, lost footers, un-renamed temps),
which :meth:`FileChaos.inflict` writes *around* :func:`atomic_write` so
the recovery ladders can be tested against it.  Both live here because
this is the one module allowed to write state files directly (lint rule
REP1001).
"""

from __future__ import annotations

import os
import random
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any

from repro.core.errors import DurabilityError

#: Mixing prime for the per-(seed, write) fault RNG.
_MIX_WRITE = 15_485_863


def fsync_directory(directory: str | Path) -> None:
    """Flush a directory entry so a completed rename survives power loss."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds; rename is still atomic
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@contextmanager
def atomic_write(path: str | Path, mode: str = "wb") -> Iterator[IO[Any]]:
    """Write ``path`` all-or-nothing through a uniquely named temp file.

    Yields a file handle open in ``mode`` (``"wb"`` or ``"w"``; text mode
    is UTF-8) on ``<name>.tmp.<random>`` in the target's directory, which
    is created if missing.  On a clean exit the handle is flushed and
    fsynced, renamed over ``path`` and the directory fsynced.  If the body
    (or the rename) raises, the temp file is unlinked and ``path`` keeps
    its previous content.  Unique temp names let concurrent writers of the
    same path race safely: the last rename wins with a complete file.

    >>> import tempfile as _t
    >>> target = Path(_t.mkdtemp()) / "state.txt"
    >>> with atomic_write(target, "w") as handle:
    ...     _ = handle.write("hello")
    >>> target.read_text(), sorted(p.name for p in target.parent.iterdir())
    ('hello', ['state.txt'])
    """
    if mode not in ("wb", "w"):
        raise DurabilityError(f"atomic_write mode must be 'wb' or 'w', got {mode!r}")
    final = Path(path)
    final.parent.mkdir(parents=True, exist_ok=True)
    fd, name = tempfile.mkstemp(dir=final.parent, prefix=f"{final.name}.tmp.")
    tmp = Path(name)
    published = False
    try:
        encoding = None if mode == "wb" else "utf-8"
        with os.fdopen(fd, mode, encoding=encoding) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, final)
        published = True
    finally:
        if not published:
            tmp.unlink(missing_ok=True)
    fsync_directory(final.parent)


# ---------------------------------------------------------------------------
# Fault injection (torn writes, truncation, stale temps)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FileChaosConfig:
    """A deterministic schedule of state-file write faults.

    Rates are independent probabilities carved out of one uniform draw
    per write, keyed by ``(seed, write index)`` — the same configuration
    injects the identical fault sequence on every run, which is how the
    durability suite pins "resume survives this exact corruption".

    Fault kinds mirror the real-world failure modes of state files:

    ``torn``
        The final file is cut mid-byte (a write that never finished but
        still landed at the final path — a non-atomic writer's failure
        mode, and what a lost rename journal looks like).
    ``truncate``
        The final file loses its last line (a whole trailing block
        vanished — metadata-only truncation).
    ``stale-tmp``
        The temp file is fully written but never renamed (a crash in the
        gap between write and rename), leaving a stale ``*.tmp.*`` file
        and no new state file.
    """

    seed: int
    torn_rate: float = 0.0
    truncate_rate: float = 0.0
    stale_tmp_rate: float = 0.0

    def __post_init__(self) -> None:
        rates = (self.torn_rate, self.truncate_rate, self.stale_tmp_rate)
        if any(rate < 0 for rate in rates) or sum(rates) > 1.0:
            raise DurabilityError(
                f"file-chaos rates must be >= 0 and sum to <= 1, got {rates}"
            )

    def fault_for(self, write_index: int) -> str | None:
        """``"torn"``, ``"truncate"``, ``"stale-tmp"`` or ``None``."""
        rng = random.Random(self.seed * 1_000_003 + write_index * _MIX_WRITE)
        draw = rng.random()
        if draw < self.torn_rate:
            return "torn"
        if draw < self.torn_rate + self.truncate_rate:
            return "truncate"
        if draw < self.torn_rate + self.truncate_rate + self.stale_tmp_rate:
            return "stale-tmp"
        return None


class FileChaos:
    """Mutable cursor over a :class:`FileChaosConfig` fault schedule.

    The snapshot writer calls :meth:`next_fault` once per write; the
    cursor advances whether or not a fault fires, so the schedule is a
    pure function of how many writes have happened.
    """

    __slots__ = ("config", "writes", "injected")

    def __init__(self, config: FileChaosConfig):
        self.config = config
        self.writes = 0
        #: Count of faults actually fired, per kind (observability for
        #: tests and the file-chaos CI job).
        self.injected: dict[str, int] = {}

    def next_fault(self) -> str | None:
        """The fault to inject on this write, advancing the schedule."""
        fault = self.config.fault_for(self.writes)
        self.writes += 1
        if fault is not None:
            self.injected[fault] = self.injected.get(fault, 0) + 1
        return fault

    @staticmethod
    def inflict(fault: str, path: str | Path, data: bytes) -> None:
        """Leave the crash outcome ``fault`` for a write of ``data`` to ``path``.

        ``torn`` cuts the bytes mid-payload at the final path,
        ``truncate`` drops the final line there, and ``stale-tmp`` writes
        a complete temp file that is never renamed (``path`` untouched).
        """
        final = Path(path)
        if fault == "torn":
            final.write_bytes(data[: max(1, int(len(data) * 0.6))])
        elif fault == "truncate":
            final.write_bytes(data[: data.rstrip(b"\n").rfind(b"\n") + 1])
        elif fault == "stale-tmp":
            fd, _ = tempfile.mkstemp(
                dir=final.parent, prefix=f"{final.name}.tmp."
            )
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
        else:
            raise DurabilityError(f"unknown file-chaos fault {fault!r}")


def file_chaos_from_env() -> FileChaos | None:
    """The :class:`FileChaos` described by the environment, if any.

    ``REPRO_CHAOS_FILE_SEED`` (an integer) switches injection on; optional
    ``REPRO_CHAOS_FILE_RATES`` is ``"torn,truncate,stale"`` floats
    (default ``0.1,0.05,0.05``).
    """
    raw_seed = os.environ.get("REPRO_CHAOS_FILE_SEED", "").strip()
    if not raw_seed:
        return None
    try:
        seed = int(raw_seed)
    except ValueError as error:
        raise DurabilityError(
            f"REPRO_CHAOS_FILE_SEED must be an integer, got {raw_seed!r}"
        ) from error
    rates_raw = os.environ.get("REPRO_CHAOS_FILE_RATES", "0.1,0.05,0.05")
    try:
        torn, truncate, stale = (float(part) for part in rates_raw.split(","))
    except ValueError as error:
        raise DurabilityError(
            "REPRO_CHAOS_FILE_RATES must be 'torn,truncate,stale' floats, "
            f"got {rates_raw!r}"
        ) from error
    return FileChaos(
        FileChaosConfig(
            seed=seed,
            torn_rate=torn,
            truncate_rate=truncate,
            stale_tmp_rate=stale,
        )
    )
