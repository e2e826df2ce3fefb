"""Server-held streaming sessions: named windowed miners fed over HTTP.

A :class:`StreamSession` wraps one
:class:`~repro.streaming.engine.StreamingMiner` with what serving needs
around it: a per-session asyncio lock (feeds for one stream are strictly
ordered — slot order *is* the semantics), bounded bookkeeping (a ring of
the most recent emitted windows, plain counters), and JSON-ready
snapshots for ``/stream/<name>`` and the ``/stats`` streams section.

:class:`StreamManager` owns the sessions: bounded in number (each one
holds a window's worth of retained segments), named, and explicitly
closed — the same loud-refusal posture as the series registry.

Feeding is CPU work (a closing window mines); the app dispatches
:meth:`StreamSession.feed` to the worker pool, never the event loop —
the lock is held across the dispatch so concurrent feeds to one stream
serialize while different streams proceed in parallel.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Any

from repro.core.errors import ServeError
from repro.streaming.engine import StreamingMiner, window_to_dict
from repro.timeseries.feature_series import SlotLike

#: Recent emitted windows kept per session for GET /stream/<name>.
WINDOW_LOG_ENTRIES = 32


class StreamSession:
    """One named streaming miner with serving bookkeeping around it."""

    __slots__ = ("name", "miner", "lock", "recent_windows", "counters",
                 "slots_since_checkpoint", "_created")

    def __init__(self, name: str, miner: StreamingMiner):
        self.name = name
        self.miner = miner
        #: Serializes feeds to this stream; slot order is the semantics.
        self.lock = asyncio.Lock()
        #: Ring of the latest emitted windows (bounded by maxlen).
        self.recent_windows: deque[dict[str, Any]] = deque(
            maxlen=WINDOW_LOG_ENTRIES
        )
        self.counters = {"batches": 0, "slots": 0, "windows": 0}
        #: Slots fed since this session was last persisted or rehydrated
        #: — the checkpoint lag ``/healthz`` and ``/stats`` report.
        self.slots_since_checkpoint = 0
        self._created = time.monotonic()

    def feed(self, slots: list[SlotLike]) -> list[dict[str, Any]]:
        """Feed one ordered batch; returns the windows it closed.

        Blocking (closing windows mine) — the app runs it on the worker
        pool while holding :attr:`lock`, so only one feed per session is
        ever in flight and the counters need no further synchronization.
        """
        emitted = [
            window_to_dict(window) for window in self.miner.extend(slots)
        ]
        self.counters["batches"] += 1
        self.counters["slots"] += len(slots)
        self.counters["windows"] += len(emitted)
        self.slots_since_checkpoint += len(slots)
        self.recent_windows.extend(emitted)
        return emitted

    def describe(self) -> dict[str, Any]:
        """JSON-ready session snapshot (without the window log)."""
        snapshot = self.miner.snapshot()
        snapshot["name"] = self.name
        snapshot["counters"] = dict(self.counters)
        snapshot["checkpoint_lag"] = self.slots_since_checkpoint
        snapshot["age_s"] = round(time.monotonic() - self._created, 3)
        return snapshot

    # -- durable state (serve shutdown persistence) ---------------------

    def to_state(self) -> dict[str, Any]:
        """Everything a restart needs to resume this session exactly."""
        return {
            "name": self.name,
            "miner": self.miner.to_state(),
            "counters": dict(self.counters),
            "recent_windows": list(self.recent_windows),
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "StreamSession":
        """Rebuild a session from :meth:`to_state` output."""
        try:
            session = cls(
                str(state["name"]),
                StreamingMiner.from_state(state["miner"]),
            )
            session.counters = {
                key: int(value)
                for key, value in state["counters"].items()
            }
            session.recent_windows.extend(state["recent_windows"])
        except (KeyError, TypeError, ValueError) as error:
            raise ServeError(
                f"malformed stream-session state: {error}"
            ) from error
        return session


class StreamManager:
    """The bounded registry of live streaming sessions."""

    __slots__ = ("_sessions", "_max_streams", "counters")

    def __init__(self, max_streams: int = 8):
        if max_streams < 1:
            raise ServeError(
                f"max_streams must be >= 1, got {max_streams}"
            )
        self._sessions: dict[str, StreamSession] = {}
        self._max_streams = max_streams
        self.counters = {"opened": 0, "closed": 0}

    def __len__(self) -> int:
        return len(self._sessions)

    def open(
        self,
        name: str,
        period: int,
        window: int,
        slide: int | None = None,
        min_conf: float = 0.5,
        max_letters: int | None = None,
        change_tolerance: float = 0.05,
    ) -> StreamSession:
        """Create a named session; loud refusal on collision or overflow."""
        if not name:
            raise ServeError("stream name must be non-empty")
        if name in self._sessions:
            raise ServeError(f"stream {name!r} already exists")
        if len(self._sessions) >= self._max_streams:
            raise ServeError(
                f"stream limit reached ({self._max_streams}); close one "
                "with DELETE /stream/<name> first"
            )
        miner = StreamingMiner(
            period=period,
            window=window,
            slide=slide,
            min_conf=min_conf,
            max_letters=max_letters,
            change_tolerance=change_tolerance,
        )
        session = StreamSession(name, miner)
        self._sessions[name] = session
        self.counters["opened"] += 1
        return session

    def get(self, name: str) -> StreamSession:
        """The named session, or a loud 404-shaped refusal."""
        session = self._sessions.get(name)
        if session is None:
            raise ServeError(f"no stream named {name!r}")
        return session

    def close(self, name: str) -> StreamSession:
        """Remove a session, returning its final state for the response."""
        session = self._sessions.pop(name, None)
        if session is None:
            raise ServeError(f"no stream named {name!r}")
        self.counters["closed"] += 1
        return session

    def describe(self) -> dict[str, Any]:
        """The ``/stats`` streams section: totals plus per-session rows."""
        return {
            "active": len(self._sessions),
            "max_streams": self._max_streams,
            "opened": self.counters["opened"],
            "closed": self.counters["closed"],
            "checkpoint_lag": self.checkpoint_lag(),
            "sessions": [
                session.describe()
                for session in self._sessions.values()
            ],
        }

    def checkpoint_lag(self) -> int:
        """Slots fed across all sessions since the last persist."""
        return sum(
            session.slots_since_checkpoint
            for session in self._sessions.values()
        )

    # -- durable state (serve shutdown persistence) ---------------------

    def sessions(self) -> list[StreamSession]:
        """The live sessions, in creation order."""
        return list(self._sessions.values())

    def to_state(self) -> dict[str, Any]:
        """Every open session's durable form, for one snapshot file."""
        return {
            "sessions": [
                session.to_state() for session in self._sessions.values()
            ],
        }

    def restore(self, state: dict[str, Any]) -> int:
        """Rehydrate persisted sessions into this (fresh) manager.

        Returns how many sessions came back.  Collisions with live
        sessions refuse loudly — rehydration runs before the server
        accepts traffic, so a collision means two restores.
        """
        try:
            restored = [
                StreamSession.from_state(entry)
                for entry in state["sessions"]
            ]
        except (KeyError, TypeError) as error:
            raise ServeError(
                f"malformed stream-manager state: {error}"
            ) from error
        for session in restored:
            if session.name in self._sessions:
                raise ServeError(
                    f"stream {session.name!r} already exists; refusing "
                    "to rehydrate over it"
                )
        for session in restored:
            self._sessions[session.name] = session
            self.counters["opened"] += 1
        return len(restored)
