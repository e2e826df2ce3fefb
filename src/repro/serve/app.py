"""The mining application: routes, admission, coalescing, quotas.

:class:`MiningApp` is the server's brain, deliberately separated from
the socket layer so the whole request pipeline is testable by calling
:meth:`MiningApp.handle` with a :class:`~repro.serve.protocol.Request` —
no ports, no sleeps, no flakes.

One ``/mine`` request flows through five gates, in order:

1. **validation** — malformed bodies and unknown series answer 400/404
   before any resource is charged;
2. **tenant quota** — the per-tenant token bucket refuses over-rate
   tenants with 429 (``reason: "rate-limit"``);
3. **admission** — a bounded pending counter refuses work past
   ``max_pending`` with 429 (``reason: "saturated"``): backpressure, not
   an unbounded queue;
4. **result cache** — an exact ``(fingerprint, period, min_conf)``
   repeat answers from a bounded LRU of serialized results without
   touching the mining path (content-addressed, so it can never serve a
   stale answer: editing a series changes its fingerprint);
5. **single-flight mining** — concurrent misses on the same
   ``(fingerprint, period)`` coalesce; the leader's scans populate the
   shared :class:`~repro.kernels.cache.CountCache` and followers re-query
   it (exact, per the cache's projection rule).

Mining itself runs on a worker thread pool bounded by ``concurrency``;
the per-request :class:`~repro.serve.deadline.Deadline` caps the whole
journey — queueing included — surfacing as 504.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.errors import (
    DeadlineExceeded,
    MiningError,
    ReproError,
    SeriesError,
    ServeError,
    SnapshotCorruption,
    StreamError,
)
from repro.core.miner import PartialPeriodicMiner
from repro.core.serialize import result_to_dict
from repro.durability.snapshot import SnapshotWriter, read_snapshot
from repro.kernels.cache import CountCache
from repro.kernels.profile import MiningProfile
from repro.serve.coalesce import SingleFlight
from repro.serve.deadline import Deadline
from repro.serve.protocol import Request, error_payload
from repro.serve.quotas import TenantCacheLedger, TenantQuotas
from repro.serve.registry import SeriesRegistry
from repro.serve.streams import StreamManager, StreamSession
from repro.timeseries.feature_series import FeatureSeries

if TYPE_CHECKING:
    from repro.core.result import MiningResult
    from repro.kernels.cache import CacheKey

#: Snapshot kind tag for persisted serve streaming sessions.
STREAM_STATE_KIND = "repro.serve-streams/1"

#: Snapshot file name inside ``stream_state_dir``.
STREAM_STATE_FILE = "streams.json"


@dataclass(slots=True)
class ServeConfig:
    """Everything ``ppm serve`` can tune, with service-shaped defaults."""

    #: Default confidence threshold when a request omits ``min_conf``.
    min_conf: float = 0.5
    #: Worker threads answering requests (the service's parallelism).
    concurrency: int = 4
    #: Admission bound: requests in flight past this are refused with 429.
    max_pending: int = 64
    #: Per-request wall-clock budget; ``None`` disables deadlines.
    request_timeout_s: float | None = 30.0
    #: Per-tenant sustained requests/second; ``None`` disables limiting.
    rate_limit: float | None = None
    #: Per-tenant burst allowance on top of the sustained rate.
    rate_burst: int = 8
    #: Directory persisting the count cache across restarts.
    cache_dir: str | None = None
    #: LRU bound on the shared count cache (``None`` = unbounded).
    cache_max_entries: int | None = 256
    #: Count-cache entries one tenant may own before its own oldest is
    #: evicted to make room (``None`` = no per-tenant share).
    tenant_cache_share: int | None = None
    #: Bound on the serialized-result LRU (0 disables it).
    result_cache_entries: int = 1024
    #: Quarantine malformed lines when loading series files.
    lenient: bool = False
    #: Concurrent streaming sessions the server will hold.
    max_streams: int = 8
    #: Directory persisting open streaming sessions across restarts:
    #: graceful shutdown snapshots them (atomic + checksummed), startup
    #: rehydrates them by name.  ``None`` keeps sessions memory-only.
    stream_state_dir: str | None = None

    def validate(self) -> None:
        """Fail fast on configurations the server cannot run."""
        if self.concurrency < 1:
            raise ServeError(
                f"concurrency must be >= 1, got {self.concurrency}"
            )
        if self.max_pending < 1:
            raise ServeError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        if self.result_cache_entries < 0:
            raise ServeError(
                "result_cache_entries must be >= 0, got "
                f"{self.result_cache_entries}"
            )
        if self.request_timeout_s is not None and self.request_timeout_s <= 0:
            raise ServeError(
                "request_timeout_s must be > 0, got "
                f"{self.request_timeout_s}"
            )
        if self.tenant_cache_share is not None and self.tenant_cache_share < 1:
            raise ServeError(
                "tenant_cache_share must be >= 1, got "
                f"{self.tenant_cache_share}"
            )
        if self.max_streams < 1:
            raise ServeError(
                f"max_streams must be >= 1, got {self.max_streams}"
            )


class MiningApp:
    """Route table plus all serving state for one mining service."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        self.config.validate()
        self.registry = SeriesRegistry()
        self.ledger = TenantCacheLedger()
        self.cache = CountCache(
            cache_dir=self.config.cache_dir,
            max_entries=self.config.cache_max_entries,
            on_evict=self.ledger.forget,
        )
        self.quotas = TenantQuotas(
            self.config.rate_limit, self.config.rate_burst
        )
        self.flights = SingleFlight()
        self.streams = StreamManager(max_streams=self.config.max_streams)
        #: Client-visible stream persistence status for ``/stats``.
        self.stream_state = {
            "dir": self.config.stream_state_dir,
            "rehydrated": 0,
            "persisted": 0,
            "error": None,
        }
        self._rehydrate_streams()
        self.profile = MiningProfile()
        #: Set by ``POST /shutdown``; the server drains and exits on it.
        self.shutdown_event = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.concurrency,
            thread_name_prefix="ppm-serve",
        )
        self._results: OrderedDict[tuple, dict] = OrderedDict()
        self._started = time.monotonic()
        self._pending = 0
        self._running = 0
        self.counters = {
            "served": 0,
            "mined": 0,
            "rejected_busy": 0,
            "rejected_quota": 0,
            "timeouts": 0,
            "client_errors": 0,
            "server_errors": 0,
            "result_cache_hits": 0,
            "scans_executed": 0,
        }

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def handle(self, request: Request) -> tuple[int, dict]:
        """Answer one request: ``(status, JSON payload)``."""
        try:
            return await self._route(request)
        except ServeError as error:
            self.counters["client_errors"] += 1
            return 400, error_payload(str(error))
        except (MiningError, SeriesError, StreamError) as error:
            self.counters["client_errors"] += 1
            return 400, error_payload(str(error))
        except ReproError as error:
            self.counters["server_errors"] += 1
            return 500, error_payload(str(error))

    async def _route(self, request: Request) -> tuple[int, dict]:
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            return 200, self._healthz()
        if path == "/stats" and method == "GET":
            return 200, self.stats()
        if path == "/series" and method == "GET":
            return 200, {"series": self.registry.describe()}
        if path == "/series" and method == "POST":
            return await self._load_series(request)
        if path.startswith("/series/") and method == "DELETE":
            return self._unload_series(path.removeprefix("/series/"))
        if path == "/mine" and method == "POST":
            return await self._mine(request)
        if path == "/stream" and method == "POST":
            if self.shutdown_event.is_set():
                return self._draining()
            return self._stream_open(request)
        if path.startswith("/stream/") and path.endswith("/checkpoint"):
            if method != "POST":
                self.counters["client_errors"] += 1
                return 405, error_payload(f"{method} not allowed on {path}")
            name = path.removeprefix("/stream/").removesuffix("/checkpoint")
            return await self._stream_checkpoint(name)
        if path.startswith("/stream/") and method in (
            "POST", "GET", "DELETE",
        ):
            name = path.removeprefix("/stream/")
            try:
                session = self.streams.get(name)
            except ServeError as error:
                self.counters["client_errors"] += 1
                return 404, error_payload(str(error))
            if method == "POST":
                if self.shutdown_event.is_set():
                    return self._draining()
                return await self._stream_feed(session, request)
            if method == "GET":
                return 200, {
                    "stream": session.describe(),
                    "recent_windows": list(session.recent_windows),
                }
            self.streams.close(name)
            return 200, {"closed": session.describe()}
        if path == "/shutdown" and method == "POST":
            self.shutdown_event.set()
            return 202, {
                "status": "shutting down",
                "streams_open": len(self.streams),
                "stream_state_dir": self.config.stream_state_dir,
                "streams_persist": (
                    self.config.stream_state_dir is not None
                ),
            }
        if path in (
            "/", "/healthz", "/stats", "/series", "/mine", "/stream",
            "/shutdown",
        ) or path.startswith("/stream/"):
            self.counters["client_errors"] += 1
            return 405, error_payload(f"{method} not allowed on {path}")
        self.counters["client_errors"] += 1
        return 404, error_payload(f"no route for {method} {path}")

    # ------------------------------------------------------------------
    # Introspection endpoints
    # ------------------------------------------------------------------

    def _healthz(self) -> dict:
        return {
            "status": "draining" if self.shutdown_event.is_set() else "ok",
            "series_loaded": len(self.registry),
            "streams_open": len(self.streams),
            "streams_checkpoint_lag": self.streams.checkpoint_lag(),
            "uptime_s": round(time.monotonic() - self._started, 3),
        }

    def _draining(self) -> tuple[int, dict]:
        """503 for stream mutations once shutdown has started: the final
        session snapshot is about to be taken, so feeds after it would
        be silently lost on restart — refuse them loudly instead."""
        self.counters["client_errors"] += 1
        return 503, {
            "error": (
                "server is draining for shutdown; stream sessions are "
                "closed to new feeds (their state persists and resumes "
                "on restart when --stream-state-dir is configured)"
            ),
            "reason": "draining",
        }

    def stats(self) -> dict:
        """The ``GET /stats`` document: queues, caches, tenants, timings."""
        cache = self.cache.stats
        return {
            "requests": dict(self.counters),
            "queue": {
                "pending": self._pending,
                "running": self._running,
                "max_pending": self.config.max_pending,
                "concurrency": self.config.concurrency,
            },
            "coalescing": self.flights.snapshot(),
            "count_cache": {
                "entries": self.cache.entry_count,
                "hits": cache.hits,
                "misses": cache.misses,
                "stores": cache.stores,
                "projected": cache.projected,
                "evictions": cache.evictions,
                "hit_rate": round(cache.hit_rate, 4),
            },
            "result_cache": {
                "entries": len(self._results),
                "hits": self.counters["result_cache_hits"],
                "max_entries": self.config.result_cache_entries,
            },
            "tenants": {
                "quota": self.quotas.snapshot(),
                "cache_owned": self.ledger.snapshot(),
            },
            "streams": self.streams.describe(),
            "stream_state": dict(self.stream_state),
            "profile": self.profile.to_json(),
            "series_loaded": len(self.registry),
            "uptime_s": round(time.monotonic() - self._started, 3),
        }

    # ------------------------------------------------------------------
    # Series management
    # ------------------------------------------------------------------

    async def _load_series(self, request: Request) -> tuple[int, dict]:
        body = request.json()
        name = body.get("name")
        path = body.get("path")
        if not isinstance(name, str) or not isinstance(path, str):
            raise ServeError(
                "POST /series needs JSON string fields 'name' and 'path'"
            )
        lenient = bool(body.get("lenient", self.config.lenient))
        loop = asyncio.get_running_loop()
        loaded = await loop.run_in_executor(
            self._executor, self.registry.load, name, path, lenient
        )
        return 200, {"loaded": loaded.describe()}

    def _unload_series(self, name: str) -> tuple[int, dict]:
        try:
            unloaded = self.registry.unload(name)
        except ServeError as error:
            self.counters["client_errors"] += 1
            return 404, error_payload(str(error))
        return 200, {"unloaded": unloaded.describe()}

    # ------------------------------------------------------------------
    # Mining
    # ------------------------------------------------------------------

    async def _mine(self, request: Request) -> tuple[int, dict]:
        started = time.perf_counter()
        body = request.json()
        name = body.get("series")
        if not isinstance(name, str):
            raise ServeError("POST /mine needs a JSON string field 'series'")
        period = body.get("period")
        if not isinstance(period, int) or isinstance(period, bool):
            raise ServeError("POST /mine needs a JSON integer field 'period'")
        min_conf = body.get("min_conf", self.config.min_conf)
        if not isinstance(min_conf, (int, float)) or isinstance(
            min_conf, bool
        ):
            raise ServeError("'min_conf' must be a number")
        min_conf = float(min_conf)
        tenant = request.tenant

        try:
            loaded = self.registry.get(name)
        except ServeError as error:
            self.counters["client_errors"] += 1
            return 404, error_payload(str(error))

        if not self.quotas.allow(tenant):
            self.counters["rejected_quota"] += 1
            return 429, {
                "error": f"tenant {tenant!r} is over its request rate",
                "reason": "rate-limit",
                "tenant": tenant,
            }
        if self._pending >= self.config.max_pending:
            self.counters["rejected_busy"] += 1
            return 429, {
                "error": (
                    f"server saturated ({self._pending} requests pending); "
                    "retry later"
                ),
                "reason": "saturated",
            }

        self._pending += 1
        try:
            deadline = (
                None
                if self.config.request_timeout_s is None
                else Deadline.start(self.config.request_timeout_s)
            )
            work = self._mine_admitted(
                loaded.fingerprint, loaded.series, name, period, min_conf,
                tenant, started,
            )
            if deadline is None:
                return await work
            return await deadline.bound(work, "mine request")
        except DeadlineExceeded:
            self.counters["timeouts"] += 1
            return 504, {
                "error": (
                    "request exceeded its deadline of "
                    f"{self.config.request_timeout_s}s"
                ),
                "reason": "deadline",
            }
        finally:
            self._pending -= 1

    async def _mine_admitted(
        self,
        fingerprint: str,
        series: object,
        name: str,
        period: int,
        min_conf: float,
        tenant: str,
        started: float,
    ) -> tuple[int, dict]:
        """The post-admission pipeline: result cache, coalescing, mining."""
        result_key = (fingerprint, period, min_conf)
        cached = self._result_cache_get(result_key)
        if cached is not None:
            return 200, self._respond(
                cached, name, fingerprint, tenant, started,
                scans=0, coalesced=False, from_result_cache=True,
            )

        flight_key = (fingerprint, period)
        async with self.flights.hold(flight_key) as waited:
            if waited:
                # The leader may have produced this exact document while
                # this request queued on the flight lock.
                cached = self._result_cache_get(result_key)
                if cached is not None:
                    return 200, self._respond(
                        cached, name, fingerprint, tenant, started,
                        scans=0, coalesced=True, from_result_cache=True,
                    )
            cache_key = self.cache.key_for(series, period)
            self._enforce_tenant_share(tenant, cache_key)
            profile = MiningProfile()
            loop = asyncio.get_running_loop()
            self._running += 1
            try:
                result = await loop.run_in_executor(
                    self._executor,
                    self._mine_blocking,
                    series,
                    period,
                    min_conf,
                    profile,
                )
            finally:
                self._running -= 1
            self._merge_profile(profile)
            scans = result.stats.scans
            self.counters["mined"] += 1
            self.counters["scans_executed"] += scans
            if scans:
                self.ledger.charge(tenant, cache_key)
            document = result_to_dict(result)
            self._result_cache_put(result_key, document)
            return 200, self._respond(
                document, name, fingerprint, tenant, started,
                scans=scans, coalesced=waited, from_result_cache=False,
            )

    # ------------------------------------------------------------------
    # Streaming sessions (repro.streaming over HTTP)
    # ------------------------------------------------------------------

    def _stream_open(self, request: Request) -> tuple[int, dict]:
        """``POST /stream``: create a named windowed streaming session."""
        body = request.json()
        name = body.get("name")
        if not isinstance(name, str):
            raise ServeError(
                "POST /stream needs a JSON string field 'name'"
            )
        period = self._int_field(body, "period")
        window = self._int_field(body, "window")
        slide = (
            None if body.get("slide") is None
            else self._int_field(body, "slide")
        )
        min_conf = body.get("min_conf", self.config.min_conf)
        if not isinstance(min_conf, (int, float)) or isinstance(
            min_conf, bool
        ):
            raise ServeError("'min_conf' must be a number")
        max_letters = (
            None if body.get("max_letters") is None
            else self._int_field(body, "max_letters")
        )
        session = self.streams.open(
            name,
            period=period,
            window=window,
            slide=slide,
            min_conf=float(min_conf),
            max_letters=max_letters,
        )
        self.counters["served"] += 1
        return 201, {"stream": session.describe()}

    async def _stream_feed(
        self, session: "StreamSession", request: Request
    ) -> tuple[int, dict]:
        """``POST /stream/<name>``: feed an ordered batch of slots."""
        slots = self._parse_slots(request.json())
        # Feeds to one stream serialize on its lock (slot order is the
        # semantics); the mining work itself runs on the worker pool.
        async with session.lock:
            loop = asyncio.get_running_loop()
            self._running += 1
            try:
                emitted = await loop.run_in_executor(
                    self._executor, session.feed, slots
                )
            finally:
                self._running -= 1
        self.counters["served"] += 1
        return 200, {
            "stream": session.name,
            "accepted_slots": len(slots),
            "windows": emitted,
            "state": session.describe(),
        }

    async def _stream_checkpoint(self, name: str) -> tuple[int, dict]:
        """``POST /stream/<name>/checkpoint``: persist session state now.

        One snapshot file holds every open session, so checkpointing any
        one of them persists all of them (and resets the checkpoint lag)
        — the named session only anchors the request to a live stream.
        """
        try:
            session = self.streams.get(name)
        except ServeError as error:
            self.counters["client_errors"] += 1
            return 404, error_payload(str(error))
        if self.shutdown_event.is_set():
            # The drain's own final persist_streams() is about to run;
            # racing it with an ad-hoc snapshot helps nobody.
            return self._draining()
        if self.config.stream_state_dir is None:
            self.counters["client_errors"] += 1
            return 400, error_payload(
                "stream persistence is not configured; restart the "
                "server with --stream-state-dir to enable checkpoints"
            )
        # One snapshot covers every session, so quiesce them all: locks
        # are taken in creation order (the only multi-lock acquirer, so
        # no ordering deadlock) and in-flight feeds drain first.
        async with contextlib.AsyncExitStack() as stack:
            for open_session in self.streams.sessions():
                await stack.enter_async_context(open_session.lock)
            loop = asyncio.get_running_loop()
            persisted = await loop.run_in_executor(
                self._executor, self.persist_streams
            )
        self.counters["served"] += 1
        return 200, {
            "stream": session.name,
            "persisted_sessions": persisted,
            "checkpoint_lag": self.streams.checkpoint_lag(),
            "state": session.describe(),
        }

    @staticmethod
    def _int_field(body: dict, field: str) -> int:
        value = body.get(field)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ServeError(f"'{field}' must be a JSON integer")
        return value

    @staticmethod
    def _parse_slots(body: dict) -> list[frozenset[str]]:
        """The feed payload: 'slots' (feature lists) xor 'symbols'."""
        slots_field = body.get("slots")
        symbols = body.get("symbols")
        if (slots_field is None) == (symbols is None):
            raise ServeError(
                "POST /stream/<name> needs exactly one of 'slots' "
                "(a list of feature lists) or 'symbols' (a string)"
            )
        if symbols is not None:
            if not isinstance(symbols, str):
                raise ServeError("'symbols' must be a string")
            return list(FeatureSeries.from_symbols(symbols))
        if not isinstance(slots_field, list):
            raise ServeError("'slots' must be a list of feature lists")
        parsed = []
        for slot in slots_field:
            if not isinstance(slot, list) or not all(
                isinstance(feature, str) for feature in slot
            ):
                raise ServeError(
                    "'slots' entries must be lists of feature strings"
                )
            parsed.append(frozenset(slot))
        return parsed

    def _mine_blocking(
        self,
        series: object,
        period: int,
        min_conf: float,
        profile: MiningProfile,
    ) -> "MiningResult":
        """One mine on a worker thread (the only blocking code path)."""
        miner = PartialPeriodicMiner(series, min_conf=min_conf)
        return miner.mine(period, cache=self.cache, profile=profile)

    def _enforce_tenant_share(self, tenant: str, cache_key: "CacheKey") -> None:
        """Evict the tenant's own oldest entries before it adds a new one."""
        share = self.config.tenant_cache_share
        if share is None or self.ledger.owner_of(cache_key) == tenant:
            return
        while self.ledger.owner_count(tenant) >= share:
            oldest = self.ledger.oldest(tenant)
            if oldest is None:  # pragma: no cover - count>0 implies a key
                break
            self.cache.evict(oldest)

    def _respond(
        self,
        document: dict,
        name: str,
        fingerprint: str,
        tenant: str,
        started: float,
        scans: int,
        coalesced: bool,
        from_result_cache: bool,
    ) -> dict:
        self.counters["served"] += 1
        return {
            "result": document,
            "serve": {
                "series": name,
                "fingerprint": fingerprint,
                "tenant": tenant,
                "scans": scans,
                "coalesced": coalesced,
                "from_result_cache": from_result_cache,
                "elapsed_ms": round(
                    (time.perf_counter() - started) * 1e3, 3
                ),
            },
        }

    # ------------------------------------------------------------------
    # Result cache (bounded LRU of serialized results)
    # ------------------------------------------------------------------

    def _result_cache_get(self, key: tuple) -> dict | None:
        if self.config.result_cache_entries == 0:
            return None
        document = self._results.get(key)
        if document is None:
            return None
        self._results.move_to_end(key)
        self.counters["result_cache_hits"] += 1
        return document

    def _result_cache_put(self, key: tuple, document: dict) -> None:
        if self.config.result_cache_entries == 0:
            return
        self._results[key] = document
        self._results.move_to_end(key)
        while len(self._results) > self.config.result_cache_entries:
            self._results.popitem(last=False)

    # ------------------------------------------------------------------
    # Profile aggregation and lifecycle
    # ------------------------------------------------------------------

    def _merge_profile(self, profile: MiningProfile) -> None:
        """Fold one request's stage timings into the service aggregate.

        Requests each carry their own :class:`MiningProfile` (the class
        is not thread-safe) and merge on the event-loop thread.
        """
        for timing in profile.stages:
            self.profile.add_stage(
                timing.name, timing.elapsed_s, items=timing.items
            )
        for counter, amount in profile.counters.items():
            self.profile.count(counter, amount)

    # ------------------------------------------------------------------
    # Stream session persistence (repro.durability over serve)
    # ------------------------------------------------------------------

    def _rehydrate_streams(self) -> None:
        """Restore persisted sessions at startup, by name.

        A corrupt or foreign state file must not keep the service down —
        the server starts with no sessions and surfaces the problem on
        ``/stats`` (``stream_state.error``).  A *version-newer* file
        still refuses loudly: that is an operator mistake, not damage.
        """
        directory = self.config.stream_state_dir
        if directory is None:
            return
        path = Path(directory) / STREAM_STATE_FILE
        if not path.exists():
            return
        try:
            payload = read_snapshot(path, kind=STREAM_STATE_KIND)
            self.stream_state["rehydrated"] = self.streams.restore(payload)
        except (SnapshotCorruption, ServeError, StreamError) as error:
            # StreamError: a checksum-valid file whose miner state cannot
            # be restored (malformed, or a retired strategy's layout).
            self.stream_state["error"] = str(error)

    def persist_streams(self) -> int:
        """Snapshot every open session (atomic, checksummed); returns
        how many were persisted.  Called at shutdown after the drain,
        and safe to call ad hoc (it resets the checkpoint lag)."""
        directory = self.config.stream_state_dir
        if directory is None:
            return 0
        writer = SnapshotWriter(directory)
        writer.write(
            STREAM_STATE_FILE,
            kind=STREAM_STATE_KIND,
            payload=self.streams.to_state(),
        )
        for session in self.streams.sessions():
            session.slots_since_checkpoint = 0
        count = len(self.streams)
        self.stream_state["persisted"] = count
        return count

    def close(self) -> None:
        """Persist open streams, then release the worker pool (idempotent)."""
        try:
            self.persist_streams()
        except (OSError, ReproError) as error:
            self.stream_state["error"] = str(error)
        self._executor.shutdown(wait=False)
