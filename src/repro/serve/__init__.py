"""``repro.serve`` — the multi-tenant mining service.

The serving tier turns the mining library into a long-running query
server: an asyncio HTTP/JSON front door (``ppm serve``) that owns a pool
of loaded series and answers mine/re-query requests from many concurrent
clients.  The load-bearing observation is the paper's §4.2 anti-monotone
``min_conf`` structure, operationalised by the PR 5 count cache: one
scan's results answer *every* equal-or-higher threshold exactly, so the
server coalesces concurrent queries about the same series and period
onto a single scan and fans the results back out through the cache.

Layers (each its own module, composable without the others):

* :mod:`.protocol` — minimal HTTP/1.1 over asyncio streams;
* :mod:`.registry` — the named pool of loaded series;
* :mod:`.quotas` — per-tenant token buckets and cache-share ledgers;
* :mod:`.coalesce` — single-flight keying of in-flight queries;
* :mod:`.app` — routes, admission control, the mining pipeline;
* :mod:`.server` — sockets, keep-alive, graceful shutdown.

See ``docs/serve.md`` for the API and the operational runbook.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.serve.app": ("MiningApp", "ServeConfig"),
    "repro.serve.coalesce": ("SingleFlight",),
    "repro.serve.protocol": (
        "ProtocolError",
        "Request",
        "read_request",
        "response_bytes",
    ),
    "repro.serve.quotas": ("TenantCacheLedger", "TenantQuotas", "TokenBucket"),
    "repro.serve.registry": ("LoadedSeries", "SeriesRegistry"),
    "repro.serve.server": ("MiningServer", "run_server"),
})

if TYPE_CHECKING:
    from repro.serve.app import MiningApp, ServeConfig
    from repro.serve.coalesce import SingleFlight
    from repro.serve.protocol import (
        ProtocolError,
        Request,
        read_request,
        response_bytes,
    )
    from repro.serve.quotas import TenantCacheLedger, TenantQuotas, TokenBucket
    from repro.serve.registry import LoadedSeries, SeriesRegistry
    from repro.serve.server import MiningServer, run_server

__all__ = [
    "LoadedSeries",
    "MiningApp",
    "MiningServer",
    "ProtocolError",
    "Request",
    "SeriesRegistry",
    "ServeConfig",
    "SingleFlight",
    "TenantCacheLedger",
    "TenantQuotas",
    "TokenBucket",
    "read_request",
    "response_bytes",
    "run_server",
]
