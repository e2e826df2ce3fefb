"""Workload ``serve-mixed``: open-loop traffic into ``MiningApp.handle``.

No sockets.  One asyncio loop sends a seeded arrival schedule at a short
ladder of fixed rates; each request is built as bytes, parsed by
``serve.protocol.read_request`` from an in-memory reader, answered by
``MiningApp.handle`` and encoded by ``response_bytes``.  The app runs
``ServeConfig()`` defaults except ``concurrency`` = visible CPUs.

Data: series at period 8 over 8 features, so every vocabulary packs into
64 letters (the opposite width to ``mine-file``).  Two 100k-slot series
are resident from set-up; every lifecycle below loads its own 12.5k-slot
file, whose feature names are unique to it, so each is new content to
every cache.  The series' structure is the same for every seed; the seed
names their features and draws the arrivals (``STRUCTURE_SEED``).

The mix follows the phases of the serving bench (``bench_serve.py``,
EXPERIMENTS.md A9: cold 16 and warm 2000 requests at Figure 2's
``min_conf`` 0.64, storm 1000 at thresholds 0.75/0.64/0.9/0.5), scaled to
``ServeConfig()`` defaults:

* open loop, arrivals at a constant rate (seeded phase and jitter) at
  each rung of the rate ladder: warm repeats at 0.64 on the resident
  series, answered from the result LRU;
* beside them, across every rung, churn lifecycles (see the slices
  below): a cold one in every slice, then a storm in every second slice,
  paced so that at the nominal rate there are four warm requests per
  storm request (A9 has two; see ``WARM_PER_STORM_REQUEST``):

  * cold: ``POST /series`` a new file, a first-sight mine at 0.64, a
    re-query above it (0.9, count-cache projection) and one below it
    (0.5, which widens scan 2), ``DELETE /series``;
  * storm: ``POST /series`` a new file, then half of ``max_pending``
    concurrent mines cycling through the A9 storm thresholds (single-flight
    coalesces them), ``DELETE /series``.

A9's 1000-client storm needs ``max_pending`` raised to 1000, so this
workload does not reproduce its p99.  Latency runs from each request's
due time.  The other half of ``max_pending`` is the open loop's: an
arrival due while that many open-loop requests are in flight is not sent
(so admission never refuses one) and counts as a request with infinite
latency; on the nominal rung it is also a failed op.  A rung with more
than three quarters of that many in flight has a growing backlog.

Time is cut into slices of ``slice_s`` seconds: each sends its share of
the schedule and runs its lifecycles, then waits until every request it
sent is answered, and a host-speed mark (``common.HostSpeed``) is taken
while the app is idle.  Each latency is normalized by the marks around
its slice; the end-to-end metrics are the host-normalized figures.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np
from repro.serve.app import ServeConfig

from common import (
    CACHE,
    HostSpeed,
    Outcome,
    Tracer,
    peak_rss_mb,
    quantile,
    slow_half_mean,
    tail_quantile,
    write_json_atomic,
)

PERIOD = 8
FEATURES = 8
#: The serving bench's cold and warm threshold (Figure 2's min_conf) and
#: its storm thresholds, in its order (EXPERIMENTS.md A9).
A9_CONF = 0.64
A9_STORM_CONF = (0.75, A9_CONF, 0.9, 0.5)
#: Warm repeats per storm request at the nominal rate.  A9 runs 2000 warm
#: and 1000 storm requests; at that 2:1 the all-class median sat at the
#: 75th percentile of the warm requests, where their latency climbs
#: steeply (worker threads holding the GIL), and moved by a third between
#: runs of one seed, so storms come half as often here.
WARM_PER_STORM_REQUEST = 4
#: Cold lifecycle thresholds: first sight, re-query above, re-query below.
COLD_CONF = (A9_CONF, 0.9, 0.5)
#: The generator seed of the series' structure, the same for every run
#: seed (which names their features and draws the arrivals): with it
#: drawn from the run seed, how many patterns a warm reply encodes, and
#: so the mean latency, varied by a fifth between seeds.
STRUCTURE_SEED = 7_000
#: Every threshold a request uses is >= this; the reference mines here.
LOW_CONF = min(A9_STORM_CONF)
SLOTS = {"full": 100_000, "smoke": 2_000}
#: Slots of each churn lifecycle's series: small enough that a run holds
#: ~20 lifecycles, so their medians rest on enough samples.
CHURN_SLOTS = {"full": 12_500, "smoke": 1_000}
RESIDENT = 2
SETUP_REPEATS = 5
#: Slices per storm (every slice has a cold lifecycle).
STORM_EVERY = 2
MAX_PENDING = ServeConfig().max_pending
STORM_SIZE = MAX_PENDING // 2
#: Open-loop requests in flight at which the sender skips an arrival, and
#: the level a rung may reach and still count as having no growing
#: backlog.
BACKLOG_ABORT = MAX_PENDING - STORM_SIZE
BACKLOG_LIMIT = 3 * BACKLOG_ABORT // 4
#: The p99 latency limit that defines the highest sustainable rate.
P99_LIMIT_MS = 1000.0
#: Rate ladder (requests/s): the nominal rate first, then two doublings
#: to find where the backlog starts to grow.
NOMINAL_RPS = {"full": 80.0, "smoke": 100.0}
LADDER = (1.0, 2.0, 4.0)
#: Share of the run's seconds spent at the nominal rate.
NOMINAL_SHARE = 0.7
#: Arrivals come at a constant rate, each moved by up to this share of
#: the spacing.  Poisson arrivals were tried first: the number of them a
#: loop stall (a ``POST /series`` holding the GIL) caught varied enough
#: to spread the mean latency 0.1-0.2 IQR/median between runs.
JITTER = 0.4


def slice_s(scale: str) -> float:
    """Seconds of schedule per slice: one storm per
    ``WARM_PER_STORM_REQUEST * STORM_SIZE`` warm arrivals at the nominal
    rate."""
    return (WARM_PER_STORM_REQUEST * STORM_SIZE / NOMINAL_RPS[scale]
            / STORM_EVERY)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def cache_dir(seed: int, scale: str) -> Path:
    return (CACHE / "serve-mixed"
            / f"{scale}-{CHURN_SLOTS[scale]}-{STRUCTURE_SEED}-seed{seed}")


def _spec(index: int, length: int):
    from repro.synth.generator import SyntheticSpec

    return SyntheticSpec(
        length=length, period=PERIOD, max_pat_length=4,
        f1_size=FEATURES, alphabet_size=FEATURES, noise_rate=0.5,
        seed=STRUCTURE_SEED + index,
    )


def prefix(seed: int, series: str) -> str:
    """The prefix of every feature name of a served series: the run's
    seed, and for a lifecycle its own index, so each is new content."""
    return f"s{seed}r" if series.startswith("r") else f"s{seed}{series}x"


@dataclass
class Slice:
    #: Position of its rung on the ladder (0: the nominal rate).
    step: int
    rate: float
    #: (due offset s, series, min_conf) per open-loop arrival.
    arrivals: list = field(default_factory=list)


def slices_per_step(seconds: float, scale: str) -> list[int]:
    nominal = max(2, round(seconds * NOMINAL_SHARE / slice_s(scale)))
    rest = seconds * (1.0 - NOMINAL_SHARE) / (len(LADDER) - 1)
    return [nominal] + [max(1, round(rest / slice_s(scale)))] * (
        len(LADDER) - 1
    )


def schedule(seed: int, seconds: float, scale: str) -> list[Slice]:
    """The seeded open-loop arrival schedule, slice by slice, of every
    ladder rung: a constant rate, each arrival jittered by up to
    ``JITTER`` of the spacing around its place, from a seeded phase."""
    rng = np.random.default_rng([seed, 11])
    slices = []
    for position, count in enumerate(slices_per_step(seconds, scale)):
        rate = NOMINAL_RPS[scale] * LADDER[position]
        spacing = 1.0 / rate
        for _ in range(count):
            piece = Slice(step=position, rate=rate)
            place = float(rng.uniform(0.0, spacing))
            while place < slice_s(scale):
                due = place + float(rng.uniform(-JITTER, JITTER)) * spacing
                series = f"r{int(rng.integers(RESIDENT))}"
                piece.arrivals.append((max(0.0, due), series, A9_CONF))
                place += spacing
            piece.arrivals.sort()
            slices.append(piece)
    return slices


def lifecycle_budget(seconds: float, scale: str) -> int:
    """Series files one run uses up: two per slice (cold, storm)."""
    return 2 * sum(slices_per_step(seconds, scale))


def prepare(seed: int, seconds: float, scale: str) -> None:
    """Series files for the residents and every lifecycle, plus the
    reference result of each base series at ``LOW_CONF`` (Apriori,
    Algorithm 3.1: no code shared with the hit-set path being served)."""
    from repro.core.apriori import mine_single_period_apriori

    directory = cache_dir(seed, scale)
    lifecycles = lifecycle_budget(seconds, scale)
    manifest_path = directory / "manifest.json"
    manifest = (
        json.loads(manifest_path.read_text()) if manifest_path.exists()
        else None
    )
    if manifest is not None and manifest["lifecycles"] >= lifecycles:
        return
    directory.mkdir(parents=True, exist_ok=True)
    bases = {}
    for index in range(RESIDENT + 1):
        length = SLOTS[scale] if index < RESIDENT else CHURN_SLOTS[scale]
        bases[index] = _spec(index, length).generate().series
    reference = {}
    for index, series in bases.items():
        result = mine_single_period_apriori(series, PERIOD, LOW_CONF)
        reference[str(index)] = {
            "num_periods": result.num_periods,
            "patterns": [
                [sorted(pattern.letters), count]
                for pattern, count in result.items()
            ],
        }
        if index < RESIDENT:
            _save_named(series, prefix(seed, f"r{index}"),
                        directory / f"r{index}.txt")
    for index in range(lifecycles):
        # Feature names unique to the lifecycle: new content, same work.
        _save_named(bases[RESIDENT], prefix(seed, f"c{index}"),
                    directory / f"c{index}.txt")
    write_json_atomic(
        manifest_path, {"lifecycles": lifecycles, "reference": reference}
    )


def _save_named(series, head: str, path: Path) -> None:
    from repro.timeseries.feature_series import FeatureSeries
    from repro.timeseries.io import save_series

    save_series(
        FeatureSeries([frozenset(head + f for f in slot) for slot in series]),
        path,
    )


class Reference:
    """Expected ``(pattern, count)`` sets by series and threshold."""

    def __init__(self, manifest: dict, seed: int):
        self._seed = seed
        self._reference = manifest["reference"]
        self._memo: dict[tuple[str, float], tuple[int, frozenset]] = {}

    def expected(self, series: str, conf: float) -> tuple[int, frozenset]:
        key = (series, conf)
        if key not in self._memo:
            from repro.core.counting import min_count
            from repro.core.pattern import Pattern

            base = series[1:] if series.startswith("r") else str(RESIDENT)
            head = prefix(self._seed, series)
            reference = self._reference[base]
            periods = reference["num_periods"]
            floor = min_count(conf, periods)
            self._memo[key] = (periods, frozenset(
                (str(Pattern.from_letters(
                    PERIOD, [(o, head + f) for o, f in letters]
                )), count)
                for letters, count in reference["patterns"]
                if count >= floor
            ))
        return self._memo[key]


# ----------------------------------------------------------------------
# The traffic generator
# ----------------------------------------------------------------------


def _request_bytes(method: str, path: str, body: dict | None) -> bytes:
    payload = b"" if body is None else json.dumps(body).encode("utf-8")
    return (
        f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    ).encode("ascii") + payload


#: Status of an arrival the generator did not send.
UNSENT = 0


@dataclass
class Sample:
    due: float
    done: float
    status: int
    klass: str
    step: int
    #: (series, conf) for a mine whose reply must be checked.
    check: tuple[str, float] | None = None
    payload: dict | None = None


class Traffic:
    """Sends requests, times them from their due time, keeps samples."""

    def __init__(self, app, tracer: Tracer | None, directory: Path):
        self.app = app
        self.tracer = tracer
        self.directory = directory
        self.samples: list[Sample] = []
        self.outstanding = 0
        self.lateness: list[float] = []
        self.rid = 0
        self.tasks: set[asyncio.Task] = set()
        self.parse_s: list[float] = []
        self.encode_s: list[float] = []
        self.load_s: list[float] = []
        self.traced_latency: list[float] = []
        #: Exceptions raised inside request tasks (each a failed op).
        self.errors: list[str] = []
        self.untraced_latency: list[float] = []
        #: The ladder rung now being sent (-1 before the first).
        self.step = -1

    async def call(
        self, method: str, path: str, body: dict | None, due: float,
        klass: str, check: tuple[str, float] | None = None,
    ) -> Sample:
        from repro.serve.protocol import read_request, response_bytes

        self.rid += 1
        rid = self.rid
        traced = self.tracer is not None and rid % 2 == 0
        raw = _request_bytes(method, path, body)
        t_parse = time.perf_counter()
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        request = await read_request(reader)
        t_handle = time.perf_counter()
        status, payload = await self.app.handle(request)
        t_encode = time.perf_counter()
        response_bytes(status, payload)
        done = time.perf_counter()
        sample = Sample(due, done, status, klass, self.step, check, payload)
        self.samples.append(sample)
        if self.tracer is not None:
            (self.traced_latency if traced else self.untraced_latency).append(
                done - due
            )
            if traced:
                root = self.tracer.add("serve.request", due, done, rid=rid)
                self.tracer.add("protocol.parse", t_parse, t_handle,
                                root.index, rid)
                self.tracer.add("serve.handle", t_handle, t_encode,
                                root.index, rid)
                self.tracer.add("protocol.encode", t_encode, done,
                                root.index, rid)
                self.parse_s.append(t_handle - t_parse)
                self.encode_s.append(done - t_encode)
        if klass == "load":
            self.load_s.append(t_encode - t_handle)
        return sample

    def spawn(self, coroutine) -> None:
        task = asyncio.ensure_future(coroutine)
        self.tasks.add(task)
        task.add_done_callback(self.tasks.discard)

    async def open_loop_mine(self, series, conf, klass, due) -> None:
        """One open-loop request; the sender counted it outstanding."""
        try:
            await self.call(
                "POST", "/mine",
                {"series": series, "period": PERIOD, "min_conf": conf},
                due, klass, check=(series, conf),
            )
        finally:
            self.outstanding -= 1

    async def _load(self, index: int) -> float | None:
        """Load a lifecycle's series; None (already counted as a failed
        request) ends the lifecycle."""
        name = f"c{index}"
        sample = await self.call(
            "POST", "/series",
            {"name": name, "path": str(self.directory / f"{name}.txt")},
            time.perf_counter(), "load",
        )
        return sample.done if sample.status == 200 else None

    async def _mine(self, index: int, conf: float, due: float,
                    klass: str) -> Sample:
        name = f"c{index}"
        return await self.call(
            "POST", "/mine",
            {"series": name, "period": PERIOD, "min_conf": conf},
            due, klass, check=(name, conf),
        )

    async def lifecycles(self, index: int) -> None:
        """Slice ``index``'s churn: a cold lifecycle, then in every
        ``STORM_EVERY``-th slice a storm, each on a file of its own."""
        await self.lifecycle(2 * index, storm=False)
        if index % STORM_EVERY == STORM_EVERY - 1:
            await self.lifecycle(2 * index + 1, storm=True)

    async def lifecycle(self, index: int, storm: bool) -> None:
        """One churn lifecycle: load, cold queries or a storm, unload."""
        now = await self._load(index)
        if now is None:
            return
        if not storm:
            for conf, klass in zip(COLD_CONF,
                                   ("cold", "cold-up", "cold-down")):
                now = (await self._mine(index, conf, now, klass)).done
        else:
            burst = await asyncio.gather(*[
                self._mine(index, A9_STORM_CONF[k % len(A9_STORM_CONF)],
                           now, "storm")
                for k in range(STORM_SIZE)
            ])
            now = max(sample.done for sample in burst)
        await self.call("DELETE", f"/series/c{index}", None, now, "unload")

    async def run_slice(self, index: int, piece: Slice) -> int:
        """Send one slice's arrivals on schedule beside its lifecycle and
        wait for every reply; returns the peak number of open-loop
        requests in flight.  An arrival due at the backlog cut-off is not
        sent; it is kept as a sample with status 0."""
        self.step = piece.step
        position = piece.step
        start = time.perf_counter() + 0.01
        self.spawn(self.lifecycles(index))
        peak = 0
        for offset, series, conf in piece.arrivals:
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            self.lateness.append(max(0.0, time.perf_counter() - due))
            if self.outstanding >= BACKLOG_ABORT:
                peak = BACKLOG_ABORT
                self.samples.append(Sample(
                    due, time.perf_counter(), UNSENT, "warm", position,
                    payload={"error": "not sent: open-loop backlog"},
                ))
                continue
            self.outstanding += 1
            peak = max(peak, self.outstanding)
            self.spawn(self.open_loop_mine(series, conf, "warm", due))
        await self.drain()
        return peak

    async def drain(self) -> None:
        while self.tasks:
            for result in await asyncio.gather(
                *list(self.tasks), return_exceptions=True
            ):
                if isinstance(result, Exception):
                    self.errors.append(f"{type(result).__name__}: {result}")


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------


async def _setup(directory: Path, concurrency: int):
    from repro.serve.app import MiningApp, ServeConfig
    from repro.serve.protocol import read_request

    t0 = time.perf_counter()
    app = MiningApp(ServeConfig(concurrency=concurrency))
    for index in range(RESIDENT):
        reader = asyncio.StreamReader()
        reader.feed_data(_request_bytes(
            "POST", "/series",
            {"name": f"r{index}", "path": str(directory / f"r{index}.txt")},
        ))
        reader.feed_eof()
        status, payload = await app.handle(await read_request(reader))
        if status != 200:
            raise RuntimeError(f"set-up load r{index}: {status} {payload}")
    return app, time.perf_counter() - t0


async def _workload(seed, seconds, scale, trace, corrupt, tracer, outcome):
    directory = cache_dir(seed, scale)
    manifest = json.loads((directory / "manifest.json").read_text())
    reference = Reference(manifest, seed)
    concurrency = len(os.sched_getaffinity(0))
    # Marks between slices are few: each takes the median of 7 repeats.
    speed = HostSpeed(repeats=7)
    speed.mark()
    setup = []
    app = None
    for _ in range(SETUP_REPEATS):
        if app is not None:
            app.close()
        started = time.perf_counter()
        app, elapsed = await _setup(directory, concurrency)
        setup.append((elapsed, started + elapsed / 2))
        speed.mark()
    try:
        traffic = Traffic(app, tracer if trace else None, directory)
        # Warm the result cache: the warm class repeats these exactly.
        for index in range(RESIDENT):
            traffic.outstanding += 1
            await traffic.open_loop_mine(f"r{index}", A9_CONF, "prime",
                                         time.perf_counter())
        pending_max = 0
        sampling = True

        async def sample_pending() -> None:
            nonlocal pending_max
            while sampling:
                pending_max = max(pending_max,
                                  app.stats()["queue"]["pending"])
                await asyncio.sleep(0.02)

        sampler = asyncio.ensure_future(sample_pending()) if trace else None
        slices = schedule(seed, seconds, scale)
        speed.mark()
        peaks = [0] * len(LADDER)
        #: Host-normalized CPU seconds of the nominal slices.
        nominal_cpu_s = 0.0
        for index, piece in enumerate(slices):
            cpu = time.process_time()
            sent = time.perf_counter()
            peaks[piece.step] = max(peaks[piece.step],
                                    await traffic.run_slice(index, piece))
            cpu = time.process_time() - cpu
            middle = (sent + time.perf_counter()) / 2
            speed.mark()
            if piece.step == 0:
                nominal_cpu_s += speed.normalize(cpu, middle)
        sampling = False
        if sampler is not None:
            await sampler
        stats = app.stats()
    finally:
        app.close()

    # Checks run after the traffic, so they never delay a request.
    corrupted = not corrupt
    for error in traffic.errors:
        outcome.attempted += 1
        outcome.fail(error)
    for sample in traffic.samples:
        if sample.status == UNSENT and sample.step > 0:
            # Above the nominal rate a rung may saturate: that is what
            # max_rate_rps measures, so a skipped arrival is no failed op.
            continue
        outcome.attempted += 1
        if not 200 <= sample.status < 300:
            outcome.fail(f"{sample.klass}: status {sample.status}: "
                         f"{sample.payload}")
            continue
        if sample.check is None:
            continue
        document = sample.payload["result"]
        got = {(row["pattern"], row["count"]) for row in document["patterns"]}
        if not corrupted:
            row = document["patterns"][0]
            got.discard((row["pattern"], row["count"]))
            got.add((row["pattern"], row["count"] + 1))
            corrupted = True
        periods, patterns = reference.expected(*sample.check)
        if document["num_periods"] != periods or got != patterns:
            outcome.fail(
                f"{sample.klass} {sample.check}: {len(got)} patterns vs "
                f"{len(patterns)} expected"
            )

    def latencies(step: int | None, klass: str | None = None,
                  normalized: bool = False) -> list[float]:
        values = []
        for sample in traffic.samples:
            if sample.step < 0 or (step is not None and sample.step != step):
                continue
            if klass is not None and sample.klass != klass:
                continue
            if not 200 <= sample.status < 300:
                values.append(math.inf)
            elif normalized:
                values.append(speed.normalize(sample.done - sample.due,
                                              sample.due))
            else:
                values.append(sample.done - sample.due)
        return values

    rates = [NOMINAL_RPS[scale] * factor for factor in LADDER]
    step_p99 = []
    for position in range(len(LADDER)):
        values = latencies(position)
        step_p99.append(
            quantile(values, tail_quantile(len(values), 0.99)) * 1e3
            if values else math.inf
        )
    outcome.notes["ladder"] = [
        {"rate": rate, "requests": len(latencies(position)),
         "p99_ms": round(step_p99[position], 3)
         if math.isfinite(step_p99[position]) else None,
         "peak_in_flight": peaks[position],
         "unsent": sum(1 for sample in traffic.samples
                       if sample.step == position
                       and sample.status == UNSENT)}
        for position, rate in enumerate(rates)
    ]
    if not trace:
        nominal = latencies(0, normalized=True)
        outcome.metric("setup_s", median(
            speed.normalize(value, at) for value, at in setup
        ), "s")
        # The mean and the mean of the slower half, not the median and
        # p99: about half the requests wait for a worker thread's GIL
        # hold and half do not, so the median falls on that cliff (it
        # moved 0.7 IQR/median over five seeds), and p99 rests on the ~20
        # requests a loop stall catches (0.2).  Both percentiles are
        # printed as notes.
        outcome.metric("op_typical_ms", sum(nominal) / len(nominal) * 1e3,
                       "ms")
        outcome.metric("op_tail_ms", slow_half_mean(nominal) * 1e3, "ms")
        outcome.notes["request_p50_ms"] = round(median(nominal) * 1e3, 4)
        outcome.notes["request_p99_ms"] = round(quantile(
            nominal, tail_quantile(len(nominal), 0.99)) * 1e3, 4)
        # Requests answered per host-normalized CPU-second of the whole
        # process (loop and worker threads) at the nominal rate: the
        # mix's service capacity.
        answered = sum(1 for value in nominal if math.isfinite(value))
        outcome.metric("throughput_per_s", answered / nominal_cpu_s, "1/s")
        outcome.notes["max_rate_rps"] = round(
            _max_rate(rates, step_p99, peaks), 3
        )
        # The mean: over five seeds it spread about half as far as the
        # median of the same ~35 first-sight mines.
        cold = latencies(None, "cold", normalized=True)
        outcome.metric("second_op_ms", sum(cold) / len(cold) * 1e3, "ms")
        loads = latencies(None, "load", normalized=True)
        outcome.metric("third_op_ms", median(loads) * 1e3, "ms")
        # Storm latency, printed but not gated: each storm's mean (its
        # latencies step once per threshold, so its median falls on a
        # step), median over storms.  It moved 2-3x as far as throughput
        # between runs on a shared 2-CPU host.
        storms: dict[str, list[float]] = {}
        for sample in traffic.samples:
            if sample.klass == "storm":
                ok = 200 <= sample.status < 300
                storms.setdefault(sample.check[0], []).append(
                    speed.normalize(sample.done - sample.due, sample.due)
                    if ok else math.inf
                )
        outcome.notes["storm_ms"] = round(median(
            sum(values) / len(values) for values in storms.values()
        ) * 1e3, 3)
        outcome.notes["samples"] = {
            "nominal": len(nominal), "cold": len(cold), "loads": len(loads),
            "storms": len(storms),
        }
        outcome.notes["raw_median_ms"] = {
            "nominal": round(median(latencies(0)) * 1e3, 4),
            "cold": round(median(latencies(None, "cold")) * 1e3, 4),
            "load": round(median(latencies(None, "load")) * 1e3, 4),
        }
        outcome.notes["host_speed"] = speed.summary()
        outcome.notes["generator_late_p99_ms"] = round(
            quantile(traffic.lateness, 0.99) * 1e3, 3
        )
    else:
        _layer_metrics(outcome, tracer, traffic, stats, pending_max, directory)


def _max_rate(rates: list[float], p99_ms: list[float],
              peaks: list[int]) -> float:
    """The highest rate meeting the p99 limit with no growing backlog.

    Each step scores max(p99 / limit, peak in flight / backlog limit); a
    step passes at score <= 1.  The rate where the score crosses 1 is
    interpolated (log-log) between the last passing and the first failing
    step, so the figure moves continuously rather than by ladder rungs.
    """
    scores = [
        max(p99 / P99_LIMIT_MS, peak / BACKLOG_LIMIT)
        for p99, peak in zip(p99_ms, peaks)
    ]
    failing = [i for i, score in enumerate(scores) if score > 1.0]
    if not failing:
        return rates[-1]
    high = failing[0]
    if high == 0 or not math.isfinite(scores[high]):
        return rates[max(0, high - 1)] / max(1.0, scores[max(0, high - 1)])
    low = high - 1
    fraction = -math.log(scores[low]) / (
        math.log(scores[high]) - math.log(scores[low])
    )
    return math.exp(
        math.log(rates[low]) + fraction * (math.log(rates[high])
                                           - math.log(rates[low]))
    )


def _layer_metrics(outcome, tracer, traffic, stats, pending_max, directory):
    from repro.timeseries.io import load_series

    def mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    outcome.metric("protocol.parse_s", mean(traffic.parse_s), "s")
    outcome.metric("protocol.encode_s", mean(traffic.encode_s), "s")
    outcome.metric("registry.load_s", mean(traffic.load_s), "s")
    # Decomposition: the registry's ingest on its own, on one lifecycle
    # file and one resident file.
    io = []
    for name in ("r0", "c0"):
        t0 = time.perf_counter()
        series = load_series(directory / f"{name}.txt")
        io.append(time.perf_counter() - t0)
    outcome.metric("io.load_s", mean(io), "s")
    outcome.metric("io.slots", len(series), "count")

    stages = stats["profile"]["stages"]

    def per_call(stage: str) -> float:
        timing = stages.get(stage)
        return timing["elapsed_s"] / timing["calls"] if timing else 0.0

    outcome.metric("hitset.scan1_s", per_call("scan1"), "s")
    outcome.metric("hitset.scan2_s", per_call("scan2"), "s")
    outcome.metric("tree.insert_s", per_call("tree"), "s")
    outcome.metric("tree.derive_s", per_call("derive"), "s")
    requests = stats["requests"]
    outcome.metric("hitset.scans",
                   requests["scans_executed"] / max(1, requests["mined"]),
                   "count")
    scan2_items = stages.get("scan2", {}).get("items", 0)
    outcome.metric(
        "hitset.distinct_hit_ratio",
        stats["profile"]["counters"].get("distinct_hits", 0)
        / scan2_items if scan2_items else 0.0,
        "ratio",
    )
    mined = [
        s.payload["result"]["stats"] for s in traffic.samples
        if s.check is not None and 200 <= s.status < 300
        and not s.payload["serve"]["from_result_cache"]
    ]
    outcome.metric("tree.nodes", mean([m["tree_nodes"] for m in mined]),
                   "count")
    outcome.metric("tree.candidates", mean([
        sum(m["candidate_counts"].values()) for m in mined
    ]), "count")
    mines = sum(1 for s in traffic.samples if s.check is not None)
    outcome.metric("serve.result_cache.hit_ratio",
                   stats["result_cache"]["hits"] / max(1, mines), "ratio")
    outcome.metric("kernels.cache.hit_ratio",
                   stats["count_cache"]["hit_rate"], "ratio")
    outcome.metric("kernels.cache.evictions",
                   stats["count_cache"]["evictions"], "count")
    coalescing = stats["coalescing"]
    outcome.metric(
        "serve.coalesce.requests_per_scan",
        (coalescing["led"] + coalescing["coalesced"])
        / max(1, requests["scans_executed"]),
        "ratio",
    )
    outcome.metric("serve.scans", requests["scans_executed"], "count")
    outcome.metric("serve.rejected",
                   requests["rejected_busy"] + requests["rejected_quota"],
                   "count")
    outcome.metric("serve.pending_max", pending_max, "count")
    outcome.metric("serve.generator_late_p99_ms",
                   quantile(traffic.lateness, 0.99) * 1e3, "ms")
    # Layer sum (parse + handle + encode) against the traced total (from
    # due time to encoded reply); the rest is waiting to be started.
    traced_total = tracer.total("serve.request")
    inner = sum(s.end - s.start for s in tracer.spans if s.parent is not None)
    outcome.metric("trace.layer_share",
                   inner / traced_total if traced_total else 0.0, "ratio")
    outcome.metric(
        "trace.overhead",
        median(traffic.traced_latency) / median(traffic.untraced_latency) - 1.0
        if traffic.traced_latency and traffic.untraced_latency else 0.0,
        "ratio",
    )


def run(
    seed: int, seconds: float, scale: str, trace: bool, corrupt: bool,
    tracer: Tracer,
) -> Outcome:
    outcome = Outcome()
    asyncio.run(
        _workload(seed, seconds, scale, trace, corrupt, tracer, outcome)
    )
    outcome.metric("peak_rss_mb", peak_rss_mb(), "MiB")
    return outcome
