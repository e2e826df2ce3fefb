"""Workload ``stream-durable``: ``ppm stream --events`` with a checkpoint dir.

Closed loop.  A seeded event log (period 10, ~6 features per slot, a
fixed share of events out of order within the lateness bound and a few
beyond it) is read the way ``ppm stream --events`` reads a file and fed
record by record through ``DurableStream(events=True, out=...)``.  At a
fixed record the stream is ``close()``d without ``finish()`` and reopened
on the same directory (recovery), then fed to the end and finished.  The
slide (2 segments) closes 100 windows a pass; passes over a few seeded
logs repeat on fresh directories until the run's seconds are spent.
Every pass's output file must equal, byte for byte, the windows of an
uninterrupted in-memory ``StreamingMiner`` fed the same records.

The logs plant the max pattern (|F1| = MAX-PAT-LENGTH = 8), so every
window holds its 255 subpatterns whatever the seed: with seeded F1 letters
near the threshold the per-window work, and so every timing, varied more
than 2x between seeds.  One more letter, ``drift`` at offset 0, follows a
fixed on/off schedule of segments that does not depend on the seed: its
window support crosses ``min_conf`` at the same windows of every pass
(12 of 101), so each pass runs the same number of full tree rebuilds (the
F1-drift path of ``DecrementRetirement``) beside the insert/retire deltas
of the rest.  Today a rebuild window costs about what a delta window
does; one that became slower would hold the top 12% and move emit p95.

At the kill point the stream is reopened ``RECOVERIES`` times in a row
(each reopen a full recovery of the same directory) so each pass gives
that many recovery timings.  A host-speed mark (``common.HostSpeed``) is
taken between feed calls every ``MARK_EVERY_S`` seconds, and the
end-to-end metrics are the host-normalized timings.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path
from statistics import median

import numpy as np

from common import (
    CACHE,
    WORK,
    CheckFailed,
    HostSpeed,
    Outcome,
    Tracer,
    checked,
    clocks,
    fresh_dir,
    interval,
    peak_rss_mb,
    quantile,
)

PERIOD = 10
MIN_CONF = 0.6
LATENESS = 4.0
#: Out-of-order share within the lateness bound, and beyond it.
LATE_SHARE = 0.08
TOO_LATE_SHARE = 0.004
#: Slots per pass and window geometry, by scale.
SLOTS = {"full": 3_000, "smoke": 600}
WINDOW = {"full": 1_000, "smoke": 200}
SLIDE = {"full": 20, "smoke": 20}
#: The seed-independent drift letter: present at offset 0 of the first 60%
#: of the segments of every cycle of 0.35 window lengths, so its support
#: in a window moves across 0.6 as the window slides.
DRIFT = "drift"
DRIFT_CYCLE_SHARE = 0.35
DRIFT_ON_SHARE = 0.6
#: The kill point, as a share of the pass's records.
KILL_SHARE = 0.6
#: DurableStream constructions on empty directories at the start, and
#: after each pass (a construction takes ~0.2 ms of file-system calls,
#: whose speed drifts over seconds; spreading them over the run steadies
#: their median).
SETUP_REPEATS = 50
SETUP_PER_PASS = 20
#: Reopens at the kill point, each a recovery of the same directory.
RECOVERIES = 3
#: Seconds of feeding between two host-speed marks.
MARK_EVERY_S = 0.5


def params(scale: str) -> dict:
    return {
        "period": PERIOD,
        "window": WINDOW[scale],
        "slide": SLIDE[scale],
        "min_conf": MIN_CONF,
        "events": True,
        "slot_width": 1.0,
        "origin": 0.0,
        "lateness": LATENESS,
    }


def cache_dir(seed: int, scale: str) -> Path:
    return CACHE / "stream-durable" / f"{scale}-seed{seed}"


def logs_needed(seconds: float) -> int:
    """Distinct event logs a run cycles through (a pass takes ~4 s, so
    each log is fed about twice)."""
    return max(2, math.ceil(seconds / 8.0))


def prepare(seed: int, seconds: float, scale: str) -> None:
    """Write the event logs and each uninterrupted run's window lines."""
    directory = cache_dir(seed, scale)
    directory.mkdir(parents=True, exist_ok=True)
    for log in range(logs_needed(seconds)):
        if not (directory / f"windows{log}.jsonl").exists():
            _prepare_log(directory, seed, log, scale)


def _prepare_log(directory: Path, seed: int, log: int, scale: str) -> None:
    from repro.synth.generator import generate_series

    series = generate_series(
        SLOTS[scale], PERIOD, max_pat_length=8, f1_size=8,
        seed=seed * 100 + log, noise_rate=5.0,
    ).series
    rng = np.random.default_rng([seed, log, 7])
    cycle = round(WINDOW[scale] // PERIOD * DRIFT_CYCLE_SHARE)
    on = round(cycle * DRIFT_ON_SHARE)
    events = []  # (arrival key, time, features)
    for slot, features in enumerate(series):
        if slot % PERIOD == 0 and slot // PERIOD % cycle < on:
            # Its own event, never late: no seed decides whether it counts.
            events.append((float(slot), float(slot), [DRIFT]))
        ordered = sorted(features)
        if not ordered:
            continue
        cut = int(rng.integers(0, len(ordered) + 1))
        for part in (ordered[:cut], ordered[cut:]):
            if not part:
                continue
            when = round(slot + float(rng.uniform(0.0, 0.999)), 3)
            draw = float(rng.random())
            if draw < TOO_LATE_SHARE:
                delay = LATENESS * float(rng.uniform(1.5, 3.0))
            elif draw < TOO_LATE_SHARE + LATE_SHARE:
                delay = LATENESS * float(rng.uniform(0.0, 0.9))
            else:
                delay = 0.0
            events.append((when + delay, when, part))
    events.sort(key=lambda event: event[0])
    lines = [f"{when} {' '.join(part)}" for _, when, part in events]
    log_path = directory / f"events{log}.txt"
    log_path.write_text(
        "# repro benchmark event log\n" + "\n".join(lines) + "\n",
        encoding="utf-8",
    )
    reference = _in_memory(read_records(log_path), scale)
    # Written last: its presence marks the log complete.
    tmp = directory / f"windows{log}.jsonl.tmp"
    tmp.write_text("".join(line + "\n" for line in reference),
                   encoding="utf-8")
    os.replace(tmp, directory / f"windows{log}.jsonl")


def kill_point(records: int) -> int:
    """The record the stream is killed at: ~60% in, and always halfway
    between two snapshots, so every recovery replays the same number of
    WAL records (the stream keeps its default snapshot cadence)."""
    from repro.durability.stream import DEFAULT_CHECKPOINT_EVERY

    every = DEFAULT_CHECKPOINT_EVERY
    return int(records * KILL_SHARE) // every * every + every // 2


def read_records(path: Path) -> list[list]:
    """Parse an event log exactly as ``ppm stream --events`` does."""
    records = []
    with path.open(encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            records.append([float(fields[0]), fields[1:]])
    return records


def _in_memory(records: list[list], scale: str) -> list[str]:
    from repro.streaming import ArrivalBuffer, StreamingMiner
    from repro.streaming.windows import window_to_dict

    config = params(scale)
    buffer = ArrivalBuffer(slot_width=1.0, start=0.0, lateness=LATENESS)
    miner = StreamingMiner(
        period=PERIOD, window=config["window"], slide=config["slide"],
        min_conf=MIN_CONF,
    )
    windows = []
    for when, features in records:
        for feature in features:
            buffer.add(when, feature)
        windows.extend(miner.extend(buffer.drain()))
    windows.extend(miner.extend(buffer.flush()))
    return [json.dumps(window_to_dict(window)) for window in windows]


def run(
    seed: int, seconds: float, scale: str, trace: bool, corrupt: bool,
    tracer: Tracer,
) -> Outcome:
    from repro.durability import DurableStream

    outcome = Outcome()
    directory = cache_dir(seed, scale)
    logs = logs_needed(seconds)
    config = params(scale)
    work = fresh_dir(WORK / "stream-durable")

    speed = HostSpeed(scratch=work)
    speed.mark()
    setup: list[tuple[float, float, float]] = []

    def set_up(repeats: int) -> None:
        for _ in range(repeats):
            empty = fresh_dir(work / f"setup{len(setup)}")
            t0 = clocks()
            stream = DurableStream(empty / "ckpt", **config)
            setup.append(interval(t0, clocks()))
            stream.close()
            if len(setup) % 10 == 0:
                speed.mark()

    set_up(SETUP_REPEATS)

    #: Untraced timings as ``common.interval`` triples.
    emit_s: list[tuple[float, float, float]] = []
    plain_s: list[tuple[float, float, float]] = []
    recovery_s: list[tuple[float, float, float]] = []
    #: Per untraced pass: its timed calls, for its rate.
    pass_calls: list[list[tuple[float, float, float]]] = []
    pass_records: list[int] = []
    feed_total = traced_total = 0.0
    fed = traced_records = 0
    layer: dict[str, list[float]] = {}

    def note(name: str, value: float) -> None:
        layer.setdefault(name, []).append(value)

    speed.mark()
    started = time.perf_counter()
    passes = 0
    pass_wall: list[float] = []
    # Start a pass only if one more fits in the run's seconds.
    while passes < (2 if trace else 1) or (
        time.perf_counter() - started + median(pass_wall) <= seconds
    ):
        pass_started = time.perf_counter()
        traced = trace and passes % 2 == 1
        # Traced runs pair each log's untraced pass with a traced one.
        log = (passes // 2 if trace else passes) % logs
        records = read_records(directory / f"events{log}.txt")
        reference = (directory / f"windows{log}.jsonl").read_bytes()
        kill_at = kill_point(len(records))
        base = fresh_dir(work / f"pass{passes}")
        out = base / "windows.jsonl"
        with checked(outcome, f"pass {passes}"):
            if traced:
                total, outcome.notes["durable_stream_stats"] = _traced_pass(
                    records, config, base, out, kill_at, tracer, note,
                )
                traced_total += total
                traced_records += len(records)
            else:
                calls: list[tuple[float, float, float]] = []
                emits: list[tuple[float, float, float]] = []
                stream = DurableStream(base / "ckpt", **config, out=out)
                marked = time.perf_counter()
                for index, record in enumerate(records):
                    if index == kill_at:
                        for reopen in range(RECOVERIES):
                            stream.close()
                            speed.mark()
                            t0 = clocks()
                            stream = DurableStream(
                                base / "ckpt", **config, out=out
                            )
                            recovery_s.append(interval(t0, clocks()))
                            if reopen == 0:
                                calls.append(recovery_s[-1])
                            if stream.records_logged != kill_at:
                                raise CheckFailed(
                                    f"resumed at {stream.records_logged}, "
                                    f"expected {kill_at}"
                                )
                        speed.mark()
                        marked = time.perf_counter()
                    t0 = clocks()
                    windows = stream.feed(record)
                    t1 = clocks()
                    calls.append(interval(t0, t1))
                    (emits if windows else plain_s).append(calls[-1])
                    if t1[0] - marked >= MARK_EVERY_S:
                        speed.mark()
                        marked = time.perf_counter()
                t0 = clocks()
                stream.finish()
                calls.append(interval(t0, clocks()))
                speed.mark()
                feed_total += sum(call[0] for call in calls)
                fed += len(records)
                emit_s.extend(emits)
                pass_calls.append(calls)
                pass_records.append(len(records))
            produced = out.read_bytes()
            if corrupt and passes == 0:
                produced = _corrupt_lines(produced)
            if produced != reference:
                got, want = produced.count(b"\n"), reference.count(b"\n")
                raise CheckFailed(
                    "window output differs from the uninterrupted run "
                    f"({got} vs {want} lines)"
                )
        passes += 1
        fresh_dir(base)
        if not traced:
            set_up(SETUP_PER_PASS)
        pass_wall.append(time.perf_counter() - pass_started)
    fresh_dir(work)

    outcome.notes["passes"] = passes
    outcome.notes["logs"] = logs
    outcome.notes["drift_f1_changes_per_pass"] = drift_changes(
        (directory / "windows0.jsonl").read_text(encoding="utf-8")
    )
    if not trace:
        def normalized(samples: list[tuple[float, float, float]]
                       ) -> list[float]:
            return [speed.normalize(*sample) for sample in samples]

        # Construction on an empty directory is file-system calls (its
        # thread CPU time equals its wall time): file-system speed sets it.
        outcome.metric("setup_s", median(
            speed.normalize_fs(wall, at) for wall, at, _ in setup
        ), "s")
        outcome.metric("op_typical_ms", median(normalized(emit_s)) * 1e3,
                       "ms")
        # p95 over all the run's emitting calls (~1000; p99 rests on ten
        # and spread 0.19 IQR/median over four seeds, p95 0.06), and the
        # rate of the median pass.
        outcome.metric("op_tail_ms", quantile(normalized(emit_s), 0.95)
                       * 1e3, "ms")
        outcome.metric("throughput_per_s", median(
            records / sum(normalized(calls))
            for records, calls in zip(pass_records, pass_calls)
        ), "1/s")
        outcome.metric("second_op_ms",
                       median(normalized(recovery_s)) * 1e3, "ms")
        outcome.metric("third_op_ms", median(normalized(plain_s)) * 1e3,
                       "ms")
        outcome.notes["samples"] = {
            "emit": len(emit_s), "plain_feed": len(plain_s),
            "recovery": len(recovery_s),
        }
        outcome.notes["raw_median_ms"] = {
            name: round(median(sample[0] for sample in samples) * 1e3, 4)
            for name, samples in (("emit", emit_s), ("plain_feed", plain_s),
                                  ("recovery", recovery_s))
        }
        outcome.notes["host_speed"] = speed.summary()
    else:
        def mean(name: str) -> float:
            values = layer.get(name, [])
            return sum(values) / len(values) if values else 0.0

        for name in ("streaming.extend_s", "streaming.to_dict_s",
                     "durability.wal_s", "durability.snapshot_s",
                     "tree.insert_s", "tree.derive_s"):
            outcome.metric(name, mean(name), "s")
        for name in ("streaming.late_events", "streaming.retained_segments",
                     "durability.replayed_records", "tree.nodes",
                     "tree.candidates", "hitset.scans"):
            outcome.metric(name, mean(name), "count")
        for name in ("durability.wal_bytes", "durability.snapshot_bytes"):
            outcome.metric(name, mean(name), "bytes")
        outcome.metric("trace.layer_share", mean("trace.layer_share"),
                       "ratio")
        overhead = 0.0
        if traced_records and fed:
            overhead = (traced_total / traced_records) / (
                feed_total / fed
            ) - 1.0
        outcome.metric("trace.overhead", overhead, "ratio")
    outcome.metric("peak_rss_mb", peak_rss_mb(), "MiB")
    return outcome


def _traced_pass(
    records: list[list], config: dict, base: Path, out: Path, kill_at: int,
    tracer: Tracer, note,
) -> tuple[float, dict]:
    """One durable pass with spans, then the in-memory decomposition.

    Snapshots are taken by explicit ``checkpoint()`` calls at the default
    cadence (every 64 fed records, counting from each open) so they can
    be timed on their own; the snapshot sequence is the one ``feed`` takes
    by itself.
    """
    from repro.durability import DurableStream
    from repro.durability.stream import DEFAULT_CHECKPOINT_EVERY
    from repro.streaming import ArrivalBuffer, StreamingMiner
    from repro.streaming.windows import window_to_dict

    ckpt = base / "ckpt"
    never = {"checkpoint_every": 1 << 40}
    with tracer.span("durability.pass") as root:
        with tracer.span("durability.open"):
            stream = DurableStream(ckpt, **config, **never, out=out)
        since = 0
        for index, record in enumerate(records):
            if index == kill_at:
                stream.close()
                note("durability.wal_bytes", sum(
                    p.stat().st_size for p in ckpt.glob("wal-*.jsonl")
                ))
                snapshots = sorted(ckpt.glob("snapshot-*.json"))
                note("durability.snapshot_bytes",
                     snapshots[-1].stat().st_size if snapshots else 0)
                with tracer.span("durability.recover"):
                    stream = DurableStream(ckpt, **config, **never, out=out)
                note("durability.replayed_records", stream.recovery.replayed
                     if stream.recovery is not None else 0)
                since = 0
            with tracer.span("durability.feed", rid=index):
                stream.feed(record)
            since += 1
            if since >= DEFAULT_CHECKPOINT_EVERY:
                with tracer.span("durability.checkpoint"):
                    stream.checkpoint()
                since = 0
        note("streaming.late_events", stream.buffer.report.total)
        note("streaming.retained_segments", stream.miner.retained_segments)
        with tracer.span("durability.finish"):
            stream.finish()
    durable_stats = stream.stats()
    pass_total = root.end - root.start
    checkpoints = _child_durations(tracer, root.index, "durability.checkpoint")
    feed_total = sum(_child_durations(tracer, root.index, "durability.feed"))

    # Decomposition: the same records through the in-memory layers.
    buffer = ArrivalBuffer(slot_width=1.0, start=0.0, lateness=LATENESS)
    miner = StreamingMiner(
        period=PERIOD, window=config["window"], slide=config["slide"],
        min_conf=MIN_CONF,
    )
    extend_total = to_dict_total = 0.0
    absorb_s = absorb_segments = 0.0
    emit_calls: list[tuple[float, int]] = []
    with tracer.span("streaming.decomposition"):
        for when, features in records:
            for feature in features:
                buffer.add(when, feature)
            slots = buffer.drain()
            if not slots:
                continue
            before = miner.slots_seen // PERIOD
            t0 = time.perf_counter()
            windows = miner.extend(slots)
            elapsed = time.perf_counter() - t0
            extend_total += elapsed
            segments = miner.slots_seen // PERIOD - before
            if windows:
                emit_calls.append((elapsed, segments))
            elif segments:
                absorb_s += elapsed
                absorb_segments += segments
            t0 = time.perf_counter()
            for window in windows:
                json.dumps(window_to_dict(window))
                note("tree.nodes", window.result.stats.tree_nodes)
                note("tree.candidates",
                     sum(window.result.stats.candidate_counts.values()))
                note("hitset.scans", window.result.stats.scans)
            to_dict_total += time.perf_counter() - t0
        tail = miner.extend(buffer.flush())
        t0 = time.perf_counter()
        for window in tail:
            json.dumps(window_to_dict(window))
        to_dict_total += time.perf_counter() - t0
    per_segment = absorb_s / absorb_segments if absorb_segments else 0.0
    note("tree.insert_s", per_segment)
    if emit_calls:
        note("tree.derive_s", sum(
            elapsed - segments * per_segment for elapsed, segments in emit_calls
        ) / len(emit_calls))
    note("streaming.extend_s", extend_total)
    note("streaming.to_dict_s", to_dict_total)
    wal_s = max(0.0, feed_total - extend_total - to_dict_total)
    note("durability.wal_s", wal_s)
    snapshot_total = sum(checkpoints)
    note("durability.snapshot_s",
         snapshot_total / len(checkpoints) if checkpoints else 0.0)
    recover_total = tracer.durations("durability.recover")[-1]
    layer_sum = (extend_total + to_dict_total + wal_s + snapshot_total
                 + recover_total)
    note("trace.layer_share", layer_sum / pass_total)
    return pass_total, durable_stats


def drift_changes(windows: str) -> int:
    """How often the drift letter enters or leaves F1 between windows:
    each time, ``DecrementRetirement`` rebuilds its tree."""
    present = [
        any(DRIFT in row["pattern"] for row in json.loads(line)["patterns"])
        for line in windows.splitlines()
    ]
    return sum(a != b for a, b in zip(present, present[1:]))


def _child_durations(tracer: Tracer, parent: int, name: str) -> list[float]:
    return [
        span.end - span.start for span in tracer.spans
        if span.parent == parent and span.name == name
    ]


def _corrupt_lines(produced: bytes) -> bytes:
    """The corruption self-test: one pattern count off by one."""
    lines = produced.decode("utf-8").splitlines()
    for number, line in enumerate(lines):
        window = json.loads(line)
        if window["patterns"]:
            window["patterns"][0]["count"] += 1
            lines[number] = json.dumps(window)
            break
    return ("\n".join(lines) + "\n").encode("utf-8")
