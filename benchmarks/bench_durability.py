"""The durability tax: WAL logging, periodic snapshots, kill/resume cost.

:class:`~repro.durability.stream.DurableStream` pays for exact
kill/resume in two separable installments: a flushed WAL append before
every applied record (the logging floor — unavoidable, since an unlogged
record is unrecoverable), and a full atomic snapshot every
``checkpoint_every`` records (tunable — it only bounds how much WAL
recovery replays).  The acceptance claim gates the tunable part: at the
default cadence (``checkpoint_every = 2 x window``, i.e. the window
content fully turns over twice between snapshots) the snapshotting run stays
within :data:`OVERHEAD_BUDGET` of the same stream running WAL-only, and
recovery after a hard kill replays at most ``checkpoint_every`` records.

The three runs are timed in :data:`ROUNDS` interleaved rounds: every
round runs the plain, WAL-only and checkpointed streams, in alternating
order, in fresh directories.  Each phase reports the median of its
rounds and their spread, and both the gated overhead and the total tax
are medians of per-round ratios, so a host that slows down mid-run moves
both sides of a ratio alike.  One timed run per phase
read anywhere from -27% to +51% overhead on a shared host, which let
noise, not the bar, decide ``--check``.

Snapshot cost scales with *window state size* (~2.5 us/slot of window to
serialize and publish) while the per-record floor is flat, so the
overhead ratio is ~``0.15 x window / checkpoint_every`` — the default
cadence sits just under the bar by construction, and the benchmark
verifies the constant has not regressed.

The plain in-memory miner is reported alongside as the total durability
tax (logging floor included) — informational, not gated: a flushed write
per record can never be within 10% of a microsecond-scale in-memory
append, and pretending otherwise would just gate on disk speed.

All three runs must produce byte-identical window output — the benchmark
diffs the JSONL files (and the post-kill resume) before reporting any
timing, so a timing win can never hide a semantic regression.

Run standalone (writes ``BENCH_durability.json`` at the repo root)::

    PYTHONPATH=src python benchmarks/bench_durability.py            # full
    PYTHONPATH=src python benchmarks/bench_durability.py --quick    # CI smoke

``--check`` enforces the acceptance bars: checkpoint overhead within
:data:`OVERHEAD_BUDGET` (a CI-safe :data:`OVERHEAD_BUDGET_QUICK` on quick
runs), bounded replay on recovery, and byte-identical resumed output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.durability import DurableStream
from repro.streaming import StreamingMiner
from repro.streaming.windows import window_to_dict
from repro.synth.generator import generate_series

PERIOD = 10
MIN_CONF = 0.6

#: Slot density knobs: ~6 features/slot so mining does real work per record.
MAX_PAT_LENGTH = 8
F1_SIZE = 16
NOISE_RATE = 5.0

WINDOW_FULL = 4_000
SLIDE_FULL = 400
WINDOWS_FULL = 34

WINDOW_QUICK = 2_000
SLIDE_QUICK = 200
WINDOWS_QUICK = 16

#: Snapshot cadence: the window content turns over twice between snapshots.
CHECKPOINT_FACTOR = 2.0

#: Full-run acceptance: snapshotting within 10% of the WAL-only run.
OVERHEAD_BUDGET = 0.10

#: CI-safe bar for --quick --check on noisy shared hosts.
OVERHEAD_BUDGET_QUICK = 0.35

#: Kill point for the recovery phase, as a fraction of the feed.
KILL_FRACTION = 0.6

#: checkpoint_every stand-in that never snapshots mid-run.
NEVER = 10**9

#: Timing rounds: each round runs the plain, WAL-only and checkpointed
#: streams once, in alternating order; the overhead and the total tax
#: are medians of the per-round ratios.
ROUNDS = 9


def _workload(window: int, slide: int, windows: int, seed: int) -> list:
    """Planted-pattern slot records long enough for ``windows`` emissions."""
    length = window + (windows - 1) * slide
    series = generate_series(
        length, PERIOD, MAX_PAT_LENGTH,
        f1_size=F1_SIZE, noise_rate=NOISE_RATE, seed=seed,
    ).series
    return [sorted(slot) for slot in series]


def _plain_run(records: list, window: int, slide: int, out: Path) -> float:
    """One in-memory run writing the same JSONL output (no durability)."""
    miner = StreamingMiner(
        period=PERIOD, window=window, slide=slide, min_conf=MIN_CONF
    )
    wall = time.perf_counter()
    with out.open("w", encoding="utf-8") as handle:
        for record in records:
            result = miner.append(frozenset(record))
            if result is not None:
                handle.write(json.dumps(window_to_dict(result)) + "\n")
                handle.flush()
    return time.perf_counter() - wall


def _durable_run(
    records: list,
    window: int,
    slide: int,
    directory: Path,
    out: Path,
    checkpoint_every: int,
) -> float:
    """One durable run's wall time; ``checkpoint_every=NEVER`` is the
    WAL-only baseline."""
    stream = DurableStream(
        directory,
        period=PERIOD,
        window=window,
        slide=slide,
        min_conf=MIN_CONF,
        checkpoint_every=checkpoint_every,
        out=out,
    )
    wall = time.perf_counter()
    for record in records:
        stream.feed(record)
    wall = time.perf_counter() - wall
    stream.finish()
    return wall


def _timed_phases(
    records: list,
    window: int,
    slide: int,
    root: Path,
    checkpoint_every: int,
) -> tuple[list[dict], dict[str, list[float]], bytes]:
    """The plain, WAL-only and checkpointed phases over :data:`ROUNDS` rounds.

    Every round runs the three streams in fresh directories, in
    alternating order, and every run's output must equal the first run's.
    Returns the phase rows (median wall time and spread), each phase's
    per-round wall times, and the common output.
    """
    cadences = {
        "plain": None, "wal-only": NEVER, "checkpointed": checkpoint_every
    }
    walls: dict[str, list[float]] = {label: [] for label in cadences}
    reference = None
    for index in range(ROUNDS):
        order = list(cadences) if index % 2 == 0 else list(cadences)[::-1]
        for label in order:
            out = root / f"{label}-{index}.jsonl"
            if cadences[label] is None:
                wall = _plain_run(records, window, slide, out)
            else:
                wall = _durable_run(
                    records, window, slide, root / f"{label}-{index}", out,
                    cadences[label],
                )
            output = out.read_bytes()
            if reference is None:
                reference = output
            elif output != reference:
                raise AssertionError(
                    f"{label} output differs from the other streams' — "
                    "timing is meaningless; fix the semantics first"
                )
            walls[label].append(wall)
    windows = reference.count(b"\n")
    phases = []
    for label, samples in walls.items():
        wall = statistics.median(samples)
        phases.append({
            "phase": label,
            "windows": windows,
            "wall_s": round(wall, 3),
            "wall_s_spread": [round(min(samples), 3), round(max(samples), 3)],
            "records_per_s": round(len(records) / wall, 1),
        })
    return phases, walls, reference


def _ratios(slower: list[float], faster: list[float]) -> list[float]:
    """Per-round ``slower / faster - 1``."""
    return [a / max(b, 1e-9) - 1.0 for a, b in zip(slower, faster)]


def _recovery_phase(
    records: list,
    window: int,
    slide: int,
    directory: Path,
    out: Path,
    checkpoint_every: int,
    reference: bytes,
) -> dict:
    """Hard-kill a durable run mid-feed, then time the resume."""
    stream = DurableStream(
        directory,
        period=PERIOD,
        window=window,
        slide=slide,
        min_conf=MIN_CONF,
        checkpoint_every=checkpoint_every,
        out=out,
    )
    kill_at = int(len(records) * KILL_FRACTION)
    for record in records[:kill_at]:
        stream.feed(record)
    # Abandon the handles the way SIGKILL does: no final snapshot, no
    # graceful close (appends flush per record, so nothing is dropped
    # that a kill would have kept).
    stream._ckpt._handle.close()
    stream._ckpt._handle = None
    stream._sink._handle.close()

    started = time.perf_counter()
    resumed = DurableStream(
        directory,
        period=PERIOD,
        window=window,
        slide=slide,
        min_conf=MIN_CONF,
        checkpoint_every=checkpoint_every,
        out=out,
    )
    recovery_s = time.perf_counter() - started
    replayed = len(resumed.recovery.tail)
    for record in records[resumed.records_logged :]:
        resumed.feed(record)
    resumed.finish()
    return {
        "phase": "recovery",
        "kill_at_record": kill_at,
        "recovery_ms": round(recovery_s * 1e3, 2),
        "wal_records_replayed": replayed,
        "replay_bound": checkpoint_every,
        "output_identical": out.read_bytes() == reference,
    }


def run_benchmark(
    window: int = WINDOW_FULL,
    slide: int = SLIDE_FULL,
    windows: int = WINDOWS_FULL,
    checkpoint_every: int | None = None,
    seed: int = 0,
) -> dict:
    """Time plain / WAL-only / snapshotting, then a kill/resume."""
    if checkpoint_every is None:
        checkpoint_every = int(window * CHECKPOINT_FACTOR)
    records = _workload(window, slide, windows, seed)
    with tempfile.TemporaryDirectory(prefix="bench-durability-") as scratch:
        root = Path(scratch)
        phases, walls, reference = _timed_phases(
            records, window, slide, root, checkpoint_every
        )
        recovery = _recovery_phase(
            records, window, slide, root / "ckpt-kill",
            root / "resumed.jsonl", checkpoint_every, reference,
        )
    overheads = _ratios(walls["checkpointed"], walls["wal-only"])
    overhead = statistics.median(overheads)
    total_tax = statistics.median(_ratios(walls["checkpointed"], walls["plain"]))
    budget = (
        OVERHEAD_BUDGET if window >= WINDOW_FULL else OVERHEAD_BUDGET_QUICK
    )
    return {
        "benchmark": "durability",
        "workload": {
            "generator": "synthetic planted",
            "period": PERIOD,
            "min_conf": MIN_CONF,
            "max_pat_length": MAX_PAT_LENGTH,
            "f1_size": F1_SIZE,
            "noise_rate": NOISE_RATE,
            "window": window,
            "slide": slide,
            "windows": windows,
            "length": len(records),
            "checkpoint_every": checkpoint_every,
            "seed": seed,
            "rounds": ROUNDS,
        },
        "phases": [*phases, recovery],
        "checkpoint_overhead_pct": round(overhead * 100.0, 1),
        "checkpoint_overhead_spread_pct": [
            round(min(overheads) * 100.0, 1),
            round(max(overheads) * 100.0, 1),
        ],
        "overhead_budget_pct": round(budget * 100.0, 1),
        "total_durability_tax_pct": round(total_tax * 100.0, 1),
        "within_budget": overhead <= budget,
    }


def print_report(outcome: dict) -> None:
    workload = outcome["workload"]
    print(
        f"durability: window={workload['window']} slide={workload['slide']} "
        f"checkpoint_every={workload['checkpoint_every']} over "
        f"{workload['length']} records ({workload['windows']} windows)"
    )
    print(
        f"{'phase':<14} {'windows':>7} {'wall s':>8} {'records/s':>10} "
        f"  spread over {workload['rounds']} rounds"
    )
    for row in outcome["phases"]:
        if row["phase"] == "recovery":
            continue
        low, high = row["wall_s_spread"]
        print(
            f"{row['phase']:<14} {row['windows']:>7} {row['wall_s']:>8} "
            f"{row['records_per_s']:>10}  {low}-{high} s"
        )
    low, high = outcome["checkpoint_overhead_spread_pct"]
    print(
        f"checkpoint overhead: {outcome['checkpoint_overhead_pct']}% vs "
        f"WAL-only, median of {workload['rounds']} rounds ({low}% to "
        f"{high}%; budget {outcome['overhead_budget_pct']}%); total "
        f"durability tax vs in-memory: {outcome['total_durability_tax_pct']}%"
    )
    recovery = outcome["phases"][-1]
    print(
        f"recovery after kill at record {recovery['kill_at_record']}: "
        f"{recovery['recovery_ms']} ms, "
        f"{recovery['wal_records_replayed']} WAL records replayed "
        f"(bound {recovery['replay_bound']}), "
        f"output identical: {recovery['output_identical']}"
    )


def check_report(outcome: dict) -> None:
    """The acceptance bars ``--check`` (and the pytest smoke) enforces."""
    if not outcome["within_budget"]:
        raise AssertionError(
            f"checkpoint overhead {outcome['checkpoint_overhead_pct']}% "
            f"exceeds the {outcome['overhead_budget_pct']}% budget"
        )
    recovery = outcome["phases"][-1]
    if recovery["wal_records_replayed"] > recovery["replay_bound"]:
        raise AssertionError(
            f"recovery replayed {recovery['wal_records_replayed']} WAL "
            f"records, above the checkpoint_every bound "
            f"{recovery['replay_bound']}"
        )
    if not recovery["output_identical"]:
        raise AssertionError(
            "post-kill resume did not reproduce the uninterrupted output"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="scaled-down CI geometry (window 2k, slide 200)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail unless overhead and recovery meet the budgets",
    )
    parser.add_argument("--window", type=int, default=None)
    parser.add_argument("--slide", type=int, default=None)
    parser.add_argument("--windows", type=int, default=None)
    parser.add_argument("--checkpoint-every", type=int, default=None)
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="where to write the JSON report "
        "(default: BENCH_durability.json next to the repo, full runs only)",
    )
    args = parser.parse_args(argv)

    outcome = run_benchmark(
        window=args.window or (WINDOW_QUICK if args.quick else WINDOW_FULL),
        slide=args.slide or (SLIDE_QUICK if args.quick else SLIDE_FULL),
        windows=args.windows
        or (WINDOWS_QUICK if args.quick else WINDOWS_FULL),
        checkpoint_every=args.checkpoint_every,
    )
    print_report(outcome)

    json_path = args.json
    if json_path is None and not args.quick:
        json_path = (
            Path(__file__).resolve().parent.parent / "BENCH_durability.json"
        )
    if json_path is not None:
        Path(json_path).write_text(
            json.dumps(outcome, indent=2) + "\n", encoding="utf-8"
        )
        print(f"report written to {json_path}")
    if args.check:
        check_report(outcome)
        print("acceptance bars: OK")
    return 0


# -- pytest smoke ------------------------------------------------------------


def test_durable_stream_overhead_and_recovery(report):
    """Checkpoint tax within budget, recovery bounded, output identical."""
    outcome = run_benchmark(window=1_000, slide=100, windows=15)
    check_report(outcome)
    recovery = outcome["phases"][-1]
    report(
        f"Durability: window {outcome['workload']['window']}, "
        f"checkpoint every {outcome['workload']['checkpoint_every']} "
        f"records -> {outcome['checkpoint_overhead_pct']}% checkpoint "
        f"overhead ({outcome['total_durability_tax_pct']}% total tax), "
        f"recovery {recovery['recovery_ms']} ms "
        f"({recovery['wal_records_replayed']} records replayed)",
        ["phase", "windows", "wall s", "records/s"],
        [
            (row["phase"], row["windows"], row["wall_s"],
             row["records_per_s"])
            for row in outcome["phases"]
            if row["phase"] != "recovery"
        ],
    )


if __name__ == "__main__":
    sys.exit(main())
