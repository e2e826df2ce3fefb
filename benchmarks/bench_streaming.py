"""Steady-state streaming mining vs naive per-window re-mining.

The streaming engine's cost claim: once the first window has filled, a
window that slides by ``slide`` slots costs work proportional to the
*delta* (segments entering plus segments retiring, through the
decrement retirement's delta-maintained tree), while re-mining every
window from scratch costs work proportional to the whole window.  At the
acceptance geometry — a 50k-slot window sliding by 1k slots — that gap
must show up as at least a :data:`SPEEDUP_BUDGET`-fold wall-clock win.

Both sides produce byte-identical per-window patterns (pinned by
``tests/test_streaming.py``); this benchmark only times them.

Run standalone (writes ``BENCH_streaming.json`` at the repo root)::

    PYTHONPATH=src python benchmarks/bench_streaming.py            # full
    PYTHONPATH=src python benchmarks/bench_streaming.py --quick    # CI smoke

``--check`` enforces the acceptance bar: decrement speedup >=
:data:`SPEEDUP_BUDGET` at full geometry, and a CI-safe
:data:`SPEEDUP_BUDGET_QUICK` on scaled-down quick runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core.hitset import mine_single_period_hitset
from repro.streaming import StreamingMiner
from repro.synth.generator import generate_series
from repro.timeseries.feature_series import FeatureSeries

PERIOD = 10
MIN_CONF = 0.6

#: Acceptance geometry: a 50k-slot window sliding by 1k slots.
WINDOW_FULL = 50_000
SLIDE_FULL = 1_000
WINDOWS_FULL = 20

WINDOW_QUICK = 5_000
SLIDE_QUICK = 500
WINDOWS_QUICK = 10

#: Full-run acceptance: decrement at least this far ahead of re-mining.
SPEEDUP_BUDGET = 5.0

#: CI-safe bar for --quick --check on shared hosts.
SPEEDUP_BUDGET_QUICK = 2.0


def _percentile(samples: list[float], q: float) -> float:
    """The q-th percentile (nearest-rank) of a non-empty sample list."""
    ranked = sorted(samples)
    index = min(len(ranked) - 1, max(0, round(q / 100.0 * len(ranked)) - 1))
    return ranked[index]


def _workload(window: int, slide: int, windows: int, seed: int):
    """A planted-pattern series long enough for ``windows`` emissions."""
    length = window + (windows - 1) * slide
    return generate_series(length, PERIOD, 4, f1_size=6, seed=seed).series


def _stream_phase(series: FeatureSeries, window: int, slide: int) -> dict:
    """Feed the whole series once; time every window-closing append."""
    miner = StreamingMiner(
        period=PERIOD,
        window=window,
        slide=slide,
        min_conf=MIN_CONF,
    )
    emit_latencies: list[float] = []
    wall = time.perf_counter()
    for slot in series:
        started = time.perf_counter()
        emitted = miner.append(slot)
        if emitted is not None:
            emit_latencies.append((time.perf_counter() - started) * 1e3)
    wall = time.perf_counter() - wall
    # Steady state excludes the first window: it pays the full fill, every
    # later one only the slide delta.
    steady = emit_latencies[1:]
    return {
        "phase": "stream-decrement",
        "windows": len(emit_latencies),
        "wall_s": round(wall, 3),
        "slots_per_s": round(len(series) / wall, 1),
        "steady_total_s": round(sum(steady) / 1e3, 3),
        "emit_p50_ms": round(_percentile(steady, 50), 3),
        "emit_p99_ms": round(_percentile(steady, 99), 3),
    }


def _naive_phase(series: FeatureSeries, window: int, slide: int) -> dict:
    """Re-mine every window's slice from scratch (the baseline)."""
    slots = list(series)
    latencies: list[float] = []
    index = 0
    wall = time.perf_counter()
    while index * slide + window <= len(slots):
        start = index * slide
        started = time.perf_counter()
        mine_single_period_hitset(
            FeatureSeries(slots[start : start + window]), PERIOD, MIN_CONF
        )
        latencies.append((time.perf_counter() - started) * 1e3)
        index += 1
    wall = time.perf_counter() - wall
    steady = latencies[1:]
    return {
        "phase": "naive-remine",
        "windows": len(latencies),
        "wall_s": round(wall, 3),
        "slots_per_s": round(len(slots) / wall, 1),
        "steady_total_s": round(sum(steady) / 1e3, 3),
        "emit_p50_ms": round(_percentile(steady, 50), 3),
        "emit_p99_ms": round(_percentile(steady, 99), 3),
    }


def run_benchmark(
    window: int = WINDOW_FULL,
    slide: int = SLIDE_FULL,
    windows: int = WINDOWS_FULL,
    seed: int = 0,
) -> dict:
    """Time the streaming miner and the naive baseline on one workload."""
    series = _workload(window, slide, windows, seed)
    stream = _stream_phase(series, window, slide)
    naive = _naive_phase(series, window, slide)
    speedups = {
        "decrement": round(
            naive["steady_total_s"] / max(stream["steady_total_s"], 1e-9), 1
        ),
    }
    budget = SPEEDUP_BUDGET if window >= WINDOW_FULL else SPEEDUP_BUDGET_QUICK
    return {
        "benchmark": "streaming",
        "workload": {
            "generator": "synthetic planted",
            "period": PERIOD,
            "min_conf": MIN_CONF,
            "window": window,
            "slide": slide,
            "windows": windows,
            "length": len(series),
            "seed": seed,
        },
        "phases": [stream, naive],
        "steady_state_speedup": speedups,
        "speedup_budget": budget,
        "within_budget": speedups["decrement"] >= budget,
    }


def print_report(outcome: dict) -> None:
    workload = outcome["workload"]
    print(
        f"streaming: window={workload['window']} slide={workload['slide']} "
        f"p={workload['period']} over {workload['length']} slots "
        f"({workload['windows']} windows)"
    )
    print(
        f"{'phase':<16} {'windows':>7} {'wall s':>8} {'slots/s':>10} "
        f"{'emit p50 ms':>12} {'emit p99 ms':>12}"
    )
    for row in outcome["phases"]:
        print(
            f"{row['phase']:<16} {row['windows']:>7} {row['wall_s']:>8} "
            f"{row['slots_per_s']:>10} {row['emit_p50_ms']:>12} "
            f"{row['emit_p99_ms']:>12}"
        )
    speedup = outcome["steady_state_speedup"]["decrement"]
    print(f"steady-state speedup (decrement): {speedup}x vs re-mining")


def check_report(outcome: dict) -> None:
    """The acceptance bar ``--check`` (and the pytest smoke) enforces."""
    speedup = outcome["steady_state_speedup"]["decrement"]
    budget = outcome["speedup_budget"]
    if speedup < budget:
        raise AssertionError(
            f"decrement steady-state speedup {speedup}x is below the "
            f"{budget}x budget"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="scaled-down CI geometry (window 5k, slide 500)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail unless the decrement speedup meets the budget",
    )
    parser.add_argument("--window", type=int, default=None)
    parser.add_argument("--slide", type=int, default=None)
    parser.add_argument("--windows", type=int, default=None)
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="where to write the JSON report "
        "(default: BENCH_streaming.json next to the repo, full runs only)",
    )
    args = parser.parse_args(argv)

    outcome = run_benchmark(
        window=args.window or (WINDOW_QUICK if args.quick else WINDOW_FULL),
        slide=args.slide or (SLIDE_QUICK if args.quick else SLIDE_FULL),
        windows=args.windows
        or (WINDOWS_QUICK if args.quick else WINDOWS_FULL),
    )
    print_report(outcome)

    json_path = args.json
    if json_path is None and not args.quick:
        json_path = (
            Path(__file__).resolve().parent.parent / "BENCH_streaming.json"
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


def test_streaming_beats_window_remining(report):
    """Delta maintenance beats re-mining even at smoke geometry."""
    outcome = run_benchmark(window=3_000, slide=300, windows=8)
    check_report(outcome)
    speedups = outcome["steady_state_speedup"]
    report(
        f"Streaming: window {outcome['workload']['window']}, "
        f"slide {outcome['workload']['slide']} -> "
        f"decrement {speedups['decrement']}x vs per-window re-mining",
        ["phase", "windows", "wall s", "slots/s", "emit p50 ms", "emit p99 ms"],
        [
            (
                row["phase"], row["windows"], row["wall_s"],
                row["slots_per_s"], row["emit_p50_ms"], row["emit_p99_ms"],
            )
            for row in outcome["phases"]
        ],
    )


if __name__ == "__main__":
    sys.exit(main())
