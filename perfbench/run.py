"""The repository's end-to-end benchmark: one command, three workloads.

    python3 perfbench/run.py --workload mine-file --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is a separate run of the same workload and seed that records
spans around every call into a layer's public functions, adds the
program's own counters (``MiningStats``, ``MiningProfile``, ``EngineStats``,
``MiningApp.stats()``, ``DurableStream.stats()``), and reports the
per-layer metrics, the layer sum against the traced total, and the
tracing overhead.  Metric names, units and bounds live in
``BENCHMARK.json``; the layer -> metric -> workload predictions in
``perfbench/predictions.json``.

Inputs are generated from ``--seed`` (cached under ``.bench_cache`` by
seed and scale, built in a child process so the measuring process's peak
RSS is the workload's own).  Every output is checked against a
reference; a mismatch, an exception or a non-2xx reply fails the op.
The last stdout line is the JSON result; the exit code is 0 only when
every op passed.  ``--corrupt`` is the self-test: it changes one pattern
count in one result, which the check must catch (exit 1).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mine-file", "serve-mixed", "stream-durable")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help="input sizes; 'smoke' is for the benchmark's own test",
    )
    parser.add_argument(
        "--corrupt", action="store_true",
        help="self-test: corrupt one result; the check must fail the run",
    )
    parser.add_argument(
        "--prepare", action="store_true",
        help="only build the seeded inputs and references (child step)",
    )
    return parser.parse_args(argv)


def _module(workload: str):
    if workload == "mine-file":
        import mine_file as module
    elif workload == "serve-mixed":
        import serve_mixed as module
    else:
        import stream_durable as module
    return module


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no program source at {ROOT / 'src' / 'repro'}; run from "
            "a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    module = _module(args.workload)
    if args.prepare:
        module.prepare(args.seed, args.seconds, args.scale)
        return 0

    # Inputs and references are built in a child so their memory never
    # shows in this process's VmHWM.
    prepared = time.perf_counter()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *argv, "--prepare"],
        check=True, timeout=600,
    )
    prepare_s = time.perf_counter() - prepared

    import common

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    tracer = common.Tracer()
    steal, total = common.cpu_ticks()
    outcome = module.run(
        args.seed, args.seconds, args.scale, bool(args.trace), args.corrupt,
        tracer,
    )
    steal_end, total_end = common.cpu_ticks()
    # A VM's neighbours slow tail latencies first: keep the run's share.
    outcome.notes["cpu_steal_share"] = round(
        (steal_end - steal) / max(1, total_end - total), 4
    )
    metrics = {}
    for spec in declared:
        name = spec["name"]
        if name in outcome.metrics:
            value, unit = outcome.metrics[name]
        elif args.trace:
            # A layer this workload never reaches: no calls, no time.
            value, unit = 0.0, spec["unit"]
        else:
            raise RuntimeError(f"{args.workload} did not measure {name}")
        if unit != spec["unit"]:
            raise RuntimeError(f"{name}: unit {unit} != {spec['unit']}")
        metrics[name] = {"value": value, "unit": unit}

    env = common.environment(args.seed)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "scale": args.scale,
        "seconds": args.seconds,
        "env": env,
        "prepare_s": prepare_s,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "metrics": metrics,
        "notes": outcome.notes,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common.write_json_atomic(common.OUT / f"{stem}.json", record)
    if args.trace:
        tracer.dump(common.OUT / f"{stem}.spans.jsonl")

    # Each metric's workload-specific name, printed beside its value.
    aliases = {
        (target, workload): name
        for name, (target, workload) in json.loads(
            (HERE / "predictions.json").read_text()
        )["workload_metric_names"].items()
        if workload == args.workload
    }
    print(f"env {json.dumps(env)}")
    for name, metric in metrics.items():
        alias = aliases.get((name, args.workload), "")
        print(f"{name:<34} {metric['value']:>14.6g} {metric['unit']:<6} "
              f"{alias}".rstrip())
    for name, value in outcome.notes.items():
        print(f"# {name}: {json.dumps(value)}")
    for failure in outcome.failures:
        print(f"FAILED {failure}")
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
