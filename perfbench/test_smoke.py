"""Smoke test of the benchmark itself: tiny inputs, one run per workload.

    python -m pytest perfbench/test_smoke.py

For each workload it runs the untraced and the traced run at smoke scale
and checks that every end-to-end metric prints with its unit and every
per-layer metric comes out of the traced run (non-zero for the layers the
workload is predicted to exercise), and that the corruption self-test
fails the output check.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((HERE / "predictions.json").read_text())
WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]

#: Per-layer metrics that may be 0 even where their layer does the work
#: (durability.wal_s is a difference of two timings, within noise at
#: smoke size).
MAY_BE_ZERO = {
    "durability.wal_s",
    "engine.degradations",
    "serve.rejected",
    "kernels.cache.evictions",
    "streaming.late_events",
    "trace.overhead",
}


def _run(workload: str, trace: int, *extra: str) -> tuple[int, list[str]]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace),
         "--scale", "smoke", *extra],
        capture_output=True, text=True, timeout=300,
    )
    return done.returncode, done.stdout.strip().splitlines()


def _exercised(workload: str) -> set[str]:
    return {
        name
        for prediction in PREDICTIONS["predictions"]
        if workload in prediction["most_work_in"]
        for name in prediction["per_layer"]
    } - MAY_BE_ZERO


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_with_units(workload: str) -> None:
    code, lines = _run(workload, 0)
    result = json.loads(lines[-1])
    assert code == 0, lines[-20:]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    for spec in BENCHMARK["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert math.isfinite(metric["value"]) and metric["value"] > 0
        assert any(
            line.split()[:1] == [spec["name"]] and spec["unit"] in line.split()
            for line in lines[:-1]
        ), spec["name"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert any(line.startswith("env ") for line in lines)
    if workload == "stream-durable":
        # The drift letter moves F1, so the tree-rebuild path runs.
        changes = [line for line in lines
                   if line.startswith("# drift_f1_changes_per_pass:")]
        assert changes and int(changes[0].split(":")[1]) > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_yields_every_per_layer_metric(workload: str) -> None:
    code, lines = _run(workload, 1)
    result = json.loads(lines[-1])
    assert code == 0, lines[-20:]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
    for name in _exercised(workload):
        assert result["metrics"][name]["value"] > 0, name
    assert result["metrics"]["trace.layer_share"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_result_fails_the_check(workload: str) -> None:
    code, lines = _run(workload, 0, "--corrupt")
    result = json.loads(lines[-1])
    assert code == 1
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any(line.startswith("FAILED ") for line in lines)


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    (tmp_path / "perfbench").mkdir()
    for path in HERE.iterdir():
        if path.is_file() and path.suffix in (".py", ".json"):
            (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()
