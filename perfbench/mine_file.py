"""Workload ``mine-file``: ``ppm mine`` on fresh Figure 2 series files.

Closed loop, one op at a time.  Each op reads a file this process has not
read before (``load_series`` -> ``PartialPeriodicMiner(series, 0.64).mine(50)``
-> ``dumps_result``); on the loaded series it then runs ``mine_range`` over
periods 48..52 (Algorithm 3.4) and ``mine(50, workers=2)``.  Defaults only:
no call passes ``kernel=`` or ``encode=``.

The op files are one seeded Figure 2 series (p=50, MAX-PAT-LENGTH 6,
|F1|=12, alphabet 100; 100k slots rather than the paper's LENGTH=500k,
so that a run holds ~20 op cycles instead of 4, enough for its medians
to be steady) written out under a different seeded permutation of its
feature names each: every file has new content
(so no content-keyed cache can answer it) and the same mining work, and
one Apriori run (Algorithm 3.1) per period on the base series, relabelled,
is the reference for every file.  A host-speed mark (``common.HostSpeed``)
brackets every timed call, and the end-to-end metrics are the
host-normalized timings.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

from common import (
    CACHE,
    CheckFailed,
    HostSpeed,
    Outcome,
    Tracer,
    checked,
    child_env,
    peak_rss_mb,
    slow_half_mean,
    write_json_atomic,
)

PERIOD = 50
MIN_CONF = 0.64
MAX_PAT_LENGTH = 6
RANGE = (48, 52)
WORKERS = 2

#: Slots per series file, by scale.
LENGTH = {"full": 100_000, "smoke": 20_000}
#: Seconds one op cycle takes at full scale on a 2-CPU host (sizes the
#: number of files prepared per run).
CYCLE_S = {"full": 1.2, "smoke": 0.1}
#: Set-up samples at the start, and one after every SETUP_EVERY cycles
#: (a fresh interpreter's import time drifts with the host's disk and
#: CPU; spreading the samples over the run steadies their median).
SETUP_REPEATS = 3
SETUP_EVERY = 4
#: A short prefix of the base series, mined once untimed so lazy imports
#: and pool start-up are paid before the first timed op.
WARMUP = "warmup.txt"
WARMUP_SLOTS = 5_000

IMPORT_SNIPPET = (
    "import time\n"
    "t = time.perf_counter()\n"
    "from repro.timeseries.io import load_series\n"
    "from repro.core.miner import PartialPeriodicMiner\n"
    "from repro.core.serialize import dumps_result\n"
    "print(time.perf_counter() - t)\n"
)


def files_needed(seconds: float, scale: str) -> int:
    return max(3, math.ceil(seconds / CYCLE_S[scale]) + 2)


def cache_dir(seed: int, scale: str) -> Path:
    return CACHE / "mine-file" / f"{scale}-{LENGTH[scale]}-seed{seed}"


def prepare(seed: int, seconds: float, scale: str) -> None:
    """Write the op files and the Apriori references (idempotent)."""
    from repro.core.apriori import mine_single_period_apriori
    from repro.synth.workloads import figure2_series
    from repro.timeseries.io import save_series

    directory = cache_dir(seed, scale)
    manifest_path = directory / "manifest.json"
    wanted = files_needed(seconds, scale)
    manifest = (
        json.loads(manifest_path.read_text()) if manifest_path.exists()
        else None
    )
    if (manifest is not None and len(manifest["files"]) >= wanted
            and (directory / WARMUP).exists()):
        return
    directory.mkdir(parents=True, exist_ok=True)
    base = figure2_series(MAX_PAT_LENGTH, length=LENGTH[scale], seed=seed)
    series = base.series
    if manifest is None:
        reference = {}
        for period in range(RANGE[0], RANGE[1] + 1):
            result = mine_single_period_apriori(series, period, MIN_CONF)
            reference[str(period)] = {
                "num_periods": result.num_periods,
                "patterns": [
                    [sorted(pattern.letters), count]
                    for pattern, count in result.items()
                ],
            }
        manifest = {"reference": reference, "files": []}
    if not (directory / WARMUP).exists():
        save_series(series[:WARMUP_SLOTS], directory / WARMUP)
    # Each op file is the saved base series with every line relabelled and
    # re-sorted: the bytes save_series writes for the relabelled series.
    base_path = directory / "base.txt"
    save_series(series, base_path)
    header, *lines = base_path.read_text(encoding="utf-8").splitlines()
    base_path.unlink()
    slots = [line.split() for line in lines]
    features = sorted(set().union(*series))
    for index in range(len(manifest["files"]), wanted):
        rng = np.random.default_rng([seed, index])
        mapping = dict(zip(features, rng.permutation(features).tolist()))
        body = "\n".join(
            " ".join(sorted(mapping[f] for f in slot)) for slot in slots
        )
        name = f"op{index:03d}.txt"
        (directory / name).write_text(f"{header}\n{body}\n",
                                      encoding="utf-8")
        manifest["files"].append({"name": name, "mapping": mapping})
    write_json_atomic(manifest_path, manifest)


def _expected(manifest: dict, index: int, period: int) -> tuple[int, set]:
    from repro.core.pattern import Pattern

    mapping = manifest["files"][index]["mapping"]
    reference = manifest["reference"][str(period)]
    patterns = {
        (
            str(Pattern.from_letters(
                period, [(o, mapping[f]) for o, f in letters]
            )),
            count,
        )
        for letters, count in reference["patterns"]
    }
    return reference["num_periods"], patterns


def _check(result_periods: int, got: set, expected: tuple[int, set]) -> None:
    periods, patterns = expected
    if result_periods != periods:
        raise CheckFailed(f"num_periods {result_periods} != {periods}")
    if got != patterns:
        missing = sorted(patterns - got)[:3]
        extra = sorted(got - patterns)[:3]
        raise CheckFailed(
            f"{len(got)} patterns vs {len(patterns)} expected; "
            f"missing {missing}, unexpected {extra}"
        )


def _result_set(result) -> set:
    return {(str(pattern), count) for pattern, count in result.items()}


def setup_sample(speed: HostSpeed) -> tuple[float, float]:
    """Import time of the mining entry points in a fresh interpreter,
    with the perf_counter at its midpoint; a host-speed mark follows."""
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_SNIPPET], env=child_env(),
        capture_output=True, text=True, timeout=120, check=True,
    )
    middle = (started + time.perf_counter()) / 2
    speed.mark()
    return float(done.stdout.strip().splitlines()[-1]), middle


def run(
    seed: int, seconds: float, scale: str, trace: bool, corrupt: bool,
    tracer: Tracer,
) -> Outcome:
    from repro.core.miner import PartialPeriodicMiner
    from repro.core.serialize import dumps_result
    from repro.kernels.profile import MiningProfile
    from repro.timeseries.io import load_series

    outcome = Outcome()
    directory = cache_dir(seed, scale)
    manifest = json.loads((directory / "manifest.json").read_text())
    # A reference task as large as an op's working set: a 4k-line one,
    # which fits in the core's own caches, sped up 1.3x when the host did
    # while the ops sped up 1.2x.
    speed = HostSpeed(repeats=1, lines=12_000)
    speed.mark()
    setup = [setup_sample(speed) for _ in range(SETUP_REPEATS)]

    warm = load_series(directory / WARMUP)
    dumps_result(PartialPeriodicMiner(warm, MIN_CONF).mine(PERIOD))
    PartialPeriodicMiner(warm, MIN_CONF).mine_range(*RANGE)
    PartialPeriodicMiner(warm, MIN_CONF).mine(PERIOD, workers=WORKERS)
    del warm

    op_s: dict[bool, list[float]] = {False: [], True: []}
    slots_total = 0
    #: Untraced timings as (seconds, perf_counter at their midpoint).
    timed: dict[str, list[tuple[float, float]]] = {
        "op": [], "mine_range": [], "mine_workers2": [],
    }
    layer: dict[str, list[float]] = {}

    def note(name: str, value: float) -> None:
        layer.setdefault(name, []).append(value)

    speed.mark()
    started = time.perf_counter()
    cycles: list[float] = []
    for index in range(len(manifest["files"])):
        # Start a cycle only if one more fits in the run's seconds.
        elapsed = time.perf_counter() - started
        if index >= (2 if trace else 1) and (
            elapsed >= seconds
            or (cycles and elapsed + median(cycles) > seconds)
        ):
            break
        cycle_started = time.perf_counter()
        # Traced runs alternate untraced and traced cycles, so the two
        # halves see the same files and the same drift.
        traced = trace and index % 2 == 1
        path = directory / manifest["files"][index]["name"]
        profile = MiningProfile() if traced else None
        series = result = None
        with checked(outcome, f"mine {path.name}"):
            if traced:
                with tracer.span("op", rid=index) as root:
                    with tracer.span("io.load_series"):
                        series = load_series(path)
                    with tracer.span("core.mine"):
                        result = PartialPeriodicMiner(series, MIN_CONF).mine(
                            PERIOD, profile=profile
                        )
                    with tracer.span("core.serialize.dumps"):
                        text = dumps_result(result)
                op_s[True].append(root.end - root.start)
            else:
                t0 = time.perf_counter()
                series = load_series(path)
                result = PartialPeriodicMiner(series, MIN_CONF).mine(PERIOD)
                text = dumps_result(result)
                t1 = time.perf_counter()
                op_s[False].append(t1 - t0)
                timed["op"].append((t1 - t0, (t0 + t1) / 2))
                slots_total += len(series)
            if corrupt and index == 0:
                text = _corrupt_document(text)
            document = json.loads(text)
            _check(
                document["num_periods"],
                {(row["pattern"], row["count"])
                 for row in document["patterns"]},
                _expected(manifest, index, PERIOD),
            )
        speed.mark()
        if series is None:
            continue
        if traced and result is not None and profile is not None:
            stages = {s.name: s.elapsed_s for s in profile.stages}
            note("io.slots", len(series))
            note("hitset.scan1_s", stages.get("scan1", 0.0))
            note("hitset.scan2_s", stages.get("scan2", 0.0))
            note("hitset.scans", result.stats.scans)
            note("hitset.distinct_hit_ratio",
                 profile.counters.get("distinct_hits", 0)
                 / max(1, result.num_periods))
            note("tree.insert_s", stages.get("tree", 0.0))
            note("tree.derive_s", stages.get("derive", 0.0))
            note("tree.nodes", result.stats.tree_nodes)
            note("tree.candidates", sum(result.stats.candidate_counts.values()))
            note("profile.total_s", profile.total_s)

        miner = PartialPeriodicMiner(series, MIN_CONF)
        with checked(outcome, f"mine_range {path.name}"):
            t0 = time.perf_counter()
            if traced:
                with tracer.span("multiperiod.mine_range", rid=index):
                    ranged = miner.mine_range(*RANGE)
            else:
                ranged = miner.mine_range(*RANGE)
            t1 = time.perf_counter()
            if not traced:
                timed["mine_range"].append((t1 - t0, (t0 + t1) / 2))
            else:
                note("multiperiod.scans", ranged.scans)
            for period in ranged.periods:
                _check(ranged[period].num_periods, _result_set(ranged[period]),
                       _expected(manifest, index, period))
            if ranged.periods != list(range(RANGE[0], RANGE[1] + 1)):
                raise CheckFailed(f"mine_range periods {ranged.periods}")

        speed.mark()
        with checked(outcome, f"mine workers={WORKERS} {path.name}"):
            t0 = time.perf_counter()
            if traced:
                with tracer.span("engine.mine_workers2", rid=index):
                    parallel = miner.mine(PERIOD, workers=WORKERS)
            else:
                parallel = miner.mine(PERIOD, workers=WORKERS)
            t1 = time.perf_counter()
            if not traced:
                timed["mine_workers2"].append((t1 - t0, (t0 + t1) / 2))
            elif parallel.engine is not None:
                engine = parallel.engine
                note("engine.partition_s", engine.partition_s)
                note("engine.merge_s", engine.merge_s)
                note("engine.shard_max_s",
                     max((s.elapsed_s for s in engine.shards), default=0.0))
                note("engine.degradations", len(engine.degradations))
            _check(parallel.num_periods, _result_set(parallel),
                   _expected(manifest, index, PERIOD))
        del series, result, miner
        speed.mark()
        if index % SETUP_EVERY == SETUP_EVERY - 1:
            setup.append(setup_sample(speed))
        cycles.append(time.perf_counter() - cycle_started)

    outcome.notes["ops"] = len(op_s[False]) + len(op_s[True])
    if not trace:
        if not all(timed.values()):
            raise RuntimeError("no complete op cycle fitted in the run")
        normalized = {
            name: [speed.normalize(value, at) for value, at in samples]
            for name, samples in timed.items()
        }
        outcome.metric("setup_s", median(
            speed.normalize(value, at) for value, at in setup
        ), "s")
        outcome.metric("op_typical_ms", median(normalized["op"]) * 1e3,
                       "ms")
        outcome.metric("op_tail_ms", slow_half_mean(normalized["op"]) * 1e3,
                       "ms")
        outcome.metric("throughput_per_s",
                       slots_total / sum(normalized["op"]), "1/s")
        outcome.metric("second_op_ms",
                       median(normalized["mine_range"]) * 1e3, "ms")
        outcome.metric("third_op_ms",
                       median(normalized["mine_workers2"]) * 1e3, "ms")
        outcome.notes["samples"] = {
            name: len(samples) for name, samples in timed.items()
        }
        outcome.notes["raw_median_ms"] = {
            name: round(median(value for value, _ in samples) * 1e3, 3)
            for name, samples in timed.items()
        }
        outcome.notes["host_speed"] = speed.summary()
    else:
        _layer_metrics(outcome, tracer, layer, op_s)
    outcome.metric("peak_rss_mb", peak_rss_mb(), "MiB")
    return outcome


def _layer_metrics(
    outcome: Outcome, tracer: Tracer, layer: dict[str, list[float]],
    op_s: dict[bool, list[float]],
) -> None:
    def mean(name: str) -> float:
        values = layer.get(name, [])
        return sum(values) / len(values) if values else 0.0

    def per_call(span: str) -> float:
        count = tracer.count(span)
        return tracer.total(span) / count if count else 0.0

    outcome.metric("io.load_s", per_call("io.load_series"), "s")
    outcome.metric("io.slots", mean("io.slots"), "count")
    for name in ("hitset.scan1_s", "hitset.scan2_s", "tree.insert_s",
                 "tree.derive_s", "engine.partition_s", "engine.merge_s",
                 "engine.shard_max_s"):
        outcome.metric(name, mean(name), "s")
    for name in ("hitset.scans", "tree.nodes", "tree.candidates",
                 "multiperiod.scans", "engine.degradations"):
        outcome.metric(name, mean(name), "count")
    outcome.metric("hitset.distinct_hit_ratio",
                   mean("hitset.distinct_hit_ratio"), "ratio")
    outcome.metric("multiperiod.mine_s",
                   per_call("multiperiod.mine_range"), "s")
    outcome.metric("serialize.dumps_s", per_call("core.serialize.dumps"), "s")
    # Layer sum against the traced total: every traced root span, against
    # the layer-level work inside it (the mine span's own time is split by
    # its profile stages; what the profile leaves out is unattributed).
    traced_total = (
        tracer.total("op") + tracer.total("multiperiod.mine_range")
        + tracer.total("engine.mine_workers2")
    )
    layer_sum = (
        tracer.total("io.load_series") + sum(layer.get("profile.total_s", []))
        + tracer.total("core.serialize.dumps")
        + tracer.total("multiperiod.mine_range")
        + tracer.total("engine.mine_workers2")
    )
    outcome.metric("trace.layer_share",
                   layer_sum / traced_total if traced_total else 0.0, "ratio")
    if op_s[False] and op_s[True]:
        outcome.metric("trace.overhead",
                       median(op_s[True]) / median(op_s[False]) - 1.0, "ratio")
    else:
        outcome.metric("trace.overhead", 0.0, "ratio")


def _corrupt_document(text: str) -> str:
    """The corruption self-test: one pattern count off by one."""
    document = json.loads(text)
    document["patterns"][0]["count"] += 1
    return json.dumps(document)
