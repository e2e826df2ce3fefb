"""The segment store and its out-of-core mmap path vs. the in-memory miner.

Runs a packed-vocabulary variant of the Section 5 synthetic workload
(Figure 2 defaults — ``p = 50``, ``|F1| = 12``, MAX-PAT-LENGTH 6 — with
the noise alphabet trimmed so the ``(offset, feature)`` vocabulary fits
one ``uint64`` word per store row) and measures the two claims of the
segment store (:class:`repro.kernels.store.SegmentStore`), which mines
every store input:

* **scan path** — both scans as numpy ops over the store's rows: letter
  counting as one unpack-and-sum pass, hit collection as the distinct
  rows plus the shift/OR projection sweep, candidate verification as a
  broadcast subset reduction.  Timed as :func:`repro.core.hitset.mine_store`
  over a prebuilt store against a cold in-memory mine of the same series
  (:func:`in_memory_cold_mine`: its slot column built inside the timed
  mine), exact output equality enforced against a cold store mine
  (:func:`columnar_cold_mine`: slot column, store build and mine, all
  timed) and a cold per-candidate mine (:func:`legacy_cold_mine`).
* **out-of-core store** — a multi-million-slot series built into a
  store and written to a ``.seg`` file (``SegmentStore.from_series`` →
  ``to_file``; the timed build includes the slot column and the write),
  then mined from the mmap'd rows (``from_file`` → ``mine_store``) in a
  subprocess whose peak RSS never scales with the series: only the
  chunk buffer, the distinct-row table and the tree are resident.
  Letter-identical output to an in-memory mine of the same file is
  enforced.

Run standalone (writes ``BENCH_columnar.json`` at the repo root)::

    PYTHONPATH=src python benchmarks/bench_columnar.py            # full
    PYTHONPATH=src python benchmarks/bench_columnar.py --quick    # CI smoke

``--check`` exits non-zero when the store's scan path fails its speedup
bar (10x full, 3x quick), when any mining path diverges, or when the
out-of-core subprocess exceeds the RSS budget — the CI smoke gate
against silent kernel regressions.

Under pytest this module contributes an equivalence + speedup smoke test
so ``pytest benchmarks/`` keeps covering it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.core.candidates import generate_candidate_masks
from repro.core.hitset import mine_single_period_hitset, mine_store
from repro.core.maxpattern import find_frequent_one_patterns
from repro.core.pattern import Pattern
from repro.kernels.store import SegmentStore
from repro.synth.generator import SyntheticSpec
from repro.synth.workloads import FIGURE2_MIN_CONF, FIGURE2_PERIOD
from repro.tree.max_subpattern_tree import MaxSubpatternTree

#: Scan-path workload sizes: the paper's long length for the real
#: measurement, a small series for the --quick CI smoke run.
LENGTH_FULL = 500_000
LENGTH_QUICK = 30_000

#: Out-of-core workload sizes (slots).  The full run mines a 10M-slot
#: series from its row file; quick keeps the same shape at 1M slots.
OOC_SLOTS_FULL = 10_000_000
OOC_SLOTS_QUICK = 1_000_000

#: Peak-RSS budget (MiB) for the out-of-core mining subprocess.  The
#: interpreter plus numpy plus the mining state fit comfortably; a store
#: pulled wholesale into anonymous memory would not.
OOC_RSS_BUDGET_MB = 256

#: Speedup bars for --check: scan-path (mine_store over a prebuilt
#: store) vs. a cold in-memory mine of the same series.
SPEEDUP_BAR_FULL = 10.0
SPEEDUP_BAR_QUICK = 3.0

#: Timing rounds: each round times the cold columnar, cold in-memory and
#: store mines once, in turn, and each side is the median of its rounds.
REPEATS = 9

#: The Figure 2 shape with a packed vocabulary: 12 F1 letters plus one
#: noise feature spread over the 50 offsets stays within 64 letters.
PACKED_ALPHABET = 13


def _interleaved_median(rounds: int, **fns) -> dict[str, float]:
    """Median-of-``rounds`` wall time of each function, by name.

    Every round times each function once, in turn, so a host that speeds
    up or slows down during the run moves every side of a ratio alike
    instead of the side that happened to be timed then.  The median, not
    the best round, is kept: one lucky ~1 ms store mine would otherwise
    set the whole ratio.
    """
    times: dict[str, list[float]] = {name: [] for name in fns}
    for _ in range(rounds):
        for name, fn in fns.items():
            started = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - started)
    return {name: statistics.median(samples) for name, samples in times.items()}


def packed_figure2_series(length: int, seed: int = 0):
    """The Figure 2 workload constrained to a <= 64-letter vocabulary.

    The stock figure2 generator draws noise from an 88-feature surplus
    alphabet at arbitrary offsets, which puts the ``(offset, feature)``
    vocabulary in the thousands of letters.  One noise feature keeps the
    same noise *load* while bounding the vocabulary at ``12 + 50 = 62``
    letters: one word per store row, the shape every earlier run of this
    benchmark measured.
    """
    spec = SyntheticSpec(
        length=length,
        period=FIGURE2_PERIOD,
        max_pat_length=6,
        f1_size=12,
        alphabet_size=PACKED_ALPHABET,
        noise_rate=0.2,
        seed=seed,
    )
    return spec.generate().series


def letter_map(result) -> dict:
    """Canonical ``letters -> count`` view for cross-kernel equality."""
    return {
        "|".join(f"{offset}:{feature}" for offset, feature in sorted(p.letters)): count
        for p, count in result.items()
    }


def columnar_cold_mine(series, period: int, min_conf: float):
    """A cold store mine: the store built from a copy of ``series`` without
    a slot column (so the column build is timed too), then its scans."""
    return mine_store(SegmentStore.from_series(series[:], period), min_conf)


def in_memory_cold_mine(series, period: int, min_conf: float):
    """A cold in-memory mine: the miner on a copy of ``series`` without a
    slot column, so the column is built inside the timed mine."""
    return mine_single_period_hitset(series[:], period, min_conf)


def legacy_cold_mine(series, period: int, min_conf: float) -> dict:
    """A cold mine whose derivation counts one candidate at a time.

    Both scans as in the miner; Algorithm 4.2 then walks the stored hits
    once per candidate (:meth:`MaxSubpatternTree.count_of_mask`) instead
    of one superset-sum pass — the per-candidate baseline.
    """
    one = find_frequent_one_patterns(series, period, min_conf)
    if one.is_empty:
        return {}
    tree = MaxSubpatternTree(one.max_pattern)
    tree.insert_all_segments(series)
    vocab = tree.vocab
    counts = {vocab.bit_of(letter): c for letter, c in one.letters.items()}
    level = set(counts)
    while level:
        next_level = set()
        for candidate in generate_candidate_masks(level):
            total = tree.count_of_mask(candidate)  # repro: ignore[REP701] -- the per-candidate baseline this benchmark measures against
            if total >= one.threshold:
                counts[candidate] = total
                next_level.add(candidate)
        level = next_level
    return {Pattern.from_mask(vocab, mask): c for mask, c in counts.items()}


# -- out-of-core workload ----------------------------------------------------


def out_of_core_series(length: int, period: int = FIGURE2_PERIOD):
    """A deterministic multi-million-slot series built from pooled slots.

    Slot contents are chosen arithmetically (a Knuth multiplicative hash
    of the slot index) from a small pool of pre-built frozensets, so a
    10M-slot series costs seconds to build and holds only pointers — the
    generator's per-slot RNG work would dominate the benchmark at this
    scale.  Offsets 0..5 carry a planted pattern at ~0.8 confidence (with
    occasional co-occurring noise); later offsets carry sparse noise.
    """
    from repro.timeseries.feature_series import FeatureSeries

    planted = {o: frozenset((f"f{o}",)) for o in range(6)}
    noise = {o: frozenset((f"n{o % 8}",)) for o in range(period)}
    both = {o: planted[o] | noise[o] for o in range(6)}
    empty: frozenset = frozenset()
    slots = []
    append = slots.append
    for i in range(length):
        offset = i % period
        h = (i * 2654435761) & 0xFFFFFFFF
        if offset < 6:
            if h < 0x40000000:
                append(both[offset])
            elif h < 0xCCCCCCCC:
                append(planted[offset])
            else:
                append(empty)
        else:
            append(noise[offset] if h < 0x20000000 else empty)
    return FeatureSeries(slots)


def _mine_store_subprocess(path: Path, min_conf: float) -> dict:
    """Mine a store file in a fresh interpreter; report time and RSS.

    The subprocess never sees the series — it maps the ``.seg`` file and
    mines the rows, so its peak RSS is the honest out-of-core number.
    Peak memory is read from ``VmHWM`` (per-address-space, reset by
    ``execve``) rather than ``ru_maxrss``, whose lifetime high-water mark
    inherits the parent's entire RSS through fork's copy-on-write window
    and would report the benchmark driver's footprint, not the miner's.
    """
    code = (
        "import json, resource, sys, time\n"
        "from pathlib import Path\n"
        "from repro.core.hitset import mine_store\n"
        "from repro.kernels.store import SegmentStore\n"
        "store = SegmentStore.from_file(Path(sys.argv[1]))\n"
        "started = time.perf_counter()\n"
        "result = mine_store(store, float(sys.argv[2]))\n"
        "seconds = time.perf_counter() - started\n"
        "patterns = {\n"
        "    '|'.join(f'{o}:{f}' for o, f in sorted(p.letters)): count\n"
        "    for p, count in result.items()\n"
        "}\n"
        "peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "try:\n"
        "    with open('/proc/self/status') as status:\n"
        "        for line in status:\n"
        "            if line.startswith('VmHWM:'):\n"
        "                peak_kb = int(line.split()[1])\n"
        "except OSError:\n"
        "    pass\n"
        "print(json.dumps({\n"
        "    'seconds': seconds,\n"
        "    'maxrss_kb': peak_kb,\n"
        "    'patterns': patterns,\n"
        "}))\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(path), str(min_conf)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(proc.stdout)


def run_out_of_core(slots: int, min_conf: float = 0.6) -> dict:
    """Build a large series' store, write its file, mine it mmap-backed."""
    series = out_of_core_series(slots)
    with tempfile.TemporaryDirectory(prefix="bench-columnar-") as tmp:
        path = Path(tmp) / "bench.seg"
        started = time.perf_counter()
        store = SegmentStore.from_series(series, FIGURE2_PERIOD)
        store.to_file(path)
        encode_s = time.perf_counter() - started
        file_bytes = path.stat().st_size
        segments = len(store)
        # The subprocess must stand on the mmap'd file alone.
        del series, store

        outcome = _mine_store_subprocess(path, min_conf)

        # In-memory reference over the very same file: letter-identical
        # output is the exactness claim for the mmap'd path.
        reference = mine_store(
            SegmentStore.from_file(path, mmap=False), min_conf
        )
        letter_identical = letter_map(reference) == outcome["patterns"]

    return {
        "slots": slots,
        "segments": segments,
        "file_bytes": file_bytes,
        "encode_seconds": round(encode_s, 6),
        "mine_seconds": round(outcome["seconds"], 6),
        "maxrss_mb": round(outcome["maxrss_kb"] / 1024, 1),
        "rss_budget_mb": OOC_RSS_BUDGET_MB,
        "frequent_patterns": len(outcome["patterns"]),
        "letter_identical": letter_identical,
    }


# -- scan-path benchmark -----------------------------------------------------


def run_benchmark(
    length: int = LENGTH_FULL,
    ooc_slots: int = OOC_SLOTS_FULL,
    repeats: int = REPEATS,
    seed: int = 0,
) -> dict:
    """Measure columnar vs. in-memory scans; returns the JSON-ready report."""
    series = packed_figure2_series(length, seed=seed)
    period, min_conf = FIGURE2_PERIOD, FIGURE2_MIN_CONF

    # -- cold mines along all three paths, exact equality enforced -----
    columnar = columnar_cold_mine(series, period, min_conf)
    in_memory = in_memory_cold_mine(series, period, min_conf)
    started = time.perf_counter()
    legacy = legacy_cold_mine(series, period, min_conf)
    legacy_cold_s = time.perf_counter() - started
    equivalent = letter_map(columnar) == letter_map(in_memory) == letter_map(legacy)
    if not equivalent:
        raise AssertionError("columnar mine diverged from in-memory/legacy")

    # -- scan path: numpy ops over a prebuilt store's rows -------------
    # The build (slot column included) is paid once and timed
    # separately; mine_store then runs both scans plus the derivation
    # purely on the rows.
    started = time.perf_counter()
    store = SegmentStore.from_series(series[:], period)
    encode_s = time.perf_counter() - started
    store_result = mine_store(store, min_conf)
    if letter_map(store_result) != letter_map(in_memory):
        raise AssertionError("mine_store diverged from the cold in-memory mine")
    median = _interleaved_median(
        repeats,
        columnar=lambda: columnar_cold_mine(series, period, min_conf),
        in_memory=lambda: in_memory_cold_mine(series, period, min_conf),
        store=lambda: mine_store(store, min_conf),
    )
    columnar_cold_s = median["columnar"]
    in_memory_cold_s = median["in_memory"]
    scan_s = median["store"]
    speedup_scan = in_memory_cold_s / scan_s

    report = {
        "benchmark": "columnar-scan-kernels-and-out-of-core-store",
        "workload": {
            "generator": "figure2-packed",
            "length": length,
            "period": period,
            "max_pat_length": 6,
            "f1_size": 12,
            "alphabet_size": PACKED_ALPHABET,
            "vocabulary_letters": len(store.vocab),
            "min_conf": min_conf,
            "seed": seed,
        },
        "frequent_patterns": len(letter_map(columnar)),
        "scan_path": {
            "columnar_store_seconds": round(scan_s, 6),
            "columnar_cold_seconds": round(columnar_cold_s, 6),
            "in_memory_cold_seconds": round(in_memory_cold_s, 6),
            "legacy_cold_seconds": round(legacy_cold_s, 6),
            "encode_seconds": round(encode_s, 6),
            "segments": len(store),
            "distinct_masks": store.distinct_count,
            "speedup": round(speedup_scan, 3),
        },
        "out_of_core": run_out_of_core(ooc_slots),
        "speedup_scan": round(speedup_scan, 3),
        "equivalent_output": equivalent,
    }
    return report


def check_report(report: dict, quick: bool) -> list[str]:
    """The --check gates; returns the list of failures (empty = pass)."""
    bar = SPEEDUP_BAR_QUICK if quick else SPEEDUP_BAR_FULL
    failures = []
    if not report["equivalent_output"]:
        failures.append("mining paths disagree on the frequent set")
    if report["speedup_scan"] < bar:
        failures.append(
            f"columnar scan path {report['speedup_scan']:.2f}x < {bar:.0f}x bar"
        )
    ooc = report["out_of_core"]
    if not ooc["letter_identical"]:
        failures.append("mmap-backed mine diverged from the in-memory mine")
    if ooc["maxrss_mb"] > ooc["rss_budget_mb"]:
        failures.append(
            f"out-of-core subprocess peaked at {ooc['maxrss_mb']:.0f} MiB "
            f"(> {ooc['rss_budget_mb']} MiB budget)"
        )
    return failures


def print_report(report: dict) -> None:
    workload = report["workload"]
    scan = report["scan_path"]
    ooc = report["out_of_core"]
    print(
        f"Packed Figure 2 workload: LENGTH={workload['length']} "
        f"p={workload['period']} vocab={workload['vocabulary_letters']} "
        f"({report['frequent_patterns']} frequent patterns, "
        f"{scan['distinct_masks']} distinct masks)"
    )
    print(
        f"end to end: cold columnar mine {scan['columnar_cold_seconds']:.4f}s, "
        f"cold in-memory mine {scan['in_memory_cold_seconds']:.4f}s"
    )
    print(f"{'measurement':<26} {'seconds':>10}")
    for name, key in (
        ("columnar scan (store)", "columnar_store_seconds"),
        ("legacy cold mine", "legacy_cold_seconds"),
        ("encode pass", "encode_seconds"),
    ):
        print(f"{name:<26} {scan[key]:>9.4f}s")
    print(
        "scan-only speedup (store scans vs cold in-memory mine): "
        f"{report['speedup_scan']:.2f}x"
    )
    print(
        f"out-of-core: {ooc['slots']} slots -> {ooc['file_bytes']} B row "
        f"file in {ooc['encode_seconds']:.2f}s, mined in "
        f"{ooc['mine_seconds']:.3f}s at {ooc['maxrss_mb']:.0f} MiB peak RSS "
        f"({ooc['frequent_patterns']} patterns, "
        f"letter-identical: {ooc['letter_identical']})"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="columnar scan kernels and out-of-core store vs in-memory"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"small workload (LENGTH={LENGTH_QUICK}, "
        f"{OOC_SLOTS_QUICK}-slot out-of-core run), no JSON unless --json "
        "is given",
    )
    parser.add_argument(
        "--length", type=int, help="series length (overrides --quick default)"
    )
    parser.add_argument(
        "--ooc-slots",
        type=int,
        default=None,
        help="out-of-core series length in slots",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=REPEATS,
        help=f"timing rounds, median-of; each round times the cold columnar, "
        f"cold in-memory and store mines in turn (default {REPEATS})",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="where to write the JSON report "
        "(default: BENCH_columnar.json next to the repo, full runs only)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when a speedup/equivalence/RSS gate fails",
    )
    args = parser.parse_args(argv)

    length = args.length or (LENGTH_QUICK if args.quick else LENGTH_FULL)
    ooc_slots = args.ooc_slots or (
        OOC_SLOTS_QUICK if args.quick else OOC_SLOTS_FULL
    )
    report = run_benchmark(
        length=length, ooc_slots=ooc_slots, repeats=args.repeats
    )
    print_report(report)

    json_path = args.json
    if json_path is None and not args.quick:
        json_path = Path(__file__).resolve().parent.parent / "BENCH_columnar.json"
    if json_path is not None:
        Path(json_path).write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
        print(f"report written to {json_path}")
    if args.check:
        failures = check_report(report, quick=args.quick)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
    return 0


# -- pytest smoke ------------------------------------------------------------


def test_columnar_scans_match_and_speed_up(report):
    """Equivalence plus a light speedup sanity check on a small workload."""
    outcome = run_benchmark(length=20_000, ooc_slots=200_000, repeats=1)
    assert outcome["equivalent_output"]
    scan = outcome["scan_path"]
    ooc = outcome["out_of_core"]
    report(
        "Columnar scan kernels and out-of-core store (LENGTH=20000)",
        ["measurement", "seconds"],
        [
            ("columnar cold mine", f"{scan['columnar_cold_seconds']:.4f}s"),
            ("in-memory cold mine", f"{scan['in_memory_cold_seconds']:.4f}s"),
            ("columnar scan (store)", f"{scan['columnar_store_seconds']:.4f}s"),
            ("out-of-core mine", f"{ooc['mine_seconds']:.4f}s"),
        ],
    )
    # The vectorized scans answer from the column; even at smoke scale
    # they must never lose to the cold in-memory scan path.
    assert outcome["speedup_scan"] > 1.0
    # The mmap'd mine must be letter-exact.
    assert ooc["letter_identical"]


if __name__ == "__main__":
    sys.exit(main())
