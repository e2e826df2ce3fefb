"""Encoded bitmask kernels vs. the legacy letter-set kernels (Table 1).

Runs the Section 5 synthetic workload (Figure 2 defaults: ``p = 50``,
``|F1| = 12``, MAX-PAT-LENGTH 6) through the single-threaded hit-set miner
twice — once on the interned-vocabulary bitmask kernels (the miner) and
once on the ``frozenset[Letter]`` scan 2 they replaced (:func:`legacy_mine`,
one letter-set :meth:`MaxSubpatternTree.insert_segment` per segment) —
verifying exact output equality and recording wall-clock speedups.

Run standalone (writes ``BENCH_encoding.json`` at the repo root)::

    PYTHONPATH=src python benchmarks/bench_encoding.py            # full
    PYTHONPATH=src python benchmarks/bench_encoding.py --quick    # CI smoke

Two measurements, reported separately on purpose:

* the **scan-2 hot path** — hit computation plus tree registration, the
  part the representation change actually rewrites (one bitmask AND per
  segment, one insertion per *distinct* hit instead of one per segment).
  This is the headline number: the encoding buys >= 3x here.
* the **end-to-end hit-set run** — scans 1 + 2 + derivation.  Scan 1
  (letter frequency counting) is shared by both paths and unchanged by
  the encoding, so by Amdahl's law the end-to-end ratio is smaller than
  the hot-path ratio; recording both keeps the claim honest.

Under pytest this module contributes an equivalence + speedup smoke test
so ``pytest benchmarks/`` keeps covering it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core.hitset import mine_single_period_hitset
from repro.core.maxpattern import find_frequent_one_patterns
from repro.core.pattern import Pattern
from repro.synth.workloads import (
    FIGURE2_MIN_CONF,
    FIGURE2_PERIOD,
    figure2_series,
)
from repro.timeseries.feature_series import FeatureSeries
from repro.tree.max_subpattern_tree import MaxSubpatternTree

#: Table 1 workload sizes: the paper's long Figure 2 length for the real
#: measurement, a small series for the --quick CI smoke run.
LENGTH_FULL = 500_000
LENGTH_QUICK = 30_000


def legacy_scan2(tree: MaxSubpatternTree, series: FeatureSeries) -> None:
    """Scan 2 on letter sets: one hit and one insertion per segment."""
    for segment in series.segments(tree.max_pattern.period):
        tree.insert_segment(segment)


def legacy_mine(
    series: FeatureSeries, period: int, min_conf: float
) -> dict[Pattern, int]:
    """The hit-set miner with the letter-set scan 2 (the pre-encoding path).

    Scan 1 and the derivation are the miner's own; only the hit
    registration differs.
    """
    one = find_frequent_one_patterns(series, period, min_conf)
    if one.is_empty:
        return {}
    tree = MaxSubpatternTree(one.max_pattern)
    legacy_scan2(tree, series)
    counts, _ = tree.derive_frequent(one.threshold, one.letters)
    return {
        Pattern.from_letters(period, letters): count
        for letters, count in counts.items()
    }


def _best_of(repeats: int, fn) -> float:
    """Best-of-N wall time — robust against scheduler noise on small runs."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def run_benchmark(
    length: int = LENGTH_FULL,
    repeats: int = 3,
    max_pat_length: int = 6,
    seed: int = 0,
) -> dict:
    """Measure encoded vs. legacy kernels; returns the JSON-ready report."""
    series = figure2_series(max_pat_length, length=length, seed=seed).series
    period, min_conf = FIGURE2_PERIOD, FIGURE2_MIN_CONF

    # -- end-to-end hit-set runs (scan 1 + scan 2 + derivation) ----------
    encoded_result = mine_single_period_hitset(series, period, min_conf)
    if dict(encoded_result.items()) != legacy_mine(series, period, min_conf):
        raise AssertionError("encoded hit-set output diverged from legacy")
    encoded_s = _best_of(
        repeats,
        lambda: mine_single_period_hitset(series, period, min_conf),
    )
    legacy_s = _best_of(
        repeats, lambda: legacy_mine(series, period, min_conf)
    )

    # -- scan-2 hot path in isolation ------------------------------------
    # Hit computation + tree registration over all segments, on a fresh
    # tree each time; F1/C_max discovery (scan 1) is paid once outside
    # the timed region because both kernels share it verbatim.
    one = find_frequent_one_patterns(series, period, min_conf)

    def scan2(encode: bool) -> MaxSubpatternTree:
        tree = MaxSubpatternTree(one.max_pattern)
        if encode:
            tree.insert_all_segments(series)
        else:
            legacy_scan2(tree, series)
        return tree

    if scan2(True).hit_counts() != scan2(False).hit_counts():
        raise AssertionError("encoded scan-2 hit counts diverged from legacy")
    scan2_encoded_s = _best_of(repeats, lambda: scan2(True))
    scan2_legacy_s = _best_of(repeats, lambda: scan2(False))

    return {
        "benchmark": "encoded-bitmask-kernels-vs-legacy-lettersets",
        "workload": {
            "generator": "figure2/table1",
            "length": length,
            "period": period,
            "max_pat_length": max_pat_length,
            "f1_size": 12,
            "min_conf": min_conf,
            "seed": seed,
        },
        "frequent_patterns": len(encoded_result),
        "hitset_scan2_hot_path": {
            "encoded_seconds": round(scan2_encoded_s, 6),
            "legacy_seconds": round(scan2_legacy_s, 6),
            "speedup": round(scan2_legacy_s / scan2_encoded_s, 3),
        },
        "hitset_end_to_end": {
            "encoded_seconds": round(encoded_s, 6),
            "legacy_seconds": round(legacy_s, 6),
            "speedup": round(legacy_s / encoded_s, 3),
        },
        "speedup_hot_path": round(scan2_legacy_s / scan2_encoded_s, 3),
        "equivalent_output": True,
    }


def print_report(report: dict) -> None:
    workload = report["workload"]
    print(
        f"Table 1 workload: LENGTH={workload['length']} "
        f"p={workload['period']} |F1|={workload['f1_size']} "
        f"MPL={workload['max_pat_length']} "
        f"({report['frequent_patterns']} frequent patterns)"
    )
    print(f"{'measurement':<22} {'encoded':>9} {'legacy':>9} {'speedup':>8}")
    for key, label in (
        ("hitset_scan2_hot_path", "scan-2 hot path"),
        ("hitset_end_to_end", "hit-set end to end"),
    ):
        row = report[key]
        print(
            f"{label:<22} {row['encoded_seconds']:>8.3f}s "
            f"{row['legacy_seconds']:>8.3f}s {row['speedup']:>7.2f}x"
        )
    print(f"hot-path speedup (headline): {report['speedup_hot_path']:.2f}x")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="encoded bitmask kernels vs legacy letter-set kernels"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"small workload (LENGTH={LENGTH_QUICK}), 1 repeat, no JSON "
        "unless --json is given",
    )
    parser.add_argument(
        "--length", type=int, help="series length (overrides --quick default)"
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing repeats (best-of)"
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="where to write the JSON report "
        "(default: BENCH_encoding.json next to the repo, full runs only)",
    )
    args = parser.parse_args(argv)

    length = args.length or (LENGTH_QUICK if args.quick else LENGTH_FULL)
    repeats = args.repeats or (1 if args.quick else 3)
    report = run_benchmark(length=length, repeats=repeats)
    print_report(report)

    json_path = args.json
    if json_path is None and not args.quick:
        json_path = Path(__file__).resolve().parent.parent / "BENCH_encoding.json"
    if json_path is not None:
        Path(json_path).write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
        print(f"report written to {json_path}")
    return 0


# -- pytest smoke ------------------------------------------------------------


def test_encoded_kernels_match_and_speed_up(report):
    """Equivalence plus a light speedup sanity check on a small workload."""
    outcome = run_benchmark(length=20_000, repeats=1)
    assert outcome["equivalent_output"]
    rows = [
        (
            label,
            f"{outcome[key]['encoded_seconds']:.3f}s",
            f"{outcome[key]['legacy_seconds']:.3f}s",
            f"{outcome[key]['speedup']:.2f}x",
        )
        for key, label in (
            ("hitset_scan2_hot_path", "scan-2 hot path"),
            ("hitset_end_to_end", "end to end"),
        )
    ]
    report(
        "Encoded bitmask kernels vs legacy letter sets (LENGTH=20000)",
        ["measurement", "encoded", "legacy", "speedup"],
        rows,
    )
    # The hot path collapses per-segment insertions to per-distinct-hit
    # insertions; even at smoke scale that is comfortably faster.
    assert outcome["speedup_hot_path"] > 1.5
    # End to end must never regress: scan 1 is shared, scan 2 only wins.
    assert outcome["hitset_end_to_end"]["speedup"] > 0.8


if __name__ == "__main__":
    sys.exit(main())
