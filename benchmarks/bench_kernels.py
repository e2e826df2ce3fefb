"""Batched counting kernels and the count cache vs. the per-candidate paths.

Runs the Section 5 synthetic workload (Figure 2 defaults: ``p = 50``,
``|F1| = 12``, MAX-PAT-LENGTH 6) and measures the two claims of the
batched-kernel layer:

* **derive-frequent** — Algorithm 4.2 on one scan 2 result: the batched
  superset-sum kernel production derives with
  (:func:`~repro.kernels.batched.derive_frequent_masks` over the hit
  table, its table build included; :func:`batched_derive`) against the
  per-candidate walk it replaced (:func:`legacy_derive`, one
  :meth:`MaxSubpatternTree.count_of_mask` pass over the stored hits per
  candidate, on a tree holding the same hits).  Same hits, same
  candidates, exact output equality enforced.
* **cached re-query** — re-mining the same series at a different
  ``min_conf``: a cold full mine against a warm
  :class:`~repro.kernels.cache.CountCache` re-query that answers both
  scans from the cache (fingerprint check only — zero data scans).

Run standalone (writes ``BENCH_kernels.json`` at the repo root)::

    PYTHONPATH=src python benchmarks/bench_kernels.py            # full
    PYTHONPATH=src python benchmarks/bench_kernels.py --quick    # CI smoke

``--check`` exits non-zero when the batched kernel is slower than the
per-candidate walk — the CI smoke gate against silent kernel regressions.

Under pytest this module contributes an equivalence + speedup smoke test
so ``pytest benchmarks/`` keeps covering it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Mapping
from pathlib import Path

from repro.core.candidates import generate_candidate_masks
from repro.core.hitset import _series_scans, _two_scans, mine_single_period_hitset
from repro.core.hittable import HitTable
from repro.core.pattern import Letter
from repro.kernels.batched import derive_frequent_masks
from repro.kernels.cache import CountCache
from repro.synth.workloads import (
    FIGURE2_MIN_CONF,
    FIGURE2_PERIOD,
    figure2_series,
)
from repro.tree.max_subpattern_tree import MaxSubpatternTree

#: Figure 2 workload sizes: the paper's long length for the real
#: measurement, a small series for the --quick CI smoke run.
LENGTH_FULL = 500_000
LENGTH_QUICK = 30_000

#: The warm re-query runs at a tighter threshold than the cold mine, so
#: the cache must also project its stored hit table to the smaller F1.
#: 0.72 still keeps most of the planted patterns frequent (the workload's
#: pattern confidences sit near 0.8), so the re-query is non-trivial.
REQUERY_MIN_CONF = 0.72


def batched_derive(
    table: HitTable, threshold: int, f1_counts: Mapping[Letter, int]
) -> dict[frozenset[Letter], int]:
    """Algorithm 4.2 on the batched kernel, as a mine runs it.

    One superset-sum table built from the hit table, then one lookup per
    candidate of every level (:meth:`HitTable.derive` without turning
    the masks into patterns).
    """
    vocab = table.vocab
    masks, _ = derive_frequent_masks(
        table.hits.items(),
        threshold,
        {vocab.bit_of(letter): c for letter, c in f1_counts.items()},
    )
    return {vocab.decode_mask(mask): c for mask, c in masks.items()}


def legacy_derive(
    tree: MaxSubpatternTree, threshold: int, f1_counts: Mapping[Letter, int]
) -> dict[frozenset[Letter], int]:
    """Algorithm 4.2 as first implemented: one pass per candidate.

    Level-wise apriori-gen over the tree vocabulary, where each candidate
    is counted by :meth:`MaxSubpatternTree.count_of_mask` — a scan of the
    stored hits per candidate.  The baseline the batched kernel replaced.
    """
    vocab = tree.vocab
    counts = {vocab.bit_of(letter): c for letter, c in f1_counts.items()}
    level = set(counts)
    while level:
        next_level = set()
        for candidate in generate_candidate_masks(level):
            total = tree.count_of_mask(candidate)  # repro: ignore[REP701] -- the per-candidate baseline this benchmark measures against
            if total >= threshold:
                counts[candidate] = total
                next_level.add(candidate)
        level = next_level
    return {vocab.decode_mask(mask): c for mask, c in counts.items()}


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
    """Measure batched vs. per-candidate derivation; returns the report."""
    series = figure2_series(max_pat_length, length=length, seed=seed).series
    period, min_conf = FIGURE2_PERIOD, FIGURE2_MIN_CONF

    # -- derive-frequent: batched superset-sum vs per-candidate walk ------
    # One scan 2, run once; the tree holds the same hits as the table, and
    # only Algorithm 4.2 is inside the timed region.
    one, table, _ = _two_scans(_series_scans(series, period), min_conf)
    assert table is not None
    tree = MaxSubpatternTree(one.max_pattern)
    for mask, count in table.hits.items():
        tree.insert_mask(mask, count=count)
    batched_counts = batched_derive(table, one.threshold, one.letters)
    legacy_counts = legacy_derive(tree, one.threshold, one.letters)
    derive_equal = batched_counts == legacy_counts
    if not derive_equal:
        raise AssertionError("batched derivation diverged from legacy")
    derive_batched_s = _best_of(
        repeats, lambda: batched_derive(table, one.threshold, one.letters)
    )
    derive_legacy_s = _best_of(
        repeats, lambda: legacy_derive(tree, one.threshold, one.letters)
    )

    # -- cached re-query: cold full mine vs warm cache answer ------------
    cache = CountCache()
    mine_single_period_hitset(series, period, min_conf, cache=cache)
    cold_result = mine_single_period_hitset(series, period, REQUERY_MIN_CONF)
    warm_result = mine_single_period_hitset(
        series, period, REQUERY_MIN_CONF, cache=cache
    )
    requery_equal = dict(warm_result.items()) == dict(cold_result.items())
    if not requery_equal:
        raise AssertionError("cached re-query diverged from a fresh mine")
    if warm_result.stats.scans != 0:
        raise AssertionError("warm re-query touched the data")
    cold_s = _best_of(
        repeats,
        lambda: mine_single_period_hitset(series, period, REQUERY_MIN_CONF),
    )
    warm_s = _best_of(
        repeats,
        lambda: mine_single_period_hitset(
            series, period, REQUERY_MIN_CONF, cache=cache
        ),
    )

    return {
        "benchmark": "batched-counting-kernels-and-count-cache",
        "workload": {
            "generator": "figure2",
            "length": length,
            "period": period,
            "max_pat_length": max_pat_length,
            "f1_size": 12,
            "min_conf": min_conf,
            "requery_min_conf": REQUERY_MIN_CONF,
            "seed": seed,
        },
        "frequent_patterns": len(cold_result),
        "derive_frequent": {
            "batched_seconds": round(derive_batched_s, 6),
            "legacy_seconds": round(derive_legacy_s, 6),
            "speedup": round(derive_legacy_s / derive_batched_s, 3),
        },
        "cached_requery": {
            "cold_seconds": round(cold_s, 6),
            "warm_seconds": round(warm_s, 6),
            "speedup": round(cold_s / warm_s, 3),
            "warm_scans": warm_result.stats.scans,
        },
        "speedup_derive": round(derive_legacy_s / derive_batched_s, 3),
        "speedup_requery": round(cold_s / warm_s, 3),
        "equivalent_output": derive_equal and requery_equal,
    }


def print_report(report: dict) -> None:
    workload = report["workload"]
    print(
        f"Figure 2 workload: LENGTH={workload['length']} "
        f"p={workload['period']} |F1|={workload['f1_size']} "
        f"MPL={workload['max_pat_length']} "
        f"({report['frequent_patterns']} frequent patterns)"
    )
    derive = report["derive_frequent"]
    requery = report["cached_requery"]
    print(f"{'measurement':<22} {'fast':>9} {'slow':>9} {'speedup':>8}")
    print(
        f"{'derive-frequent':<22} {derive['batched_seconds']:>8.3f}s "
        f"{derive['legacy_seconds']:>8.3f}s {derive['speedup']:>7.2f}x"
    )
    print(
        f"{'cached re-query':<22} {requery['warm_seconds']:>8.3f}s "
        f"{requery['cold_seconds']:>8.3f}s {requery['speedup']:>7.2f}x"
    )
    print(
        "derive speedup (batched vs per-candidate): "
        f"{report['speedup_derive']:.2f}x"
    )
    print(f"re-query speedup (warm cache): {report['speedup_requery']:.2f}x")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=(
            "batched counting kernels and count cache vs the per-candidate "
            "walk"
        )
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"small workload (LENGTH={LENGTH_QUICK}), no JSON unless --json "
        "is given",
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
        "(default: BENCH_kernels.json next to the repo, full runs only)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if the batched kernel is slower than the per-candidate walk",
    )
    args = parser.parse_args(argv)

    length = args.length or (LENGTH_QUICK if args.quick else LENGTH_FULL)
    # Best of 3 even for --quick: one sub-millisecond call is too noisy
    # to decide the gate.
    repeats = args.repeats or 3
    report = run_benchmark(length=length, repeats=repeats)
    print_report(report)

    json_path = args.json
    if json_path is None and not args.quick:
        json_path = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"
    if json_path is not None:
        Path(json_path).write_text(
            json.dumps(report, indent=2) + "\n", encoding="utf-8"
        )
        print(f"report written to {json_path}")
    if args.check and report["speedup_derive"] < 1.0:
        print(
            "FAIL: batched derive-frequent is slower than legacy "
            f"({report['speedup_derive']:.2f}x)",
            file=sys.stderr,
        )
        return 1
    return 0


# -- pytest smoke ------------------------------------------------------------


def test_batched_kernels_match_and_speed_up(report):
    """Equivalence plus a light speedup sanity check on a small workload."""
    outcome = run_benchmark(length=20_000, repeats=3)
    assert outcome["equivalent_output"]
    derive = outcome["derive_frequent"]
    requery = outcome["cached_requery"]
    report(
        "Batched counting kernels and count cache (LENGTH=20000)",
        ["measurement", "fast", "slow", "speedup"],
        [
            (
                "derive-frequent",
                f"{derive['batched_seconds']:.3f}s",
                f"{derive['legacy_seconds']:.3f}s",
                f"{derive['speedup']:.2f}x",
            ),
            (
                "cached re-query",
                f"{requery['warm_seconds']:.3f}s",
                f"{requery['cold_seconds']:.3f}s",
                f"{requery['speedup']:.2f}x",
            ),
        ],
    )
    # The batched kernel answers the whole candidate set in one pass; even
    # at smoke scale it must never lose to the per-candidate walk.
    assert derive["speedup"] > 1.0
    # A warm re-query never touches the data, so it beats a fresh mine
    # comfortably at any scale.
    assert outcome["cached_requery"]["warm_scans"] == 0
    assert requery["speedup"] > 2.0


if __name__ == "__main__":
    sys.exit(main())
