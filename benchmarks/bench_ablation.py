"""Ablations of the implementation's design choices (DESIGN.md §5).

Not figures from the paper, but measurements justifying choices the paper
leaves to the implementor:

* **derivation depth** — full frequent-set derivation vs a letter cap vs
  the maximal-only MaxMiner hybrid: how much of the derivation cost is the
  exponential tail of the output itself;
* **1-letter hit skipping** — the paper stores no single-letter hits (their
  counts come from scan 1); measure the tree bloat that storing them would
  cost;
* **constraint push-down** — filtering F1 before building ``C_max`` vs
  mining everything and post-filtering.
"""

from __future__ import annotations

import time

from benchmarks.conftest import LENGTH_SHORT
from repro.core.constraints import MiningConstraints, mine_with_constraints
from repro.core.counting import segment_letters
from repro.core.hitset import mine_single_period_hitset
from repro.core.maximal import mine_maximal_hitset
from repro.core.pattern import Pattern
from repro.synth.workloads import (
    FIGURE2_MIN_CONF,
    FIGURE2_PERIOD,
    figure2_series,
)
from tests.reference import build_hit_tree


def test_derivation_depth_ablation(report):
    series = figure2_series(10, length=LENGTH_SHORT, seed=0).series
    rows = []
    timings = {}
    for label, runner in (
        (
            "full",
            lambda: mine_single_period_hitset(
                series, FIGURE2_PERIOD, FIGURE2_MIN_CONF
            ),
        ),
        (
            "cap-4-letters",
            lambda: mine_single_period_hitset(
                series, FIGURE2_PERIOD, FIGURE2_MIN_CONF, max_letters=4
            ),
        ),
        (
            "maximal-only",
            lambda: mine_maximal_hitset(
                series, FIGURE2_PERIOD, FIGURE2_MIN_CONF
            ),
        ),
    ):
        started = time.perf_counter()
        result = runner()
        elapsed = time.perf_counter() - started
        timings[label] = elapsed
        rows.append((label, f"{elapsed:.3f}s", len(result)))
    report(
        "Ablation: derivation depth at MAX-PAT-LENGTH 10",
        ["variant", "time", "#patterns"],
        rows,
    )
    # The capped and maximal variants avoid the exponential output tail.
    assert timings["cap-4-letters"] < timings["full"]
    # Maximal output is tiny relative to the full frequent set.
    assert rows[2][2] < rows[0][2] / 10


def test_one_letter_hit_skipping(report):
    # Rebuild the tree twice: per the paper (skip 1-letter hits) and a
    # naive variant that stores them, and compare sizes.  Counting results
    # are identical either way because 1-letter counts come from scan 1.
    # A sparse workload (letters at ~50% confidence) makes singleton hits
    # common enough to matter.
    from repro.synth.generator import SyntheticSpec

    spec = SyntheticSpec(
        length=LENGTH_SHORT // 2,
        period=20,
        max_pat_length=2,
        f1_size=6,
        planted_confidence=0.5,
        extra_confidence=0.5,
        seed=0,
    )
    series = spec.generate().series
    period = spec.period
    min_conf = 0.4
    tree, one = build_hit_tree(series, period, min_conf)

    from repro.tree.max_subpattern_tree import MaxSubpatternTree

    naive = MaxSubpatternTree(one.max_pattern)
    cmax_letters = one.max_pattern.letters
    stored_singletons = 0
    for segment in series.segments(period):
        hit = segment_letters(segment) & cmax_letters
        if not hit:
            continue
        if len(hit) == 1:
            stored_singletons += 1
        naive.insert(Pattern.from_letters(period, hit))
    assert stored_singletons > 0  # the ablation actually exercises the rule

    report(
        "Ablation: storing 1-letter hits in the tree",
        ["variant", "tree nodes", "hit-set size", "singleton hits"],
        [
            ("paper (skip)", tree.node_count, tree.hit_set_size, 0),
            ("naive (store)", naive.node_count, naive.hit_set_size,
             stored_singletons),
        ],
    )
    assert naive.node_count > tree.node_count
    # Multi-letter derivation is unaffected by the skipped singletons.
    probe = sorted(one.letters)[:2]
    assert tree.count_of_letters(frozenset(probe)) == naive.count_of_letters(
        frozenset(probe)
    )


def test_constraint_pushdown(report):
    series = figure2_series(8, length=LENGTH_SHORT, seed=0).series
    # Constrain to the first half of the period's offsets.
    constraints = MiningConstraints(
        offsets=frozenset(range(FIGURE2_PERIOD // 2))
    )

    started = time.perf_counter()
    pushed = mine_with_constraints(
        series, FIGURE2_PERIOD, FIGURE2_MIN_CONF, constraints
    )
    pushed_time = time.perf_counter() - started

    started = time.perf_counter()
    full = mine_single_period_hitset(series, FIGURE2_PERIOD, FIGURE2_MIN_CONF)
    post = {
        pattern: count
        for pattern, count in full.items()
        if constraints.satisfied_by(pattern)
    }
    post_time = time.perf_counter() - started

    assert dict(pushed.items()) == post
    report(
        "Ablation: constraint push-down vs post-filtering "
        "(offsets restricted to the first half of the period)",
        ["variant", "time", "#patterns", "tree nodes"],
        [
            ("push-down", f"{pushed_time:.3f}s", len(pushed),
             pushed.stats.tree_nodes),
            ("post-filter", f"{post_time:.3f}s", len(post),
             full.stats.tree_nodes),
        ],
    )
    # Push-down explores a strictly smaller tree.
    assert pushed.stats.tree_nodes <= full.stats.tree_nodes
