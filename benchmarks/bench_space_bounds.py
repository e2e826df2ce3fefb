"""Experiment A2 — Property 3.2: the hit-set buffer bound.

"The size of the hit set is bounded by min(m, 2^|F1| - 1)."  The summary
test measures the actual hit-set and tree sizes on generated workloads and
compares them against the bound, reproducing the paper's two worked
examples (yearly: m dominates; weekly: 2^|F1| dominates) with synthetic
stand-ins of the same parameter regimes.
"""

from __future__ import annotations

import pytest

from repro.analysis.bounds import hit_set_bound, tree_node_bound
from repro.synth.generator import SyntheticSpec
from tests.reference import build_hit_tree


def _measure(length, period, f1_size, max_pat_length, min_conf, seed=0):
    spec = SyntheticSpec(
        length=length,
        period=period,
        max_pat_length=max_pat_length,
        f1_size=f1_size,
        alphabet_size=max(100, f1_size + 10),
        seed=seed,
    )
    generated = spec.generate()
    tree, one = build_hit_tree(generated.series, period, min_conf)
    return {
        "m": one.num_periods,
        "f1": len(one.letters),
        "hit_set": tree.hit_set_size,
        "tree_nodes": tree.node_count,
        "bound": hit_set_bound(one.num_periods, len(one.letters)),
    }


@pytest.mark.parametrize(
    "length,period,f1_size",
    [(20_000, 200, 24), (20_000, 50, 6)],
    ids=["m-dominates", "2^F1-dominates"],
)
def test_tree_build_cost(benchmark, length, period, f1_size):
    spec = SyntheticSpec(
        length=length,
        period=period,
        max_pat_length=min(4, f1_size),
        f1_size=f1_size,
        alphabet_size=max(100, f1_size + 10),
        seed=0,
    )
    series = spec.generate().series

    def run():
        tree, _ = build_hit_tree(series, period, 0.64)
        return tree.hit_set_size

    benchmark(run)


def test_bound_table(report):
    rows = []
    cases = [
        # The paper's "yearly" regime: long period, few segments -> m wins.
        ("yearly-like", 20_000, 400, 12, 4),
        # The paper's "weekly" regime: tiny |F1| -> 2^|F1| - 1 wins.
        ("weekly-like", 20_000, 10, 4, 2),
        # Figure 2 regime.
        ("figure2-like", 20_000, 50, 12, 6),
    ]
    for name, length, period, f1_size, mpl in cases:
        measured = _measure(length, period, f1_size, mpl, min_conf=0.64)
        assert measured["hit_set"] <= measured["bound"], name
        # Section 4 analysis: node count < n_max * |HitSet| (+ root).
        assert measured["tree_nodes"] <= tree_node_bound(
            measured["hit_set"], measured["f1"]
        ) + 1, name
        rows.append(
            (
                name,
                measured["m"],
                measured["f1"],
                measured["hit_set"],
                measured["bound"],
                measured["tree_nodes"],
            )
        )
    report(
        "A2: hit-set size vs Property 3.2 bound min(m, 2^|F1|-1)",
        ["regime", "m", "|F1|", "hit set", "bound", "tree nodes"],
        rows,
    )

    # The two regimes bind on different sides, as in the paper's examples.
    yearly = rows[0]
    weekly = rows[1]
    assert yearly[4] == yearly[1]  # bound = m
    assert weekly[4] == 2 ** weekly[2] - 1  # bound = 2^|F1| - 1
