"""Experiment A5 — micro-costs of the max-subpattern tree (Section 4).

The paper's analysis: inserting a max-subpattern with ``n'`` letters costs
at most ``n_max`` link traversals and creates at most ``n_max - n' + 1``
nodes; deriving all frequent patterns is proportional to ``2^n_max`` times
the hit-set size in the worst case.  These microbenchmarks time insertion
and derivation separately, so regressions in either show up independently
of the full mining pipeline.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import LENGTH_SHORT
from repro.core.maxpattern import find_frequent_one_patterns
from repro.synth.workloads import (
    FIGURE2_MIN_CONF,
    FIGURE2_PERIOD,
    figure2_series,
)
from repro.tree.max_subpattern_tree import MaxSubpatternTree
from tests.reference import build_hit_tree


@pytest.fixture(scope="module")
def workload():
    generated = figure2_series(8, length=LENGTH_SHORT, seed=0)
    series = generated.series
    one = find_frequent_one_patterns(series, FIGURE2_PERIOD, FIGURE2_MIN_CONF)
    return series, one


def test_insert_all_segments(benchmark, workload):
    series, one = workload

    def run():
        tree = MaxSubpatternTree(one.max_pattern)
        tree.insert_all_segments(series)
        return tree

    tree = benchmark(run)
    assert tree.total_hits > 0


def test_derive_frequent(benchmark, workload):
    series, one = workload
    tree = MaxSubpatternTree(one.max_pattern)
    tree.insert_all_segments(series)

    def run():
        counts, _ = tree.derive_frequent(one.threshold, one.letters)
        return counts

    counts = benchmark(run)
    assert len(counts) >= len(one.letters)


def test_count_lookup(benchmark, workload):
    series, one = workload
    tree = MaxSubpatternTree(one.max_pattern)
    tree.insert_all_segments(series)
    letters = sorted(one.letters)[:4]
    query = frozenset(letters)

    result = benchmark(tree.count_of_letters, query)
    assert result >= 0


def test_insertion_node_budget(report):
    # Section 4: total nodes < n_max * |HitSet| — measure the actual ratio.
    rows = []
    for mpl in (4, 8):
        series = figure2_series(mpl, length=LENGTH_SHORT, seed=0).series
        tree, one = build_hit_tree(series, FIGURE2_PERIOD, FIGURE2_MIN_CONF)
        n_max = len(tree.max_pattern.letters)
        budget = n_max * tree.hit_set_size
        rows.append(
            (
                mpl,
                n_max,
                tree.hit_set_size,
                tree.node_count,
                budget,
                f"{tree.node_count / budget:.2f}",
            )
        )
        assert tree.node_count <= budget + 1
    report(
        "A5: tree nodes vs the n_max * |HitSet| insertion budget",
        ["MAX-PAT-LEN", "n_max", "hit set", "nodes", "budget", "ratio"],
        rows,
    )
