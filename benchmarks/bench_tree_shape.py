"""Experiment A4 — Heuristic 3.1: hit mass concentrates on long subpatterns.

"The probability distribution of the maximal subpatterns of C_max is
usually denser for longer subpatterns (i.e., with the L-length closer to
|C_max|) than the shorter ones."  This keeps the max-subpattern tree small
and argues for keeping long subpatterns hot in memory.

The summary test measures the distribution of hit counts over subpattern
letter counts on the Figure 2 workload and asserts that the upper half of
the letter-count range carries the majority of the hit mass.
"""

from __future__ import annotations

from collections import Counter

from benchmarks.conftest import LENGTH_SHORT
from repro.synth.workloads import (
    FIGURE2_MIN_CONF,
    FIGURE2_PERIOD,
    figure2_series,
)
from tests.reference import build_hit_tree


def test_hit_mass_by_length(report):
    rows = []
    for mpl in (4, 8):
        series = figure2_series(mpl, length=LENGTH_SHORT, seed=0).series
        tree, one = build_hit_tree(series, FIGURE2_PERIOD, FIGURE2_MIN_CONF)
        cmax_letters = len(tree.max_pattern.letters)
        mass: Counter = Counter()
        for node in tree.nodes():
            if node.count:
                letters = cmax_letters - node.depth
                mass[letters] += node.count
        total = sum(mass.values())
        upper_half = sum(
            count
            for letters, count in mass.items()
            if letters > cmax_letters / 2
        )
        rows.append(
            (
                mpl,
                cmax_letters,
                tree.hit_set_size,
                total,
                f"{100 * upper_half / total:.1f}%",
            )
        )
        # Heuristic 3.1: the longer half dominates the hit distribution.
        assert upper_half > total / 2, (mpl, dict(mass))
    report(
        "A4 (Heuristic 3.1): share of hit mass on subpatterns longer than "
        "|C_max|/2 letters",
        ["MAX-PAT-LEN", "|C_max| letters", "hit set", "hits", "upper-half"],
        rows,
    )


def test_tree_much_smaller_than_pattern_space(report):
    # The point of the tree: registered structure is tiny relative to the
    # 2^|C_max| subpattern space the Apriori candidate set ranges over.
    rows = []
    for mpl in (6, 10):
        series = figure2_series(mpl, length=LENGTH_SHORT, seed=0).series
        tree, one = build_hit_tree(series, FIGURE2_PERIOD, FIGURE2_MIN_CONF)
        space = 2 ** len(tree.max_pattern.letters) - 1
        rows.append((mpl, tree.node_count, space))
        assert tree.node_count < space / 4
    report(
        "A4b: tree nodes vs 2^|C_max|-1 subpattern space",
        ["MAX-PAT-LEN", "tree nodes", "subpattern space"],
        rows,
    )
