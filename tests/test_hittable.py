"""The production hit table against the max-subpattern tree.

Production mining keeps scan 2's hits as a :class:`HitTable` and never
builds the tree of Algorithm 4.1.  These tests hold the table to the
tree (:class:`~repro.tree.max_subpattern_tree.MaxSubpatternTree`, the
reference): the same stored hits, the same derived counts and candidate
counts, and the node count the tree would have built, after any
sequence of insertions and removals.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import MiningError
from repro.core.hitset import mine_single_period_hitset
from repro.core.hittable import HitTable, tree_node_count
from repro.core.pattern import Pattern
from repro.synth.workloads import FIGURE2_MIN_CONF, FIGURE2_PERIOD, figure2_series
from repro.tree.max_subpattern_tree import MaxSubpatternTree
from tests.reference import build_hit_tree

CMAX = Pattern.from_string("a{b1,b2}*d*")


def table_and_tree(cmax: Pattern) -> tuple[HitTable, MaxSubpatternTree]:
    return HitTable.over(cmax.period, cmax.letters), MaxSubpatternTree(cmax)


class TestHitTable:
    def test_vocabulary_is_the_trees(self):
        table, tree = table_and_tree(CMAX)
        assert table.vocab.letters == tree.vocab.letters
        assert table.vocab.period == CMAX.period

    def test_add_and_remove_keep_counts(self):
        table, _ = table_and_tree(CMAX)
        table.add(0b0111)
        table.add(0b0111)
        table.add(0b1011)
        table.remove(0b0111)
        assert table.hits == {0b0111: 1, 0b1011: 1}
        table.remove(0b0111)
        assert table.hits == {0b1011: 1}

    def test_removing_an_unstored_hit_raises(self):
        table, _ = table_and_tree(CMAX)
        with pytest.raises(MiningError):
            table.remove(0b0011)
        table.add(0b0011)
        table.remove(0b0011)
        with pytest.raises(MiningError):
            table.remove(0b0011)
        assert table.hits == {}

    def test_empty_table_is_the_root_alone(self):
        table, tree = table_and_tree(CMAX)
        assert table.node_count() == tree.node_count == 1

    def test_node_count_counts_shared_prefixes_once(self):
        # Missing masks 0b0110 and 0b0010 share the prefix 0b0010; with
        # 0b1000 the tree is root, 0b0010, 0b0110 and 0b1000.
        full = 0b1111
        hits = [full & ~0b0110, full & ~0b0010, full & ~0b1000]
        assert tree_node_count(hits, full) == 4

    def test_derive_matches_the_tree(self):
        table, tree = table_and_tree(CMAX)
        for spec, count in (("a{b1}*d*", 3), ("*{b1,b2}*d*", 2), ("a{b2}***", 4)):
            mask = tree.vocab.encode_letters(Pattern.from_string(spec).letters)
            tree.insert_mask(mask, count=count)
            for _ in range(count):
                table.add(mask)
        f1 = {letter: 9 for letter in CMAX.letters}
        patterns, candidates = table.derive(3, f1)
        letter_counts, tree_candidates = tree.derive_frequent(3, f1)
        assert {p.letters: c for p, c in patterns.items()} == letter_counts
        assert candidates == tree_candidates


class TestAgainstTheTree:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_inserts_and_removes(self, data):
        width = data.draw(st.integers(2, 18), label="width")
        letters = [(index % 5, f"f{index}") for index in range(width)]
        table, tree = table_and_tree(Pattern.from_letters(5, letters))
        full = table.vocab.full_mask
        two_or_more = st.integers(1, full).filter(lambda mask: mask & (mask - 1))
        for _ in range(data.draw(st.integers(0, 60), label="steps")):
            if table.hits and data.draw(st.booleans(), label="remove"):
                mask = data.draw(st.sampled_from(sorted(table.hits)))
                tree.remove_mask(mask)
                table.remove(mask)
            else:
                mask = data.draw(two_or_more)
                tree.insert_mask(mask)
                table.add(mask)
            assert table.node_count() == tree.node_count
            assert len(table.hits) == tree.hit_set_size
        assert table.hits == tree.stored_hits()
        f1 = {
            letter: sum(
                count
                for mask, count in table.hits.items()
                if mask & table.vocab.bit_of(letter)
            )
            for letter in letters
        }
        threshold = data.draw(st.integers(1, 4), label="threshold")
        max_letters = None if width <= 10 else 3
        patterns, candidates = table.derive(threshold, f1, max_letters)
        letter_counts, tree_candidates = tree.derive_frequent(
            threshold, f1, max_letters
        )
        assert {p.letters: c for p, c in patterns.items()} == letter_counts
        assert candidates == tree_candidates

    @pytest.mark.parametrize("max_pat_length", [2, 6])
    def test_mined_stats_are_the_trees(self, max_pat_length):
        series = figure2_series(max_pat_length, length=5_000, seed=3).series
        result = mine_single_period_hitset(series, FIGURE2_PERIOD, FIGURE2_MIN_CONF)
        tree, _ = build_hit_tree(series, FIGURE2_PERIOD, FIGURE2_MIN_CONF)
        assert result.stats.tree_nodes == tree.node_count
        assert result.stats.hit_set_size == tree.hit_set_size
