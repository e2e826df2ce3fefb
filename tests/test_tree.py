"""Unit tests for the max-subpattern tree (paper Section 4).

Includes regression tests built around the paper's own walk-throughs:
Algorithm 4.1's first-insertion example, Example 4.1 (navigation), Example
4.2 (linked vs. not-linked reachable ancestors) and the Example 4.3-style
derivation arithmetic.
"""

from __future__ import annotations

import pytest

from repro.core.counting import brute_force_counts, counts_to_patterns
from repro.core.errors import MiningError, PatternError
from repro.core.pattern import Pattern
from repro.tree.max_subpattern_tree import MaxSubpatternTree, tree_from_hits
from repro.tree.node import MaxSubpatternNode
from repro.timeseries.feature_series import FeatureSeries

CMAX = Pattern.from_string("a{b1,b2}*d*")


def make_tree() -> MaxSubpatternTree:
    return MaxSubpatternTree(CMAX)


class TestNode:
    def test_root_properties(self):
        root = MaxSubpatternNode(())
        assert root.is_root
        assert root.depth == 0
        assert root.parent is None

    def test_add_child_orders_letters(self):
        root = MaxSubpatternNode(())
        child = root.add_child((0, "a"))
        assert child.missing == ((0, "a"),)
        assert child.parent is root
        grandchild = child.add_child((1, "b1"))
        assert grandchild.depth == 2

    def test_add_child_rejects_out_of_order(self):
        root = MaxSubpatternNode(())
        child = root.add_child((1, "b1"))
        with pytest.raises(ValueError):
            child.add_child((0, "a"))

    def test_add_child_idempotent(self):
        root = MaxSubpatternNode(())
        first = root.add_child((0, "a"))
        assert root.add_child((0, "a")) is first

    def test_repr(self):
        node = MaxSubpatternNode(((0, "a"),))
        assert "~a@0" in repr(node)


class TestInsertion:
    def test_first_insertion_creates_path_with_zero_ancestors(self):
        # Algorithm 4.1's walk-through: inserting *b1*d* into an empty tree
        # creates the root-to-node path; intermediate nodes keep count 0.
        tree = make_tree()
        node = tree.insert(Pattern.from_string("*{b1}*d*"))
        assert node.count == 1
        # Path: root -> ~a -> ~a~b2; the intermediate ~a node has count 0.
        intermediate = tree.find_node(Pattern.from_string("*{b1,b2}*d*"))
        assert intermediate is not None
        assert intermediate.count == 0
        assert tree.node_count == 3  # root + intermediate + leaf

    def test_repeat_insertion_bumps_count(self):
        tree = make_tree()
        pattern = Pattern.from_string("a{b2}*d*")
        tree.insert(pattern)
        node = tree.insert(pattern)
        assert node.count == 2
        assert tree.total_hits == 2

    def test_insert_root_pattern(self):
        tree = make_tree()
        node = tree.insert(CMAX)
        assert node.is_root
        assert tree.node_count == 1

    def test_example_4_1_navigation(self):
        # Example 4.1: inserting *{b1}*d* follows the ~a branch to
        # *{b1,b2}*d* and then the ~b2 branch.
        tree = make_tree()
        tree.insert(Pattern.from_string("*{b1,b2}*d*"))
        node = tree.insert(Pattern.from_string("*{b1}*d*"))
        assert node.parent is tree.find_node(Pattern.from_string("*{b1,b2}*d*"))
        assert node.parent.count == 1

    def test_insert_with_explicit_count(self):
        tree = make_tree()
        node = tree.insert(Pattern.from_string("a{b1}***"), count=7)
        assert node.count == 7

    def test_insert_rejects_bad_count(self):
        tree = make_tree()
        with pytest.raises(MiningError):
            tree.insert(CMAX, count=0)

    def test_insert_rejects_non_subpattern(self):
        tree = make_tree()
        with pytest.raises(PatternError):
            tree.insert(Pattern.from_string("x****"))
        with pytest.raises(PatternError):
            tree.insert(Pattern.from_string("a***"))  # wrong period

    def test_insert_rejects_trivial(self):
        tree = make_tree()
        with pytest.raises(MiningError):
            tree.insert(Pattern.dont_care(5))

    def test_trivial_cmax_rejected(self):
        with pytest.raises(MiningError):
            MaxSubpatternTree(Pattern.dont_care(3))


class TestRetirement:
    """remove_mask: the exact inverse of insertion, with pruning."""

    def mask_of(self, tree: MaxSubpatternTree, spec: str) -> int:
        return tree.vocab.encode_letters(
            Pattern.from_string(spec).letters
        )

    def test_remove_is_exact_inverse_of_insert(self):
        tree = make_tree()
        mask = self.mask_of(tree, "a{b2}*d*")
        tree.insert_mask(mask, count=3)
        tree.remove_mask(mask)
        node = tree.find_node(Pattern.from_string("a{b2}*d*"))
        assert node.count == 2
        assert tree.total_hits == 2

    def test_zero_count_leaf_is_pruned(self):
        tree = make_tree()
        mask = self.mask_of(tree, "*{b1}*d*")
        tree.insert_mask(mask)
        nodes_with_hit = tree.node_count
        assert tree.hit_set_size == 1
        tree.remove_mask(mask)
        # Leaf and its zero-count intermediate both prune; root survives.
        assert tree.node_count < nodes_with_hit
        assert tree.node_count == 1
        assert tree.hit_set_size == 0
        assert tree.total_hits == 0

    def test_interior_node_with_children_survives_at_zero(self):
        tree = make_tree()
        parent_mask = self.mask_of(tree, "*{b1,b2}*d*")
        child_mask = self.mask_of(tree, "*{b1}*d*")
        tree.insert_mask(parent_mask)
        tree.insert_mask(child_mask)
        tree.remove_mask(parent_mask)
        # The parent's count is back to zero but its child still needs
        # the path: it must stay, exactly as insertion created it.
        parent = tree.find_node(Pattern.from_string("*{b1,b2}*d*"))
        assert parent is not None
        assert parent.count == 0
        assert tree.find_node(Pattern.from_string("*{b1}*d*")).count == 1

    def test_remove_unstored_mask_rejected(self):
        tree = make_tree()
        mask = self.mask_of(tree, "a{b2}*d*")
        with pytest.raises(MiningError, match="only 0 stored"):
            tree.remove_mask(mask)
        tree.insert_mask(mask)
        with pytest.raises(MiningError, match="only 1 stored"):
            tree.remove_mask(mask, count=2)

    def test_remove_rejects_bad_arguments(self):
        tree = make_tree()
        with pytest.raises(MiningError):
            tree.remove_mask(0b11, count=0)
        with pytest.raises(MiningError):
            tree.remove_mask(0)
        with pytest.raises(PatternError):
            tree.remove_mask(1 << 60)

    def test_reinsert_after_full_drain(self):
        tree = make_tree()
        mask = self.mask_of(tree, "a{b1,b2}***")
        tree.insert_mask(mask, count=2)
        tree.remove_mask(mask, count=2)
        tree.insert_mask(mask)
        assert tree.total_hits == 1
        assert tree.hit_set_size == 1

    def test_maintained_tree_equals_fresh_build(self):
        """Matched insert/remove pairs leave exactly the survivors' tree."""
        specs = [
            "a{b1}*d*",
            "*{b1,b2}*d*",
            "a{b2}***",
            "a{b1,b2}*d*",
            "*{b2}*d*",
        ]
        maintained = make_tree()
        masks = [self.mask_of(maintained, spec) for spec in specs]
        for mask in masks:
            maintained.insert_mask(mask)
        for mask in masks[:2]:
            maintained.remove_mask(mask)
        fresh = make_tree()
        for spec in specs[2:]:
            fresh.insert_mask(self.mask_of(fresh, spec))
        threshold_counts = maintained.derive_frequent(
            1, {letter: 5 for letter in CMAX.letters}
        )
        assert threshold_counts == fresh.derive_frequent(
            1, {letter: 5 for letter in CMAX.letters}
        )
        assert maintained.total_hits == fresh.total_hits
        assert maintained.hit_set_size == fresh.hit_set_size


class TestSegments:
    def segment(self, *slots):
        return tuple(frozenset(slot) for slot in slots)

    def test_hit_of_segment(self):
        tree = make_tree()
        segment = self.segment({"a"}, {"b2", "junk"}, {"x"}, {"d"}, set())
        assert tree.hit_of_segment(segment) == frozenset(
            {(0, "a"), (1, "b2"), (3, "d")}
        )

    def test_single_letter_hit_not_stored(self):
        tree = make_tree()
        series = FeatureSeries([{"a"}, set(), set(), set(), set()])
        assert tree.insert_all_segments(series) == 0
        assert tree.node_count == 1

    def test_empty_hit_not_stored(self):
        tree = make_tree()
        series = FeatureSeries([{"z"}, set(), set(), set(), set()])
        assert tree.insert_all_segments(series) == 0
        assert tree.total_hits == 0

    def test_insert_all_segments_counts_stored(self):
        series = FeatureSeries(
            [{"a"}, {"b1", "b2"}, set(), {"d"}, set()] * 3
            + [{"z"}, set(), set(), set(), set()]
        )
        tree = make_tree()
        stored = tree.insert_all_segments(series)
        assert stored == 3
        assert tree.total_hits == 3


class TestAncestors:
    def build_full_tree(self) -> MaxSubpatternTree:
        """Every non-trivial subpattern of C_max inserted once."""
        tree = make_tree()
        for sub in CMAX.subpatterns(min_letters=1):
            tree.insert(sub)
        return tree

    def test_linked_ancestors_are_prefix_chain(self):
        tree = self.build_full_tree()
        # Example 4.2: node ***d*+{b2}? — use *{b2}*d* (missing a, b1):
        node = tree.find_node(Pattern.from_string("*{b2}*d*"))
        linked = tree.linked_ancestors(node)
        assert [len(ancestor.missing) for ancestor in linked] == [1, 0]

    def test_example_4_2_reachable_ancestors(self):
        # Node **...*d* misses {a, b1, b2}: 3 linked (prefixes) and 4
        # not-linked proper-subset ancestors, 7 total.
        tree = self.build_full_tree()
        node = tree.find_node(Pattern.from_string("***d*"))
        assert node is not None
        reachable = tree.reachable_ancestors(node)
        linked = tree.linked_ancestors(node)
        assert len(linked) == 3
        assert len(reachable) == 7
        not_linked = {id(n) for n in reachable} - {id(n) for n in linked}
        assert len(not_linked) == 4

    def test_reachable_ancestors_only_existing_nodes(self):
        tree = make_tree()
        node = tree.insert(Pattern.from_string("*{b1}*d*"))
        reachable = tree.reachable_ancestors(node)
        # Only root and the ~a intermediate exist.
        assert len(reachable) == 2

    def test_count_of_equals_node_plus_reachable(self):
        tree = self.build_full_tree()
        node = tree.find_node(Pattern.from_string("*{b1}*d*"))
        reachable = tree.reachable_ancestors(node)
        expected = node.count + sum(ancestor.count for ancestor in reachable)
        assert tree.count_of(Pattern.from_string("*{b1}*d*")) == expected


class TestCounting:
    def test_example_4_3_style_arithmetic(self):
        # Hand-built tree with explicit counts; derived totals must be the
        # sums over superpattern nodes exactly as in Example 4.3.
        tree = tree_from_hits(
            CMAX,
            [
                (CMAX, 10),
                (Pattern.from_string("*{b1,b2}*d*"), 50),
                (Pattern.from_string("a{b2}*d*"), 40),
                (Pattern.from_string("a{b1}*d*"), 32),
                (Pattern.from_string("*{b1}*d*"), 8),
            ],
        )
        # a**d* is contained in every stored node's pattern:
        assert tree.count_of(Pattern.from_string("a**d*")) == 10 + 40 + 32
        # *b1*d*: contained in root, ~a-node, ab1*d*, itself:
        assert tree.count_of(Pattern.from_string("*{b1}*d*")) == 10 + 50 + 32 + 8
        # The full C_max only counts itself:
        assert tree.count_of(CMAX) == 10

    def test_count_of_rejects_single_letter(self):
        tree = make_tree()
        with pytest.raises(MiningError):
            tree.count_of(Pattern.from_string("a****"))

    def test_count_of_rejects_non_subpattern(self):
        tree = make_tree()
        with pytest.raises(PatternError):
            tree.count_of(Pattern.from_string("ax***"))

    def test_counts_match_brute_force_on_series(self):
        series = FeatureSeries(
            [
                {"a"}, {"b1", "b2"}, set(), {"d"}, set(),
                {"a"}, {"b2"}, set(), {"d"}, set(),
                set(), {"b1"}, set(), {"d"}, set(),
                {"a"}, {"b1"}, set(), set(), set(),
            ]
        )
        tree = make_tree()
        tree.insert_all_segments(series)
        oracle = counts_to_patterns(5, brute_force_counts(series, 5))
        for sub in CMAX.subpatterns(min_letters=2):
            assert tree.count_of(sub) == oracle.get(sub, 0), str(sub)  # repro: ignore[REP701] -- per-pattern oracle probe, not a counting hot path


class TestDerivation:
    def test_derive_frequent_levels(self):
        series = FeatureSeries(
            [{"a"}, {"b1", "b2"}, set(), {"d"}, set()] * 4
        )
        tree = make_tree()
        tree.insert_all_segments(series)
        f1 = {letter: 4 for letter in CMAX.letters}
        counts, candidate_counts = tree.derive_frequent(4, f1)
        # Everything co-occurs in every segment: all subsets are frequent.
        assert len(counts) == 2**4 - 1
        assert counts[CMAX.letters] == 4
        assert candidate_counts[1] == 4
        assert candidate_counts[4] == 1

    def test_derive_respects_threshold(self):
        tree = tree_from_hits(
            CMAX,
            [
                (Pattern.from_string("a{b1}***"), 3),
                (Pattern.from_string("a{b2}***"), 2),
            ],
        )
        f1 = {(0, "a"): 5, (1, "b1"): 3, (1, "b2"): 2, (3, "d"): 5}
        counts, _ = tree.derive_frequent(3, f1)
        assert counts[frozenset({(0, "a"), (1, "b1")})] == 3
        assert frozenset({(0, "a"), (1, "b2")}) not in counts

    def test_structure_stats(self):
        tree = make_tree()
        tree.insert(Pattern.from_string("a{b1}***"))
        tree.insert(Pattern.from_string("a{b1}***"))
        tree.insert(Pattern.from_string("a{b2}*d*"))
        assert tree.hit_set_size == 2
        assert tree.total_hits == 3
        assert tree.node_count >= 3

    def test_pattern_of_roundtrip(self):
        tree = make_tree()
        node = tree.insert(Pattern.from_string("a{b2}*d*"))
        assert tree.pattern_of(node) == Pattern.from_string("a{b2}*d*")
        assert tree.pattern_of(tree.root) == CMAX

    def test_repr(self):
        assert "C_max" in repr(make_tree())
