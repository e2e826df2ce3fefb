"""Deterministic merging of per-shard partial results.

Both states the hit-set miner derives from the data are associative and
commutative over disjoint segment sets:

* scan 1 produces a letter ``Counter`` — counters add;
* scan 2 produces per-segment hits — the max-subpattern tree's node counts
  add (:meth:`~repro.tree.max_subpattern_tree.MaxSubpatternTree.merge`).

So any grouping or ordering of shard merges yields the same totals, and the
merged state is *exactly* the serial miner's state — not an approximation.
The equivalence suite (``tests/test_engine.py``) asserts this letter for
letter against :func:`repro.core.hitset.mine_single_period_hitset`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from functools import reduce

from repro.core.errors import EngineError
from repro.core.pattern import Letter, Pattern
from repro.encoding.vocabulary import LetterVocabulary, remap_mask
from repro.tree.max_subpattern_tree import MaxSubpatternTree


def merge_counters(counters: Iterable[Counter]) -> Counter:
    """Sum partial letter counters (scan-1 state) into one.

    >>> merge_counters([Counter(a=1), Counter(a=2, b=1)])
    Counter({'a': 3, 'b': 1})
    """
    merged: Counter = Counter()
    for counter in counters:
        merged.update(counter)
    return merged


def merge_hit_counters(counters: Iterable[Counter]) -> Counter:
    """Sum partial hit-mask counters (scan-2 state) into one.

    All inputs must share one bit order (the run's sorted ``C_max``
    letters), which :class:`~repro.engine.parallel.ParallelMiner`
    guarantees by fixing the order before fan-out.
    """
    return merge_counters(counters)


def hits_to_tree(
    period: int,
    letter_order: Sequence[Letter],
    hit_counter: Mapping[int, int],
) -> MaxSubpatternTree:
    """Materialize a hit-mask counter as a max-subpattern tree.

    ``hit_counter`` is any mask-to-count mapping — a scan-2 ``Counter``
    from the workers or a plain dict loaded from the
    :class:`~repro.kernels.cache.CountCache`.

    One :meth:`~repro.tree.max_subpattern_tree.MaxSubpatternTree.insert_mask`
    per *distinct* mask — on periodic data distinct hits are far fewer than
    segments, so this is also where the engine's single-shard speed
    advantage over the per-segment serial insertion comes from.  When
    ``letter_order`` is already sorted (the engine always sorts before
    fan-out) its bit order coincides with the tree vocabulary's and masks
    insert untranslated; otherwise they are remapped first.
    """
    if not letter_order:
        raise EngineError("cannot build a tree for an empty C_max")
    tree = MaxSubpatternTree(Pattern.from_letters(period, letter_order))
    wire_vocab = LetterVocabulary(letter_order, period=period)
    if wire_vocab == tree.vocab:
        for mask, count in hit_counter.items():
            tree.insert_mask(mask, count=count)
    else:
        table = wire_vocab.remap_table(tree.vocab)
        for mask, count in hit_counter.items():
            tree.insert_mask(remap_mask(mask, table), count=count)
    return tree


def merge_trees(trees: Sequence[MaxSubpatternTree]) -> MaxSubpatternTree:
    """Fold partial trees left-to-right into the first one.

    The fold order does not affect any count (merging is commutative and
    associative); it only determines which tree object is mutated and
    returned.
    """
    if not trees:
        raise EngineError("no partial trees to merge")
    return reduce(lambda left, right: left.merge(right), trees)
