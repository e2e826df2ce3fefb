"""The hit table: scan 2's state, and the derivation from it (Alg. 4.2).

Algorithm 3.2 registers each segment's *hit* (its letters within the
candidate max-pattern ``C_max``) and Algorithm 4.2 derives every
frequency count from those hits alone: a pattern's count is the summed
count of the stored hits containing it.  The max-subpattern tree of
Algorithm 4.1 (:mod:`repro.tree`) stores each distinct hit in a node and
adds zero-count nodes for the path prefixes, none of which a count
reads.  Production mining therefore keeps only a :class:`HitTable`: the
distinct hits as ``{hit mask: count}`` over the sorted ``C_max``
vocabulary, derived from in one superset-sum pass per run
(:func:`~repro.kernels.batched.derive_frequent_masks`).  The tree stays
as the reference the tests hold this table to.

``MiningStats.tree_nodes`` still reports the node count Algorithm 4.1
would build for the same hits (:func:`tree_node_count`), so results read
the same as when the tree was built.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.core.errors import MiningError
from repro.core.pattern import Letter, Pattern
from repro.encoding.vocabulary import LetterVocabulary
from repro.kernels.batched import derive_frequent_masks


def tree_node_count(hits: Iterable[int], full_mask: int) -> int:
    """The nodes of the max-subpattern tree holding exactly these hits.

    A hit's node is keyed by its missing mask, ``full_mask & ~hit``, and
    Algorithm 4.1 walks the missing letters in ascending bit order, so
    the node's ancestors are the missing mask's ascending-bit prefixes:
    strip the highest bit to reach the parent.  The tree is the root
    plus that prefix closure of every stored hit (removal prunes
    emptied leaves, so no other node survives).  Each walk stops at the
    first prefix already counted.
    """
    nodes = {0}
    for hit in hits:
        missing = full_mask & ~hit
        while missing not in nodes:
            nodes.add(missing)
            missing ^= 1 << (missing.bit_length() - 1)
    return len(nodes)


class HitTable:
    """The distinct hits of one ``C_max`` as ``{hit mask: count}``.

    ``vocab`` is the sorted ``C_max`` vocabulary (carrying the period)
    that fixes the bit order; ``hits`` maps each distinct hit mask over
    it to its number of segments.  Scan 2 builds the table in one go;
    the streaming window keeps one across windows with :meth:`add` and
    :meth:`remove`.
    """

    __slots__ = ("vocab", "hits")

    def __init__(
        self, vocab: LetterVocabulary, hits: dict[int, int] | None = None
    ) -> None:
        self.vocab = vocab
        self.hits: dict[int, int] = {} if hits is None else hits

    @classmethod
    def over(cls, period: int, letters: Iterable[Letter]) -> "HitTable":
        """An empty table over the sorted vocabulary of the ``C_max`` letters."""
        return cls(LetterVocabulary.from_letters(letters, period=period))

    def add(self, hit: int) -> None:
        """Register one more segment with this hit."""
        hits = self.hits
        hits[hit] = hits.get(hit, 0) + 1

    def remove(self, hit: int) -> None:
        """Unregister one segment with this hit; the key drops at zero.

        Removing a hit that is not stored raises, so counts never go
        negative.
        """
        hits = self.hits
        stored = hits.get(hit, 0)
        if not stored:
            raise MiningError(f"cannot remove hit {hit:#x}: it is not stored")
        if stored == 1:
            del hits[hit]
        else:
            hits[hit] = stored - 1

    def node_count(self) -> int:
        """The node count of the equivalent max-subpattern tree."""
        return tree_node_count(self.hits, self.vocab.full_mask)

    def derive(
        self,
        threshold: int,
        f1_counts: Mapping[Letter, int],
        max_letters: int | None = None,
    ) -> tuple[dict[Pattern, int], dict[int, int]]:
        """Algorithm 4.2: every frequent pattern, from the hits alone.

        Level 1 is ``F1`` (counts from scan 1, which holds exactly the
        ``C_max`` letters); each further level's candidates come from
        apriori-gen and are counted against the hits by the batched
        kernel.  ``max_letters`` optionally caps the pattern size.
        Returns the frequent patterns with their counts, and the
        candidates examined per level.
        """
        vocab = self.vocab
        period = vocab.period
        assert period is not None
        mask_counts, candidate_counts = derive_frequent_masks(
            self.hits.items(),
            threshold,
            {vocab.bit_of(letter): count for letter, count in f1_counts.items()},
            max_letters=max_letters,
        )
        patterns = {
            Pattern.from_letters(period, vocab.decode_mask(mask)): count
            for mask, count in mask_counts.items()
        }
        return patterns, candidate_counts

    def __repr__(self) -> str:
        return f"HitTable(letters={len(self.vocab)}, hits={len(self.hits)})"
