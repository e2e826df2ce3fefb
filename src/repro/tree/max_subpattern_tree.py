"""The max-subpattern tree (Section 4 of the paper).

The tree registers, for each period segment scanned, its *hit* — the maximal
subpattern of the candidate max-pattern ``C_max`` true in that segment
(Algorithm 4.1) — and afterwards lets us derive the frequency count of
*every* subpattern of ``C_max`` without touching the series again
(Algorithm 4.2).

Count semantics: a node's ``count`` is the number of segments whose hit is
*exactly* that node's pattern.  The total frequency count of a pattern ``X``
is the sum of counts over all nodes whose pattern is a superpattern of
``X`` — the node itself plus its *reachable ancestors* in the paper's
terminology.

Representation: every subpattern of ``C_max`` is an int bitmask over the
tree's :class:`~repro.encoding.vocabulary.LetterVocabulary` (the sorted
``C_max`` letters), and the node index is keyed by *missing-letter* masks.
Hit registration, merging, ancestor enumeration and derivation all run on
masks; letters reappear only at the API boundary (``hit_counts``,
``pattern_of``, ``derive_frequent`` results).

Following the paper, hits with fewer than two letters are not inserted: the
counts of 1-letter patterns are already known exactly from the F1 scan, and
a 1-letter node could never contribute to the count of any multi-letter
pattern.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping

from repro.core.counting import segment_letters
from repro.core.errors import EncodingError, MiningError, PatternError
from repro.core.pattern import Letter, Pattern
from repro.encoding.codec import SegmentEncoder
from repro.encoding.vocabulary import LetterVocabulary
from repro.kernels.batched import (
    MAX_TABLE_BITS,
    SubmaskCountTable,
    batched_count_masks,
    derive_frequent_masks,
)
from repro.tree.node import MaxSubpatternNode
from repro.timeseries.feature_series import FeatureSeries, Segment


class MaxSubpatternTree:
    """Hit registration and frequent-pattern derivation for one ``C_max``.

    Parameters
    ----------
    max_pattern:
        The candidate max-pattern built from the frequent 1-patterns
        (see :mod:`repro.core.maxpattern`).

    Examples
    --------
    >>> cmax = Pattern.from_string("a{b1,b2}*d*")
    >>> tree = MaxSubpatternTree(cmax)
    >>> _ = tree.insert(Pattern.from_string("a{b2}*d*"))
    >>> _ = tree.insert(Pattern.from_string("a{b1,b2}*d*"))
    >>> tree.count_of(Pattern.from_string("a**d*"))
    2
    """

    __slots__ = (
        "_max_pattern",
        "_letters",
        "_vocab",
        "_full_mask",
        "_root",
        "_index",
        "_total_hits",
        "_hit_set_size",
        "_stored_rows",
        "_hit_memo",
        "_count_table",
    )

    def __init__(self, max_pattern: Pattern):
        if max_pattern.is_trivial:
            raise MiningError("C_max must contain at least one letter")
        self._max_pattern = max_pattern
        self._letters = max_pattern.letters
        #: Bit order of every mask in the tree: sorted C_max letters.
        self._vocab = LetterVocabulary.from_letters(
            self._letters, period=max_pattern.period
        )
        self._full_mask = self._vocab.full_mask
        self._root = MaxSubpatternNode(())
        #: Index of every existing node by its missing-letter bitmask.
        self._index: dict[int, MaxSubpatternNode] = {0: self._root}
        self._total_hits = 0
        #: Nodes with non-zero count, maintained on insert (O(1) reads).
        self._hit_set_size = 0
        #: Memoized ``(missing_mask, count)`` rows of non-zero nodes;
        #: invalidated by any insert/merge (see :meth:`_insert_missing_mask`).
        self._stored_rows: list[tuple[int, int]] | None = None
        #: Memoized :meth:`hit_counts` result, same invalidation.
        self._hit_memo: dict[frozenset[Letter], int] | None = None
        #: Memoized superset-sum table over the full C_max universe, same
        #: invalidation; serves every batched count/derivation until the
        #: next insert (see :meth:`_superset_table`).
        self._count_table: SubmaskCountTable | None = None

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------

    @property
    def max_pattern(self) -> Pattern:
        """The candidate max-pattern at the root."""
        return self._max_pattern

    @property
    def vocab(self) -> LetterVocabulary:
        """The sorted ``C_max`` letter vocabulary fixing the bit order."""
        return self._vocab

    @property
    def root(self) -> MaxSubpatternNode:
        """The root node (pattern ``C_max``)."""
        return self._root

    @property
    def node_count(self) -> int:
        """Total nodes in the tree, including zero-count path nodes."""
        return len(self._index)

    @property
    def hit_set_size(self) -> int:
        """Nodes with a non-zero count — the size of the hit set.

        Maintained incrementally on insertion; reading it never scans the
        index.
        """
        return self._hit_set_size

    @property
    def total_hits(self) -> int:
        """Total segments registered (sum of all node counts)."""
        return self._total_hits

    def nodes(self) -> Iterator[MaxSubpatternNode]:
        """Iterate all nodes (arbitrary order)."""
        return iter(self._index.values())

    def pattern_of(self, node: MaxSubpatternNode) -> Pattern:
        """The pattern a node stands for: ``C_max`` minus its missing letters."""
        return Pattern.from_mask(
            self._vocab, self._full_mask & ~node.missing_mask
        )

    def find_node(self, pattern: Pattern) -> MaxSubpatternNode | None:
        """The node holding exactly this subpattern of ``C_max``, if present."""
        mask = self._mask_of(pattern)
        return self._index.get(self._full_mask & ~mask)

    # ------------------------------------------------------------------
    # Insertion — Algorithm 4.1
    # ------------------------------------------------------------------

    def insert(self, pattern: Pattern, count: int = 1) -> MaxSubpatternNode:
        """Register a hit max-subpattern (Algorithm 4.1).

        Walks from the root following the missing letters in canonical
        order, creating any absent nodes on the path with count 0, then
        bumps the target node's count.
        """
        if count < 1:
            raise MiningError(f"insert count must be >= 1, got {count}")
        mask = self._mask_of(pattern)
        if not mask:
            raise MiningError("cannot insert the empty (all-*) pattern")
        return self._insert_missing_mask(self._full_mask & ~mask, count)

    def insert_letters(
        self, letters: Iterable[Letter], count: int = 1
    ) -> MaxSubpatternNode:
        """Letter-set form of :meth:`insert` — no :class:`Pattern` needed.

        Callers that hold the hit as ``(offset, feature)`` letters skip the
        pattern construction entirely; callers that already hold it as a
        bitmask should use :meth:`insert_mask` instead.
        """
        if count < 1:
            raise MiningError(f"insert count must be >= 1, got {count}")
        letters = tuple(letters)
        try:
            mask = self._vocab.encode_letters(letters)
        except EncodingError:
            raise PatternError(
                f"letters {sorted(set(letters) - self._letters)} "
                "are not in C_max"
            ) from None
        if not mask:
            raise MiningError("cannot insert the empty (all-*) pattern")
        return self._insert_missing_mask(self._full_mask & ~mask, count)

    def insert_mask(self, mask: int, count: int = 1) -> MaxSubpatternNode:
        """Bitmask form of :meth:`insert` — the hot path.

        ``mask`` is the hit's letter set over :attr:`vocab`.  Repeated
        distinct hits cost one dict probe each; only the first occurrence
        of a hit walks/extends the tree.
        """
        if count < 1:
            raise MiningError(f"insert count must be >= 1, got {count}")
        if mask < 0 or mask & ~self._full_mask:
            raise PatternError(
                f"mask {mask:#x} has bits outside C_max "
                f"(full mask {self._full_mask:#x})"
            )
        if not mask:
            raise MiningError("cannot insert the empty (all-*) pattern")
        return self._insert_missing_mask(self._full_mask & ~mask, count)

    def _insert_missing_mask(
        self, missing_mask: int, count: int
    ) -> MaxSubpatternNode:
        """Bump the node of a missing-mask, creating its path if absent.

        The single mutation point of the tree (``insert``/``insert_mask``/
        ``merge`` all land here), so it is also where the memoized hit
        state invalidates.
        """
        node = self._index.get(missing_mask)
        if node is None:
            node = self._create_path(missing_mask)
        if not node.count:
            self._hit_set_size += 1
        node.count += count
        self._total_hits += count
        self._stored_rows = None
        self._hit_memo = None
        self._count_table = None
        return node

    def _create_path(self, missing_mask: int) -> MaxSubpatternNode:
        """Walk/extend the root path of a missing-mask (Algorithm 4.1).

        Missing tuples are sorted along every path, and bit order equals
        sorted-letter order, so the path's prefixes are exactly the
        ascending-bit prefixes of ``missing_mask`` — each already indexed
        or created here.
        """
        vocab = self._vocab
        index = self._index
        node = self._root
        prefix = 0
        remaining = missing_mask
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            prefix |= low
            existing = index.get(prefix)
            if existing is None:
                existing = node.add_child(vocab[low.bit_length() - 1], bit=low)
                index[prefix] = existing
            node = existing
        return node

    # ------------------------------------------------------------------
    # Retirement — exact inverse of insertion
    # ------------------------------------------------------------------

    def remove_mask(self, mask: int, count: int = 1) -> None:
        """Unregister ``count`` previously inserted hits (exact inverse).

        The retirement half of windowed streaming: a segment leaving the
        window subtracts exactly the hit it contributed on entry, so a
        tree maintained by matched ``insert_mask``/``remove_mask`` pairs
        equals one freshly built from the surviving segments (a tested
        invariant).  Removing more than was inserted raises — counts can
        never silently go negative.

        Nodes whose count returns to zero are pruned when they are leaves,
        ascending the path while the ancestors are themselves empty
        childless non-roots; interior nodes stay as zero-count path nodes,
        exactly as insertion would have created them.
        """
        if count < 1:
            raise MiningError(f"remove count must be >= 1, got {count}")
        if mask < 0 or mask & ~self._full_mask:
            raise PatternError(
                f"mask {mask:#x} has bits outside C_max "
                f"(full mask {self._full_mask:#x})"
            )
        if not mask:
            raise MiningError("cannot remove the empty (all-*) pattern")
        missing_mask = self._full_mask & ~mask
        node = self._index.get(missing_mask)
        if node is None or node.count < count:
            stored = 0 if node is None else node.count
            raise MiningError(
                f"cannot remove {count} hit(s) of mask {mask:#x}: "
                f"only {stored} stored"
            )
        node.count -= count
        self._total_hits -= count
        if not node.count:
            self._hit_set_size -= 1
            self._prune(node, missing_mask)
        self._stored_rows = None
        self._hit_memo = None
        self._count_table = None

    def _prune(self, node: MaxSubpatternNode, missing_mask: int) -> None:
        """Drop a zero-count leaf and any emptied ancestors above it.

        Mirrors :meth:`_create_path`: each node's index key is its
        ancestor prefix of ``missing_mask``, so ascending strips the
        highest set bit per step.
        """
        index = self._index
        while (
            not node.count
            and not node.children
            and node.parent is not None
        ):
            parent = node.parent
            del parent.children[node.missing[-1]]
            del index[missing_mask]
            missing_mask &= ~(1 << (missing_mask.bit_length() - 1))
            node = parent

    def hit_of_segment(self, segment: Segment) -> frozenset[Letter]:
        """The hit of a segment: its letters intersected with ``C_max``'s."""
        return segment_letters(segment) & self._letters

    def insert_segment(self, segment: Segment) -> MaxSubpatternNode | None:
        """Compute a segment's hit and register it if it has >= 2 letters.

        Returns the updated node, or ``None`` when the hit was empty or a
        single letter (1-letter counts live in the F1 scan, not the tree).
        """
        hit = self.hit_of_segment(segment)
        if len(hit) < 2:
            return None
        return self.insert(
            Pattern.from_letters(self._max_pattern.period, hit)
        )

    def insert_all_segments(self, series: FeatureSeries) -> int:
        """Scan 2 of Algorithm 3.2, standalone: register every segment's hit.

        Encodes each segment into a bitmask
        (:class:`~repro.encoding.codec.SegmentEncoder` projects onto the
        ``C_max`` letters as a side effect), collapses identical hits in a
        counter, and inserts once per *distinct* hit — on periodic data
        distinct hits are far fewer than segments.

        No miner calls this: production scan 2 runs in
        :mod:`repro.core.hitset`.  It stays as the scan 2 of the test
        suite's per-candidate reference miner and as the comparator the
        benchmarks time production against.

        Returns the number of segments whose hit was stored.
        """
        encoder = SegmentEncoder(self._vocab)
        hits: Counter = Counter()
        for segment in series.segments(self._max_pattern.period):
            mask = encoder.encode_segment(segment)
            if mask & (mask - 1):  # at least two bits set
                hits[mask] += 1
        full_mask = self._full_mask
        stored = 0
        for mask, count in hits.items():
            self._insert_missing_mask(full_mask & ~mask, count)
            stored += count
        return stored

    def _missing_rows(self) -> list[tuple[int, int]]:
        """Memoized ``(missing_mask, count)`` rows of the non-zero nodes.

        Built once per tree state and shared by every counting entry point,
        so repeated ``count_of_mask`` calls never rescan the index.
        """
        rows = self._stored_rows
        if rows is None:
            rows = [
                (node.missing_mask, node.count)
                for node in self._index.values()
                if node.count
            ]
            self._stored_rows = rows
        return rows

    def stored_hits(self) -> dict[int, int]:
        """The stored hits as ``{hit mask: count}`` over :attr:`vocab`.

        The bitmask twin of :meth:`hit_counts` — the table the
        :class:`~repro.kernels.cache.CountCache` memoizes and the batched
        kernels consume.
        """
        full_mask = self._full_mask
        return {
            full_mask & ~missing: count
            for missing, count in self._missing_rows()
        }

    def hit_counts(self) -> dict[frozenset[Letter], int]:
        """The stored hits as ``{pattern letters: exact-hit count}``.

        Only nodes with a non-zero count appear; this is the complete
        mergeable state of the tree (rebuilding a tree from it and merging
        is equivalent to merging the tree itself).  The decoded mapping is
        memoized until the next insert/merge; callers get a fresh shallow
        copy each time.
        """
        memo = self._hit_memo
        if memo is None:
            vocab = self._vocab
            full_mask = self._full_mask
            memo = {
                vocab.decode_mask(full_mask & ~missing): count
                for missing, count in self._missing_rows()
            }
            self._hit_memo = memo
        return dict(memo)

    # ------------------------------------------------------------------
    # Ancestors
    # ------------------------------------------------------------------

    def linked_ancestors(
        self, node: MaxSubpatternNode
    ) -> list[MaxSubpatternNode]:
        """Ancestors on the physical path to the root (missing prefixes)."""
        ancestors: list[MaxSubpatternNode] = []
        current = node.parent
        while current is not None:
            ancestors.append(current)
            current = current.parent
        return ancestors

    def reachable_ancestors(
        self, node: MaxSubpatternNode
    ) -> list[MaxSubpatternNode]:
        """All existing nodes whose pattern properly contains the node's.

        These are the nodes whose missing set is a proper subset of the
        node's missing set — including the not-physically-linked ones the
        paper's Example 4.2 walks through.  Proper submasks are enumerated
        directly via ``sub = (sub - 1) & mask``; past 20 missing letters a
        scan of the (far smaller) index takes over.
        """
        missing_mask = node.missing_mask
        if not missing_mask:
            return []  # the root misses nothing; no proper submasks exist
        if missing_mask.bit_count() <= 20:
            found: list[MaxSubpatternNode] = []
            index = self._index
            sub = (missing_mask - 1) & missing_mask
            while True:
                candidate = index.get(sub)
                if candidate is not None:
                    found.append(candidate)
                if not sub:
                    return found
                sub = (sub - 1) & missing_mask
        return [
            candidate
            for key, candidate in self._index.items()
            if key != missing_mask and key | missing_mask == missing_mask
        ]

    # ------------------------------------------------------------------
    # Counting and derivation — Algorithm 4.2
    # ------------------------------------------------------------------

    def count_of(self, pattern: Pattern) -> int:
        """Frequency count of any subpattern of ``C_max`` (letters >= 2).

        Sums the counts of the node itself and all its reachable
        ancestors — equivalently, of every stored node whose missing set is
        disjoint from the pattern's letters.

        1-letter patterns are intentionally rejected: their exact counts
        come from the F1 scan and are not represented in the tree.
        """
        mask = self._mask_of(pattern)
        if mask.bit_count() < 2:
            raise MiningError(
                "the tree only counts patterns with >= 2 letters; "
                "1-pattern counts come from the F1 scan"
            )
        return self.count_of_mask(mask)

    def count_of_letters(self, letters: Iterable[Letter]) -> int:
        """Letter-set form of :meth:`count_of` (no size validation)."""
        return self.count_of_mask(self._vocab.encode_letters(letters))

    def count_of_mask(self, mask: int) -> int:
        """Bitmask form of :meth:`count_of` — the hot lookup.

        One ``candidate & missing == 0`` disjointness test per stored
        (memoized) row.  Batch queries over a whole candidate set should
        use :meth:`count_masks` instead, which never loops candidates
        times stored rows.
        """
        total = 0
        for missing_mask, count in self._missing_rows():
            if not mask & missing_mask:
                total += count
        return total

    def _superset_table(self) -> SubmaskCountTable | None:
        """Memoized superset-sum table over the full C_max universe.

        Built on first batched count/derivation and reused until the next
        insert/merge (the same invalidation as the other memos), so
        repeated derivations — threshold sweeps, re-queries — pay the table
        build once.  ``None`` when C_max is too wide for a dense table; the
        callers then fall back to the sparse projection kernel.
        """
        if self._full_mask.bit_count() > MAX_TABLE_BITS:
            return None
        table = self._count_table
        if table is None:
            table = SubmaskCountTable.from_hits(
                self.stored_hits().items(), self._full_mask
            )
            self._count_table = table
        return table

    def count_masks(self, masks: Iterable[int]) -> dict[int, int]:
        """Counts of a whole candidate mask set in one bottom-up pass.

        The batched form of :meth:`count_of_mask`: answers from the
        memoized full-universe superset-sum table when C_max fits one,
        falling back to :func:`repro.kernels.batched.batched_count_masks`
        (the sparse projection kernel) otherwise — never a loop of
        candidates times stored rows.
        """
        table = self._superset_table()
        if table is not None:
            return table.counts(masks)
        return batched_count_masks(
            self.stored_hits().items(), list(masks)
        )

    def derive_frequent(
        self,
        threshold: int,
        f1_counts: Mapping[Letter, int],
        max_letters: int | None = None,
    ) -> tuple[dict[frozenset[Letter], int], dict[int, int]]:
        """Algorithm 4.2: all frequent patterns from the hit counts.

        Level-wise Apriori over the tree: level 1 is ``F1`` (counts from the
        first scan), level k+1 candidates come from apriori-gen on level k
        and are counted against the stored hits.  The whole derivation runs
        on bitmasks (candidate generation included); results decode to
        letter sets once, on return.

        Every level is answered from one superset-sum pass over the stored
        hits (:func:`repro.kernels.batched.derive_frequent_masks`), never
        a loop of candidates times stored rows.

        ``max_letters`` optionally caps the derived pattern size.  The
        complete frequent set is exponential on degenerate inputs (e.g. a
        feature present at every offset of every segment), so callers that
        only need short patterns should cap the derivation.

        Returns
        -------
        (counts, candidate_counts):
            ``counts`` maps each frequent letter set to its frequency count;
            ``candidate_counts`` records candidates examined per level for
            the cost statistics.
        """
        vocab = self._vocab
        f1_bit_counts = {
            vocab.bit_of(letter): count for letter, count in f1_counts.items()
        }
        # The memoized full-universe table always covers F1 (F1 letters
        # are C_max letters), so the hit rows are only materialized when
        # no dense table exists.
        table = self._superset_table()
        hits = () if table is not None else self.stored_hits().items()
        mask_counts, candidate_counts = derive_frequent_masks(
            hits,
            threshold,
            f1_bit_counts,
            max_letters=max_letters,
            table=table,
        )
        counts = {
            vocab.decode_mask(mask): count
            for mask, count in mask_counts.items()
        }
        return counts, candidate_counts

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _mask_of(self, pattern: Pattern) -> int:
        """A subpattern's bitmask over the tree vocabulary, validated."""
        if pattern.period != self._max_pattern.period:
            raise PatternError(
                f"pattern period {pattern.period} != tree period "
                f"{self._max_pattern.period}"
            )
        try:
            return self._vocab.encode_letters(pattern.letters)
        except EncodingError:
            raise PatternError(
                f"{pattern} is not a subpattern of C_max"
            ) from None

    def __repr__(self) -> str:
        return (
            f"MaxSubpatternTree(C_max={self._max_pattern}, "
            f"nodes={self.node_count}, hits={self.hit_set_size})"
        )


def tree_from_hits(
    max_pattern: Pattern,
    hits: Iterable[tuple[Pattern, int]],
) -> MaxSubpatternTree:
    """Build a tree directly from ``(pattern, count)`` pairs (test helper)."""
    tree = MaxSubpatternTree(max_pattern)
    for pattern, count in hits:
        tree.insert(pattern, count)
    return tree
