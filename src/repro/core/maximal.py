"""Maximal frequent pattern mining.

Section 4 of the paper notes that users are often only interested in the
*maximal* frequent patterns — the frequent patterns with no frequent proper
superpattern — and sketches (Section 5 end) a hybrid of the max-subpattern
hit-set method with Bayardo's MaxMiner that avoids MaxMiner's repeated
scans: count lookups are served by scan 2's hit table, so the whole search
still costs exactly two scans of the series.

This module provides both the standalone maximality filter and that hybrid
miner (:func:`mine_maximal_hitset`): a set-enumeration search over the F1
letters with MaxMiner's "lookahead" — if ``head ∪ tail`` is frequent, the
entire subtree collapses into a single maximal candidate.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.counting import check_min_conf
from repro.core.hitset import _series_scans, _two_scans
from repro.core.hittable import HitTable
from repro.core.maxpattern import FrequentOnePatterns
from repro.core.pattern import Pattern
from repro.core.result import MiningResult
from repro.timeseries.feature_series import FeatureSeries


def maximal_patterns(counts: Mapping[Pattern, int]) -> dict[Pattern, int]:
    """Filter a frequent-pattern mapping down to its maximal members.

    A pattern is kept iff no other pattern in the mapping has a strictly
    larger letter set containing it.
    """
    by_size = sorted(counts, key=lambda pattern: -pattern.letter_count)
    maximal: list[Pattern] = []
    result: dict[Pattern, int] = {}
    for pattern in by_size:
        if any(pattern.letters < kept.letters for kept in maximal):
            continue
        maximal.append(pattern)
        result[pattern] = counts[pattern]
    return result


def mine_maximal_hitset(
    series: FeatureSeries,
    period: int,
    min_conf: float,
) -> MiningResult:
    """Mine only the maximal frequent patterns in two scans.

    Runs the two scans of Algorithm 3.2 to fill the hit table, then
    performs a MaxMiner-style set-enumeration search over the F1 letters
    where every count lookup is answered from the stored hits.  The
    search runs on bitmasks over the table's vocabulary.  An empty F1 stops
    after scan 1 with an empty result.

    Returns
    -------
    MiningResult
        ``algorithm="maximal-hitset"``; the counts mapping contains exactly
        the maximal frequent patterns.
    """
    check_min_conf(min_conf)
    one_patterns, table, stats = _two_scans(_series_scans(series, period), min_conf)
    counts: dict[Pattern, int] = {}
    if table is not None:
        counts, lookups = _search_maximal(table, one_patterns)
        stats.tree_nodes = table.node_count()
        stats.hit_set_size = len(table.hits)
        stats.candidate_counts = {0: lookups}
    return MiningResult(
        algorithm="maximal-hitset",
        period=period,
        min_conf=min_conf,
        num_periods=one_patterns.num_periods,
        counts=counts,
        stats=stats,
    )


def _search_maximal(
    table: HitTable, one_patterns: FrequentOnePatterns
) -> tuple[dict[Pattern, int], int]:
    """MaxMiner's search over the F1 letters: the maximal set and lookups."""
    threshold = one_patterns.threshold
    f1_counts = one_patterns.letters
    vocab = table.vocab
    # F1 and the C_max letters coincide, so every candidate the search
    # touches is a submask of the table's full mask.
    bits = [vocab.bit_of(letter) for letter in sorted(f1_counts)]
    f1_count_of_bit = {
        vocab.bit_of(letter): count for letter, count in f1_counts.items()
    }
    full_mask = vocab.full_mask
    stored = [(full_mask & ~hit, count) for hit, count in table.hits.items()]
    lookups = 0

    def frequency(candidate: int) -> int:
        """Exact count: F1 for singletons, hit-derived for larger masks."""
        nonlocal lookups
        lookups += 1
        if not candidate & (candidate - 1):
            return f1_count_of_bit[candidate]
        total = 0
        for missing_mask, count in stored:
            if not candidate & missing_mask:
                total += count
        return total

    found: dict[int, int] = {}

    def already_covered(candidate: int) -> bool:
        return any(not candidate & ~kept for kept in found)

    def union_of(head: int, tail: list[int]) -> int:
        for bit in tail:
            head |= bit
        return head

    def search(head: int, tail: list[int]) -> None:
        union = union_of(head, tail)
        if already_covered(union):
            return
        if tail:
            union_count = frequency(union)
            if union_count >= threshold:
                # MaxMiner lookahead: the whole subtree is frequent.
                found[union] = union_count
                return
        extended = False
        for index, bit in enumerate(tail):
            new_head = head | bit
            if frequency(new_head) >= threshold:
                extended = True
                search(new_head, tail[index + 1 :])
        if not extended and head and not already_covered(head):
            found[head] = frequency(head)

    search(0, bits)

    counts = maximal_patterns(
        {
            Pattern.from_mask(vocab, mask): count
            for mask, count in found.items()
        }
    )
    return counts, lookups
