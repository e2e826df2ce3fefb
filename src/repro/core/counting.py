"""Frequency counting primitives and the brute-force reference counter.

Definitions from Section 2 of the paper: for a pattern ``s`` of period ``p``
over a series of length ``N``, ``m = floor(N/p)`` whole period segments are
considered; ``frequency_count(s)`` is the number of segments in which ``s``
is true and ``confidence(s) = frequency_count(s) / m``.  A pattern is
frequent iff its confidence is at least ``min_conf``.

The brute-force counter here enumerates, per segment, every subpattern of
that segment's letter set.  It never uses the Apriori property or the
max-subpattern tree, so it is an independent oracle for testing both mining
algorithms.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Collection, Iterable, Mapping
from itertools import chain

from repro.core.errors import MiningError
from repro.core.pattern import Letter, Pattern
from repro.encoding.vocabulary import LetterVocabulary
from repro.timeseries.feature_series import FeatureSeries, Segment

#: Float slack used when translating a confidence threshold into an integer
#: count threshold, guarding against representation error in products like
#: ``0.3 * 10``.
_CONF_EPSILON = 1e-9


def check_min_conf(min_conf: float) -> None:
    """Validate a confidence threshold (must be in ``(0, 1]``)."""
    if not 0.0 < min_conf <= 1.0:
        raise MiningError(f"min_conf must be in (0, 1], got {min_conf}")


def min_count(min_conf: float, num_periods: int) -> int:
    """Smallest frequency count whose confidence reaches ``min_conf``.

    >>> min_count(0.5, 10)
    5
    >>> min_count(0.34, 3)
    2
    """
    check_min_conf(min_conf)
    if num_periods < 0:
        raise MiningError(f"num_periods must be >= 0, got {num_periods}")
    threshold = math.ceil(min_conf * num_periods - _CONF_EPSILON)
    return max(threshold, 1)


def segment_letters(segment: Segment) -> frozenset[Letter]:
    """The letter set of a period segment: all ``(offset, feature)`` pairs."""
    return frozenset(
        (offset, feature) for offset, slot in enumerate(segment) for feature in slot
    )


def vocabulary_of_series(
    series: FeatureSeries, period: int
) -> LetterVocabulary:
    """The canonical (sorted) vocabulary of every letter in the series."""
    letters: set[Letter] = set()
    for segment in series.segments(period):
        letters.update(segment_letters(segment))
    return LetterVocabulary.from_letters(letters, period=period)


def count_pattern(series: FeatureSeries, pattern: Pattern) -> int:
    """Frequency count of one pattern (single scan; the definitional count)."""
    return sum(1 for segment in series.segments(pattern.period) if pattern.matches(segment))


def confidence(series: FeatureSeries, pattern: Pattern) -> float:
    """Confidence of one pattern: ``frequency_count / num_periods``."""
    num_periods = series.num_periods(pattern.period)
    if num_periods == 0:
        raise MiningError(
            f"series of length {len(series)} has no whole period of {pattern.period}"
        )
    return count_pattern(series, pattern) / num_periods


def count_candidates(
    series: FeatureSeries,
    period: int,
    candidates: Collection[frozenset[Letter]],
) -> Counter:
    """Count many letter-set candidates in one scan of the series.

    Returns a :class:`collections.Counter` mapping each candidate to its
    frequency count (missing candidates have count 0).

    Internally each candidate becomes an integer bitmask over a canonical
    :class:`~repro.encoding.vocabulary.LetterVocabulary` of the candidate
    letters, so the per-segment subset test is a single
    ``mask & ~segment == 0`` — the hot loop of Algorithm 3.1 (see
    :func:`count_candidate_masks`).
    """
    counts: Counter = Counter()
    if not candidates:
        return counts
    candidate_list = list(candidates)
    # Letters at offsets outside the period can never occur in a segment;
    # keep them out of the vocabulary and give their candidates count 0.
    in_range = [
        candidate
        for candidate in candidate_list
        if all(0 <= offset < period for offset, _ in candidate)
    ]
    vocab = LetterVocabulary.from_letters(
        chain.from_iterable(in_range), period=period
    )
    mask_of = {
        candidate: vocab.encode_letters(candidate) for candidate in in_range
    }
    mask_counts = count_candidate_masks(series, period, mask_of.values(), vocab)
    for candidate in candidate_list:
        mask = mask_of.get(candidate)
        counts[candidate] = 0 if mask is None else mask_counts[mask]
    return counts


def count_candidate_masks(
    series: FeatureSeries,
    period: int,
    masks: Iterable[int],
    vocab: LetterVocabulary,
) -> dict[int, int]:
    """Count candidate bitmasks in one scan — the encoded counting kernel.

    ``masks`` are candidate letter sets over ``vocab``; the result maps
    each distinct mask to its frequency count.  The scan builds a
    :class:`~repro.kernels.store.SegmentStore` over ``vocab`` and answers
    the whole candidate set through :meth:`SegmentStore.count_masks` —
    never a candidates-times-segments loop.  A letter of ``vocab`` the
    series never holds has no bit in any row, so its candidates count 0.
    """
    # Local import: repro.kernels pulls in higher layers and counting
    # sits near the bottom of the package import graph.
    from repro.kernels.store import SegmentStore

    ordered = list(dict.fromkeys(masks))
    if not ordered:
        return {}
    return SegmentStore.from_series(series, period, vocab).count_masks(ordered)


def brute_force_counts(
    series: FeatureSeries,
    period: int,
    max_subsets_per_segment: int = 1 << 20,
) -> dict[frozenset[Letter], int]:
    """Count *every* non-trivial pattern with a non-zero frequency count.

    For each segment, enumerates all non-empty subsets of the segment's
    letter set and increments their counts.  Patterns that match no segment
    are absent (their count is 0 by definition).

    This is exponential in the letters per segment and intended as a test
    oracle on small inputs; ``max_subsets_per_segment`` guards against
    accidental blow-ups.
    """
    counts: dict[frozenset[Letter], int] = {}
    for segment in series.segments(period):
        letters = sorted(segment_letters(segment))
        total = len(letters)
        if 1 << total > max_subsets_per_segment:
            raise MiningError(
                f"segment has {total} letters; "
                f"2**{total} subsets exceed the oracle limit"
            )
        for mask in range(1, 1 << total):
            subset = frozenset(
                letters[index] for index in range(total) if mask >> index & 1
            )
            counts[subset] = counts.get(subset, 0) + 1
    return counts


def brute_force_frequent(
    series: FeatureSeries,
    period: int,
    min_conf: float,
) -> dict[Pattern, int]:
    """All frequent patterns with their counts, by exhaustive enumeration.

    The independent oracle used by the test suite to validate Algorithm 3.1
    and Algorithm 3.2.
    """
    num_periods = series.num_periods(period)
    if num_periods == 0:
        raise MiningError(
            f"series of length {len(series)} has no whole period of {period}"
        )
    threshold = min_count(min_conf, num_periods)
    return {
        Pattern.from_letters(period, letters): count
        for letters, count in brute_force_counts(series, period).items()
        if count >= threshold
    }


def counts_to_patterns(
    period: int, counts: Mapping[frozenset[Letter], int]
) -> dict[Pattern, int]:
    """Convert a letter-set count mapping into a :class:`Pattern` mapping."""
    return {
        Pattern.from_letters(period, letters): count
        for letters, count in counts.items()
    }


def letter_counts_for_segments(
    segments: Iterable[Segment],
) -> Counter:
    """Count each individual letter over an iterable of segments.

    This is the Step-1 counting kernel shared by every miner: one pass,
    one counter bump per (offset, feature) occurrence per segment.
    """
    counts: Counter = Counter()
    for segment in segments:
        counts.update(segment_letters(segment))
    return counts


def frequent_letter_set(
    letter_counts: Mapping[Letter, int], threshold: int
) -> dict[Letter, int]:
    """Filter a letter-count mapping down to the frequent letters (F1)."""
    return {
        letter: count
        for letter, count in letter_counts.items()
        if count >= threshold
    }


def pattern_counts_table(
    counts: Mapping[Pattern, int], num_periods: int
) -> list[tuple[str, int, float]]:
    """Sorted report rows ``(pattern, count, confidence)`` for display."""
    if num_periods <= 0:
        raise MiningError(f"num_periods must be positive, got {num_periods}")
    rows = [
        (str(pattern), count, count / num_periods)
        for pattern, count in counts.items()
    ]
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows
