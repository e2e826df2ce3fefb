"""Slow reference miners and series shapes for the equivalence suites.

The production miner counts on the batched kernels (in-memory series) or
the columnar kernels (store inputs).  The references below share none of
that counting code: each one re-reads the paper's algorithm literally, so
the suites can hold production output letter-identical to more than the
brute-force oracle in :mod:`repro.core.counting`.  :func:`packed_series`
and :func:`wide_series` build the two sides of the 64-letter store
column.
:func:`per_line_load` is the series-file format read one line at a time,
the reference for the validate-once loader in :mod:`repro.timeseries.io`.
"""

from __future__ import annotations

import random
from pathlib import Path

from repro.core.candidates import generate_candidate_masks, generate_candidates
from repro.core.counting import segment_letters
from repro.core.errors import SeriesError
from repro.core.maxpattern import find_frequent_one_patterns
from repro.core.pattern import Letter, Pattern
from repro.timeseries.feature_series import FeatureSeries
from repro.tree.max_subpattern_tree import MaxSubpatternTree


def per_candidate_mine(
    series: FeatureSeries,
    period: int,
    min_conf: float,
    max_letters: int | None = None,
) -> dict[Pattern, int]:
    """Algorithm 3.2 with Algorithm 4.2 read literally.

    Both scans fill a max-subpattern tree, then every candidate of every
    level is counted by its own pass over the stored hits
    (:meth:`MaxSubpatternTree.count_of_mask`) instead of the batched
    superset-sum table.
    """
    one = find_frequent_one_patterns(series, period, min_conf)
    if one.is_empty:
        return {}
    tree = MaxSubpatternTree(one.max_pattern)
    tree.insert_all_segments(series)
    vocab = tree.vocab
    counts = {vocab.bit_of(letter): c for letter, c in one.letters.items()}
    level_masks = set(counts)
    level = 1
    while level_masks and (max_letters is None or level < max_letters):
        level += 1
        next_level = set()
        for candidate in generate_candidate_masks(level_masks):
            total = tree.count_of_mask(candidate)  # repro: ignore[REP701] -- the per-candidate walk is the point of this reference
            if total >= one.threshold:
                counts[candidate] = total
                next_level.add(candidate)
        level_masks = next_level
    return {Pattern.from_mask(vocab, mask): c for mask, c in counts.items()}


def letter_set_apriori(
    series: FeatureSeries, period: int, min_conf: float
) -> dict[Pattern, int]:
    """Algorithm 3.1 on letter sets: one pass over the segments per level.

    Candidates are ``frozenset`` letter sets counted by a subset test
    against each segment's letters — no bitmask encoding anywhere.
    """
    one = find_frequent_one_patterns(series, period, min_conf)
    segments = [segment_letters(s) for s in series.segments(period)]
    counts: dict[frozenset[Letter], int] = {
        frozenset((letter,)): c for letter, c in one.letters.items()
    }
    level = set(counts)
    while level:
        next_level = set()
        for candidate in generate_candidates(level):
            total = sum(1 for letters in segments if candidate <= letters)
            if total >= one.threshold:
                counts[candidate] = total
                next_level.add(candidate)
        level = next_level
    return {Pattern.from_letters(period, ls): c for ls, c in counts.items()}


def packed_series(seed: int, length: int = 60, features: int = 4) -> FeatureSeries:
    """A small random series with empty and multi-feature slots.

    Its vocabulary stays far below the 64-letter store column at the
    periods the suites mine (``features * period`` letters at most).
    """
    rng = random.Random(seed)
    alphabet = [f"f{i}" for i in range(features)]
    return FeatureSeries(
        [{f for f in alphabet if rng.random() < 0.35} for _ in range(length)]
    )


def wide_series(seed: int, length: int = 120) -> FeatureSeries:
    """A series whose ``(offset, feature)`` vocabulary exceeds 64 letters.

    Two dense features keep the frequent set non-empty while seventy rare
    features blow past the packed-store bit width (at periods >= 1).
    """
    rng = random.Random(seed)
    slots = []
    for index in range(length):
        slot = {"hot"} if index % 3 == 0 else {"warm"}
        slot.add(f"rare{rng.randrange(70)}")
        slots.append(slot)
    return FeatureSeries(slots)


def per_line_load(
    path: Path, strict: bool = True
) -> tuple[list[frozenset[str]], list[tuple[int, str, str]]]:
    """Read a series file line by line, checking every line on its own.

    Returns the slots and, for ``strict=False``, one ``(line, reason,
    content)`` entry per malformed line; ``strict=True`` raises
    :class:`SeriesError` naming ``file:line`` at the first one instead.
    No line is remembered between iterations.
    """
    slots: list[frozenset[str]] = []
    quarantined: list[tuple[int, str, str]] = []
    with path.open("rb") as handle:
        for number, raw in enumerate(handle, start=1):
            raw = raw.rstrip(b"\n").rstrip(b"\r")
            reason = None
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as error:
                reason = (
                    f"line is not valid UTF-8 "
                    f"({error.reason} at byte {error.start})"
                )
            else:
                if line.startswith("#"):
                    continue
                for feature in line.split():
                    if "*" in feature:
                        reason = (
                            "feature uses the reserved wildcard character '*'"
                        )
                    elif any(ord(ch) < 32 or ord(ch) == 127 for ch in feature):
                        reason = "feature contains control characters"
                    if reason is not None:
                        break
                else:
                    slots.append(frozenset(line.split()))
                    continue
            if strict:
                raise SeriesError(f"{path}:{number}: {reason}")
            text = raw.decode("utf-8", errors="backslashreplace")
            excerpt = text if len(text) <= 60 else text[:57] + "..."
            quarantined.append((number, reason, repr(excerpt)))
    return slots, quarantined
