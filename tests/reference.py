"""Slow reference miners and series shapes for the equivalence suites.

The production miner scans an in-memory series on its slot column and
a store input on the segment store's rows.  The references below share
none of that counting code: each one re-reads the paper's algorithm
literally, so the suites can hold production output letter-identical to
more than the brute-force oracle in :mod:`repro.core.counting`.
:func:`packed_series` and :func:`wide_series` build series on either
side of 64 letters: one word per store row, or several.
:func:`per_line_load` is the series-file format read one line at a time,
the reference for the validate-once loader in :mod:`repro.timeseries.io`.
:func:`per_segment_letter_counts` is scan 1 read literally, the reference
for the floor-pruned pair counts of :mod:`repro.kernels.slots`.
:func:`score_periods_loop` is period discovery's slot pass as a per-slot,
per-period, per-feature ``Counter`` loop, the reference for the interned
slot kernel behind :func:`repro.analysis.periodogram.score_periods`.
:func:`parse_pattern_by_char` is pattern text read one character at a
time into positions, the reference for the tokenizing
:meth:`Pattern.from_string`.  :func:`mine_mapped` is not a reference but
the second production path the suites compare against: a series' store
written to its file and mined mmap'd back.  :func:`decrement_state_v1`
writes a decrement retirement's state in the layout that stored the
window's counters beside its ring (format 1), which restore still reads,
recounting them from the ring bit by bit.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Iterable
from pathlib import Path
from typing import Any

from repro.analysis.periodogram import PeriodScore
from repro.core.candidates import generate_candidate_masks, generate_candidates
from repro.core.counting import min_count, segment_letters
from repro.core.errors import MiningError, PatternError, SeriesError
from repro.core.hitset import _series_scans, _two_scans, mine_store
from repro.core.maxpattern import FrequentOnePatterns, find_frequent_one_patterns
from repro.core.pattern import Letter, Pattern, PositionLike
from repro.core.result import MiningResult
from repro.kernels.store import SegmentStore
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


def build_hit_tree(
    series: FeatureSeries,
    period: int,
    min_conf: float,
) -> tuple[MaxSubpatternTree, FrequentOnePatterns]:
    """Production's two scans, with the hit table registered in a tree.

    Algorithm 4.1 read literally over the hits scan 2 found: each
    distinct hit enters a :class:`MaxSubpatternTree` with its count.
    Returns ``(tree, one_patterns)``; raises
    :class:`~repro.core.errors.MiningError` on a period with no whole
    segment and when F1 is empty.
    """
    one_patterns, table, _ = _two_scans(_series_scans(series, period), min_conf)
    if table is None:
        raise MiningError(
            f"no frequent 1-patterns at period {period}; "
            "there is no candidate max-pattern"
        )
    tree = MaxSubpatternTree(one_patterns.max_pattern)
    for mask, count in table.hits.items():
        tree.insert_mask(mask, count=count)
    return tree, one_patterns


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

    Its vocabulary stays far below 64 letters (one word per store row)
    at the periods the suites mine (``features * period`` letters at
    most).
    """
    rng = random.Random(seed)
    alphabet = [f"f{i}" for i in range(features)]
    return FeatureSeries(
        [{f for f in alphabet if rng.random() < 0.35} for _ in range(length)]
    )


def wide_series(seed: int, length: int = 120) -> FeatureSeries:
    """A series whose ``(offset, feature)`` vocabulary exceeds 64 letters.

    Two dense features keep the frequent set non-empty while seventy rare
    features push a store row past one ``uint64`` word (at periods >= 1).
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
                    grouping = [char for char in "{}," if char in feature]
                    if "*" in feature:
                        reason = (
                            f"feature {feature!r} uses the reserved pattern "
                            "character '*' (the wildcard)"
                        )
                    elif grouping:
                        reason = (
                            f"feature {feature!r} uses the reserved pattern "
                            f"character {grouping[0]!r}"
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


def per_segment_letter_counts(
    series: FeatureSeries, period: int, floor: int = 0
) -> dict[Letter, int]:
    """Each ``(offset, feature)`` letter's count over the whole segments,
    one segment and slot at a time, keeping the counts at or above
    ``floor``."""
    counts: Counter = Counter()
    for segment in series.segments(period):
        for offset, slot in enumerate(segment):
            for feature in slot:
                counts[(offset, feature)] += 1
    return {letter: count for letter, count in counts.items() if count >= floor}


def score_periods_loop(
    series: FeatureSeries,
    periods: Iterable[int],
    min_conf: float = 0.5,
    min_repetitions: int = 2,
) -> list[PeriodScore]:
    """Period scores from one slot loop bumping a ``Counter`` per period.

    Same scoring as :func:`repro.analysis.periodogram.score_periods`
    (input validation aside), summed left to right in the order letters
    were first seen rather than exactly rounded.
    """
    length = len(series)
    usable = [
        period
        for period in sorted(set(periods))
        if 1 <= period <= length and length // period >= min_repetitions
    ]
    usable_limit = {period: (length // period) * period for period in usable}
    counters: dict[int, Counter] = {period: Counter() for period in usable}
    base_counts: Counter = Counter()
    for index, slot in enumerate(series.iter_slots()):
        if not slot:
            continue
        for feature in slot:
            base_counts[feature] += 1
        for period in usable:
            if index >= usable_limit[period]:
                continue
            offset = index % period
            counter = counters[period]
            for feature in slot:
                counter[(offset, feature)] += 1
    base_rate = {feature: count / length for feature, count in base_counts.items()}
    scores = []
    for period in usable:
        num_periods = length // period
        threshold = min_count(min_conf, num_periods)
        score = 0.0
        best = 0.0
        frequent = 0
        for (offset, feature), count in counters[period].items():
            conf = count / num_periods
            best = max(best, conf)
            if count >= threshold:
                frequent += 1
                score += max(0.0, conf - base_rate[feature])
        scores.append(
            PeriodScore(
                period=period,
                frequent_letters=frequent,
                best_confidence=best,
                score=score / period,
            )
        )
    scores.sort(key=lambda item: (-item.score, item.period))
    return scores


def parse_pattern_by_char(text: str) -> Pattern:
    """Pattern text walked one character at a time into positions.

    A ``{`` takes everything up to the next ``}`` as one position's
    comma-separated features; any other character is one position.  The
    positions go through the validating positional constructor
    :class:`Pattern`, so a malformed group is reported before any
    refused feature.
    """
    if not text:
        raise PatternError("cannot parse an empty pattern string")
    positions: list[PositionLike] = []
    index = 0
    while index < len(text):
        char = text[index]
        if char == "{":
            end = text.find("}", index)
            if end < 0:
                raise PatternError(f"unclosed '{{' in pattern string {text!r}")
            body = text[index + 1 : end]
            features = [part for part in body.split(",") if part]
            if not features:
                raise PatternError(f"empty feature group in {text!r}")
            positions.append(features)
            index = end + 1
        elif char == "}":
            raise PatternError(f"unmatched '}}' in pattern string {text!r}")
        else:
            positions.append(char)
            index += 1
    return Pattern(positions)


def mine_mapped(
    series: FeatureSeries,
    period: int,
    min_conf: float,
    directory: str | Path,
    max_letters: int | None = None,
) -> MiningResult:
    """Mine ``series`` the out-of-core way, through an mmap'd store file.

    ``SegmentStore.from_series`` -> ``to_file`` (under ``directory``) ->
    ``from_file`` (mmap) -> :func:`mine_store`; the store must come back
    mapped.
    """
    path = SegmentStore.from_series(series, period).to_file(
        Path(directory) / f"p{period}.seg"
    )
    store = SegmentStore.from_file(path)
    assert store.mapped
    return mine_store(store, min_conf, max_letters)


def decrement_state_v1(state: dict[str, Any], period: int) -> dict[str, Any]:
    """``DecrementRetirement.to_state()`` output in the format-1 layout.

    Format 1 kept the window's partial under a ``"partial"`` key: its
    letters, period and segment count, its signatures (the ring's nonzero
    masks with their counts) and its letter counts (each letter's total
    over the signatures), sorted.  Counted here bit by bit from the ring.
    """
    letters = [list(letter) for letter in state["letters"]]
    ring = list(state["ring"])
    signatures = Counter(mask for mask in ring if mask)
    letter_counts: Counter = Counter()
    for mask, count in signatures.items():
        for bit, (offset, feature) in enumerate(letters):
            if mask >> bit & 1:
                letter_counts[offset, feature] += count
    return {
        "name": state["name"],
        "partial": {
            "period": period,
            "letter_counts": [
                [offset, feature, count]
                for (offset, feature), count in sorted(letter_counts.items())
            ],
            "signatures": sorted(
                [mask, count] for mask, count in signatures.items()
            ),
            "num_periods": len(ring),
            "letters": letters,
        },
        "ring": ring,
    }
