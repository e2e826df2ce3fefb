"""Coverage-guided differential fuzzer for the counting paths.

In-memory series mine on their interned slot column and store inputs on
the store's row matrix; the only acceptable difference between them is
speed.  This module hammers that claim: randomized feature series are
mined in memory and through a segment store written to its file and
mmap'd back, and the resulting ``{letters: count}`` maps must equal a
brute-force oracle that enumerates every subset of the frequent-1
letters and counts it by definition, with no shared code beyond the
series itself — and must equal the encoded Apriori miner (Algorithm
3.1), which still answers when the frequent-1 set is too large to
enumerate.  Vocabularies wider
than 64 letters take several words per store row and mine the same way.
Shared multi-period mining (Algorithm 3.4) runs over the case's period
and the next one, and each period must equal the single-period miner
and the oracle.

Two kernel-level stages compare the scan primitives directly.  One holds
the slot column's scan kernels equal to the frozenset path: scan 1's
floor-pruned letter tallies, at floor 0 and at the case's support floor,
and the occurrence-row counts period discovery reads, against
per-segment letter counting; scan 2's hits (over every letter of the
series, so wide vocabularies take several words per segment) against
the segments' frozensets encoded one by one
(``vocab.encode_letters(segment_letters(segment))``).  The other compares
a :class:`~repro.kernels.store.SegmentStore`'s rows and primitives
(``distinct_counts`` / ``letter_counts`` / ``project_hits`` /
``count_masks``) against the same per-segment encoding and naive
pure-Python recomputations, so a bug that happens to cancel out in the
end-to-end result is still caught at the primitive it lives in.
``project_hits`` projects onto a random proper subset of the store's
letters, so the letters a ``C_max`` lacks drop as they do in
:func:`~repro.core.hitset.mine_store`.

One stateful stage (``stream:restore``) slides a decrement retirement
over the case's segments, round-trips its JSON state at a random segment
and holds the next mine equal to batch mining of the retained slice.

Coverage guidance is structural, not line-based: every executed case is
reduced to a small signature (period, vocabulary width, frequent-set
size, distinct-mask and pattern-count buckets) and cases that produce a
new signature join the corpus, which mutation favours — so the budget
drifts toward shapes not yet exercised (wide vocabularies, empty
frequent sets, dense distinct tables) instead of re-rolling the same
easy cases.

The fuzzer's own alarm is tested by :func:`mutation_check`: it injects
known bugs into the kernels production calls (a dropped distinct row
and an off-by-one letter count in the store, a corrupted candidate
count, a lying hit count in the slot column's scan 2, and in its scan 1
an off-by-one letter count, an off-by-one position in the
multi-feature rows, an off-by-one feature rank in the single-feature
rows, feature totals compared with ``>`` instead of ``>=`` the floor
and a prefix's slot counts less one slot too many, and a key the slot
kernels' grouping puts in its neighbour's group, which scan 2's hits
must show, and a restored window's letter count one short for the
highest bit its signatures set) and demands the fuzzer report a divergence for every
one; :data:`BOUNDARY_CASE` makes sure the floor and slot-count bugs
have a letter at exactly the floor to lose.  A
clean run proves little if the alarm cannot ring.  A case that raises is
a ``crash`` divergence, so one crashing kernel call cannot end a run.

CLI: ``ppm fuzz`` (see :func:`repro.cli.main`); CI runs a short-budget
smoke plus the mutation check.
"""

from __future__ import annotations

import json
import random
import tempfile
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from repro.core.apriori import mine_single_period_apriori
from repro.core.counting import (
    letter_counts_for_segments,
    min_count,
    segment_letters,
    vocabulary_of_series,
)
from repro.core.hitset import mine_single_period_hitset, mine_store
from repro.core.multiperiod import mine_periods_shared
from repro.core.pattern import Letter
from repro.core.result import MiningResult
from repro.encoding.vocabulary import LetterVocabulary
from repro.timeseries.feature_series import FeatureSeries

#: Skip the exponential brute-force oracle past this many frequent-1
#: letters (Apriori still cross-checks the mining paths).
BRUTE_FORCE_MAX_F1 = 10

#: Cap on the frequent-1 set a case may mine with: the complete frequent
#: set is exponential in it, so :func:`run_case` raises the confidence
#: deterministically until the cap holds (divergence hunting needs many
#: cheap cases, not one degenerate blowup).
MAX_F1_LETTERS = 12

#: At most this many candidate masks per kernel-level comparison.
_SAMPLE_MASKS = 48


@dataclass(frozen=True, slots=True)
class FuzzCase:
    """One reproducible fuzz input (the series is a pure function of it)."""

    seed: int
    period: int
    num_segments: int
    alphabet: int
    planted: int
    planting: float
    noise: int
    min_conf: float

    def describe(self) -> dict[str, Any]:
        """JSON-ready form (the reproduction recipe for a divergence)."""
        return {
            "seed": self.seed,
            "period": self.period,
            "num_segments": self.num_segments,
            "alphabet": self.alphabet,
            "planted": self.planted,
            "planting": self.planting,
            "noise": self.noise,
            "min_conf": self.min_conf,
        }


#: The case every run executes first, so every corpus holds it.  The one
#: planted feature of each offset sits once in every segment there and
#: nowhere else, and ``min_conf`` 1.0 makes the support floor ``m``: its
#: letter count, its feature total and the floor are all equal, the
#: boundary of scan 1's floor pruning.
BOUNDARY_CASE = FuzzCase(
    seed=1, period=3, num_segments=12, alphabet=40,
    planted=1, planting=1.0, noise=0, min_conf=1.0,
)


@dataclass(frozen=True, slots=True)
class Divergence:
    """One observed disagreement between kernels (or against an oracle)."""

    case: FuzzCase
    stage: str
    detail: str

    def describe(self) -> dict[str, Any]:
        return {
            "case": self.case.describe(),
            "stage": self.stage,
            "detail": self.detail,
        }


@dataclass(slots=True)
class FuzzReport:
    """Outcome of one fuzzing run."""

    executed: int
    signatures: int
    corpus_size: int
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every case agreed across kernels and oracles."""
        return not self.divergences

    def to_json(self) -> dict[str, Any]:
        return {
            "executed": self.executed,
            "signatures": self.signatures,
            "corpus_size": self.corpus_size,
            "ok": self.ok,
            "divergences": [d.describe() for d in self.divergences],
        }

    def summary(self) -> str:
        verdict = "ok" if self.ok else f"{len(self.divergences)} DIVERGENT"
        return (
            f"fuzz: {self.executed} cases, {self.signatures} coverage "
            f"signatures, corpus {self.corpus_size} -> {verdict}"
        )


def random_case(rng: random.Random) -> FuzzCase:
    """Draw a fresh case; ranges deliberately include degenerate shapes."""
    period = rng.randint(1, 6)
    return FuzzCase(
        seed=rng.randrange(1 << 30),
        period=period,
        num_segments=rng.randint(1, 40),
        # Past 64 distinct (offset, feature) letters a store row takes a
        # second word; both sides of that boundary stay in range.
        alphabet=rng.choice((2, 3, 5, 9, 17, 40, 90)),
        planted=rng.randint(0, 2),
        planting=rng.choice((0.3, 0.6, 0.9, 1.0)),
        noise=rng.randint(0, 3),
        min_conf=rng.choice((0.1, 0.25, 0.5, 0.75, 1.0)),
    )


def mutate_case(case: FuzzCase, rng: random.Random) -> FuzzCase:
    """Perturb one dimension of a corpus case (seed always re-rolls)."""
    mutated = replace(case, seed=rng.randrange(1 << 30))
    dimension = rng.randrange(6)
    if dimension == 0:
        mutated = replace(mutated, period=max(1, case.period + rng.choice((-1, 1))))
    elif dimension == 1:
        mutated = replace(
            mutated, num_segments=max(1, case.num_segments + rng.choice((-3, 3)))
        )
    elif dimension == 2:
        mutated = replace(mutated, alphabet=rng.choice((2, 3, 5, 9, 17, 40, 90)))
    elif dimension == 3:
        mutated = replace(mutated, noise=max(0, case.noise + rng.choice((-1, 1))))
    elif dimension == 4:
        mutated = replace(mutated, min_conf=rng.choice((0.1, 0.25, 0.5, 0.75, 1.0)))
    return mutated


def generate_series(case: FuzzCase) -> FeatureSeries:
    """The deterministic series of a case: periodic plants plus noise."""
    rng = random.Random(case.seed)
    features = [f"f{index}" for index in range(case.alphabet)]
    plants: list[list[str]] = [
        rng.sample(features, min(case.planted, len(features)))
        for _ in range(case.period)
    ]
    total_slots = case.num_segments * case.period + rng.randrange(case.period)
    slots: list[frozenset[str]] = []
    for position in range(total_slots):
        slot: set[str] = set()
        for feature in plants[position % case.period]:
            if rng.random() < case.planting:
                slot.add(feature)
        for _ in range(rng.randint(0, case.noise)):
            slot.add(rng.choice(features))
        slots.append(frozenset(slot))
    return FeatureSeries(slots)


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------


def brute_force_patterns(
    series: FeatureSeries, period: int, min_conf: float
) -> dict[frozenset[Letter], int] | None:
    """Every frequent pattern, by definition, sharing no kernel code.

    Enumerates all non-empty subsets of the frequent-1 letters and counts
    each by a direct submask test over the segments.  ``None`` when the
    frequent-1 set is too large to enumerate (caller skips the oracle).
    """
    segments = list(series.segments(period))
    if not segments:
        return None
    threshold = min_count(min_conf, len(segments))
    letter_counts: Counter = Counter()
    for segment in segments:
        for offset, slot in enumerate(segment):
            for feature in slot:
                letter_counts[(offset, feature)] += 1
    f1 = sorted(
        letter for letter, count in letter_counts.items() if count >= threshold
    )
    if len(f1) > BRUTE_FORCE_MAX_F1:
        return None
    bit_of = {letter: 1 << index for index, letter in enumerate(f1)}
    rows: Counter = Counter()
    for segment in segments:
        row = 0
        for offset, slot in enumerate(segment):
            for feature in slot:
                bit = bit_of.get((offset, feature))
                if bit is not None:
                    row |= bit
        rows[row] += 1
    frequent: dict[frozenset[Letter], int] = {}
    for subset in range(1, 1 << len(f1)):
        count = sum(
            row_count
            for row, row_count in rows.items()
            if not subset & ~row
        )
        if count >= threshold:
            letters = frozenset(
                f1[index] for index in range(len(f1)) if subset >> index & 1
            )
            frequent[letters] = count
    return frequent


def _result_map(result: MiningResult) -> dict[frozenset[Letter], int]:
    return {pattern.letters: count for pattern, count in result.items()}


def _diff_maps(
    left: dict[frozenset[Letter], int], right: dict[frozenset[Letter], int]
) -> str:
    """A short human-readable description of the first few differences."""
    deltas: list[str] = []
    for letters in sorted(
        set(left) | set(right), key=lambda item: sorted(item)
    ):
        if left.get(letters) != right.get(letters):
            deltas.append(
                f"{sorted(letters)}: {left.get(letters)} != {right.get(letters)}"
            )
        if len(deltas) >= 4:
            break
    return "; ".join(deltas) or "identical"


# ----------------------------------------------------------------------
# One case, end to end
# ----------------------------------------------------------------------


def _effective_conf(
    series: FeatureSeries, period: int, base: float
) -> float | None:
    """The case's confidence, raised until the frequent-1 cap holds.

    Deterministic in the inputs, so a divergence still reproduces from
    its case alone.  ``None`` when the cap fails even at confidence 1.0:
    with few segments every letter that is in all of them is frequent
    (one segment makes every letter frequent), and the complete frequent
    set is then too large for any miner or oracle to list.
    """
    segments = list(series.segments(period))
    if not segments:
        return base
    counts: Counter = Counter()
    for segment in segments:
        for offset, slot in enumerate(segment):
            for feature in slot:
                counts[(offset, feature)] += 1
    conf = base
    while True:
        threshold = min_count(conf, len(segments))
        if sum(1 for c in counts.values() if c >= threshold) <= MAX_F1_LETTERS:
            return conf
        if conf >= 1.0:
            return None
        conf = min(1.0, round(conf + 0.1, 10))


def run_case(case: FuzzCase) -> tuple[list[Divergence], tuple[Any, ...]]:
    """Execute one case; returns its divergences and coverage signature."""
    series = generate_series(case)
    divergences: list[Divergence] = []

    min_conf = _effective_conf(series, case.period, case.min_conf)
    if min_conf is None:
        # Nothing can mine this case; its scan kernels can still be checked.
        _check_column(case, series, 1.0, divergences)
        _check_primitives(case, series, divergences)
        return divergences, (case.period, "over-cap")
    mined = _result_map(
        mine_single_period_hitset(series, case.period, min_conf)
    )
    oracle = brute_force_patterns(series, case.period, min_conf)
    if oracle is not None and oracle != mined:
        divergences.append(
            Divergence(
                case,
                stage="mine:brute-force-oracle",
                detail=_diff_maps(mined, oracle),
            )
        )
    apriori = _result_map(
        mine_single_period_apriori(series, case.period, min_conf)
    )
    if apriori != mined:
        divergences.append(
            Divergence(
                case,
                stage="mine:apriori",
                detail=_diff_maps(mined, apriori),
            )
        )

    _check_shared(case, series, min_conf, mined, oracle, divergences)
    _check_column(case, series, min_conf, divergences)
    _check_store_path(case, series, min_conf, mined, divergences)
    _check_stream_restore(case, series, min_conf, divergences)
    words, *signature_bits = _check_primitives(case, series, divergences)
    signature = (
        case.period,
        words > 1,
        _bucket(len(mined)),
        not mined,
        tuple(signature_bits),
    )
    return divergences, signature


def _check_shared(
    case: FuzzCase,
    series: FeatureSeries,
    min_conf: float,
    mined: dict[frozenset[Letter], int],
    oracle: dict[frozenset[Letter], int] | None,
    divergences: list[Divergence],
) -> None:
    """Algorithm 3.4 over ``[p, p + 1]`` against per-period mining.

    The confidence is raised, as for the case itself, until the
    frequent-1 cap also holds at ``p + 1`` (only ``p`` is mined when no
    confidence makes it hold there); each period's shared result must
    then equal the single-period hit-set miner and, where it can
    enumerate, the brute-force oracle.
    """
    period = case.period
    periods = [period, period + 1] if period < len(series) else [period]
    conf = _effective_conf(series, periods[-1], min_conf)
    if conf is None:
        periods, conf = [period], min_conf
    shared = mine_periods_shared(series, periods, conf)
    for current in periods:
        got = _result_map(shared[current])
        if current == period and conf == min_conf:
            expected, exact = mined, oracle
        else:
            expected = _result_map(
                mine_single_period_hitset(series, current, conf)
            )
            exact = brute_force_patterns(series, current, conf)
        if got != expected:
            divergences.append(
                Divergence(
                    case,
                    stage=f"mine:shared[{current}]",
                    detail=_diff_maps(got, expected),
                )
            )
        if exact is not None and got != exact:
            divergences.append(
                Divergence(
                    case,
                    stage=f"mine:shared[{current}]:brute-force-oracle",
                    detail=_diff_maps(got, exact),
                )
            )


def _check_column(
    case: FuzzCase,
    series: FeatureSeries,
    min_conf: float,
    divergences: list[Divergence],
) -> None:
    """The slot column's two scans against the frozenset path.

    Scan 1's letter counts must equal per-segment counting over the
    frozensets, and scan 2's hits over the series' full vocabulary must
    equal the >= 2-letter masks of the frozensets encoded one segment at
    a time onto the same vocabulary.
    """
    from repro.kernels import slots

    period = case.period
    num_periods = series.num_periods(period)
    if not num_periods:
        return
    column = series.slot_column()
    table = column.table
    expected = dict(letter_counts_for_segments(series.segments(period)))
    threshold = min_count(min_conf, num_periods)
    for floor in (0, threshold):
        rows = slots.scan1_rows(column, num_periods * period, floor)
        letter_ids, counts = slots.pair_letter_counts(
            table, rows, period, num_periods, floor
        )
        wanted = {
            letter: count for letter, count in expected.items() if count >= floor
        }
        if table.letters_of(letter_ids, counts) != wanted:
            divergences.append(
                Divergence(
                    case,
                    stage="column:scan1",
                    detail=f"letter counts differ at floor {floor}",
                )
            )
    letter_ids, counts = slots.letter_totals(
        column.occurrences(), period, num_periods
    )
    if table.letters_of(letter_ids, counts) != expected:
        divergences.append(
            Divergence(
                case, stage="column:occurrences", detail="letter counts differ"
            )
        )
    vocab = vocabulary_of_series(series, period)
    if not len(vocab):
        return
    hits = dict(
        slots.segment_hits(
            column,
            period,
            num_periods,
            column.table.letter_ids(vocab.letters),
        )
    )
    encoded = _encoded_rows(series, period, vocab)
    expected_hits = {
        mask: count for mask, count in encoded.items() if mask.bit_count() >= 2
    }
    if hits != expected_hits:
        divergences.append(
            Divergence(
                case,
                stage="column:scan2",
                detail=f"{len(hits)} distinct hits vs {len(expected_hits)}",
            )
        )


def _encoded_rows(
    series: FeatureSeries, period: int, vocab: LetterVocabulary
) -> Counter:
    """Each segment's frozensets encoded onto ``vocab``, as a multiset."""
    encode = vocab.encode_letters
    return Counter(
        encode(segment_letters(segment)) for segment in series.segments(period)
    )


def _check_store_path(
    case: FuzzCase,
    series: FeatureSeries,
    min_conf: float,
    mined: dict[frozenset[Letter], int],
    divergences: list[Divergence],
) -> None:
    """Mine a store written to its file and mmap'd back; it must equal
    the in-memory mine (at any vocabulary width)."""
    from repro.kernels.store import SegmentStore

    store = SegmentStore.from_series(series, case.period)
    with tempfile.TemporaryDirectory(prefix="ppm-fuzz-") as directory:
        path = store.to_file(f"{directory}/case.seg")
        mapped = _result_map(mine_store(SegmentStore.from_file(path), min_conf))
    if mapped != mined:
        divergences.append(
            Divergence(
                case,
                stage="mine:mapped-store",
                detail=_diff_maps(mapped, mined),
            )
        )


def _bucket(value: int) -> int:
    """Coarse log-scale bucket for coverage signatures."""
    return value.bit_length()


def _check_stream_restore(
    case: FuzzCase,
    series: FeatureSeries,
    min_conf: float,
    divergences: list[Divergence],
) -> None:
    """A sliding decrement retirement restored from JSON, against batch mining.

    The case's whole segments stream through a
    :class:`~repro.streaming.retirement.DecrementRetirement` keeping at
    most a random window of them.  At a random segment its JSON state
    restores into a fresh instance, which takes the next segment; its
    mine must equal batch mining of the slice it retains, at a confidence
    raised as for the case until the frequent-1 cap holds there.
    """
    from repro.streaming.retirement import DecrementRetirement

    segments = list(series.segments(case.period))
    if not segments:
        return
    rng = random.Random(case.seed ^ 0x57AE)
    window = rng.randint(max(1, len(segments) // 2), len(segments))
    restore_at = rng.randrange(len(segments))
    fed = segments[: restore_at + 2]
    retirement = DecrementRetirement(case.period)
    for index, segment in enumerate(fed):
        retirement.absorb(segment)
        retirement.retire(max(0, retirement.retained - window))
        if index == restore_at:
            state = json.loads(json.dumps(retirement.to_state()))
            retirement = DecrementRetirement(case.period)
            retirement.restore(state)
    kept = fed[len(fed) - retirement.retained :]
    retained = FeatureSeries([slot for segment in kept for slot in segment])
    conf = _effective_conf(retained, case.period, min_conf)
    if conf is None:
        return
    got = _result_map(retirement.mine(conf))
    expected = _result_map(mine_single_period_hitset(retained, case.period, conf))
    if got != expected:
        divergences.append(
            Divergence(case, stage="stream:restore", detail=_diff_maps(got, expected))
        )


def _check_primitives(
    case: FuzzCase, series: FeatureSeries, divergences: list[Divergence]
) -> tuple[Any, ...]:
    """Differentially test a store's rows and primitives, at any width.

    The rows must equal the segments' frozensets encoded one by one, and
    each primitive must equal its naive recomputation from those.
    Returns the store's words per row and the coverage signature bits
    (distinct-row and width buckets).
    """
    from repro.kernels.store import SegmentStore

    store = SegmentStore.from_series(series, case.period)
    if not len(store):
        return (store.words, 0, 0)

    rng = random.Random(case.seed ^ 0x5EED)
    vocab = store.vocab
    naive_rows = _encoded_rows(series, case.period, vocab)
    if +Counter(store) != +naive_rows:
        divergences.append(
            Divergence(case, stage="store:rows", detail="rows differ from encoding")
        )
    distinct = store.distinct_counts()
    if +distinct != +naive_rows:
        divergences.append(
            Divergence(
                case,
                stage="store:distinct_counts",
                detail=(
                    f"{len(distinct)} distinct rows vs {len(naive_rows)} naive"
                ),
            )
        )

    naive_letters: Counter = Counter()
    for mask, count in naive_rows.items():
        remaining = mask
        while remaining:
            low = remaining & -remaining
            naive_letters[vocab[low.bit_length() - 1]] += count
            remaining ^= low
    if +store.letter_counts() != +naive_letters:
        divergences.append(
            Divergence(case, stage="store:letter_counts", detail="count mismatch")
        )

    width = len(vocab)
    if width >= 2:
        kept = sorted(rng.sample(vocab.letters, rng.randrange(1, width)))
        target = LetterVocabulary.from_letters(kept, period=case.period)
        naive_hits: Counter = Counter()
        for mask, count in naive_rows.items():
            hit = [letter for letter in vocab.decode_mask(mask) if letter in target]
            if len(hit) >= 2:
                naive_hits[target.encode_letters(hit)] += count
        if store.project_hits(target) != naive_hits:
            divergences.append(
                Divergence(
                    case,
                    stage="store:project_hits",
                    detail=f"hit mismatch onto {len(kept)} of {width} letters",
                )
            )

    sample: list[int] = list(naive_rows)[:_SAMPLE_MASKS // 2]
    for row in list(sample):
        if row:
            keep = rng.randrange(1, 1 << row.bit_count())
            sample.append(_submask(row, keep))
    while width and len(sample) < _SAMPLE_MASKS:
        sample.append(rng.randrange(1, 1 << width))
    sample = list(dict.fromkeys(mask for mask in sample if mask))
    naive_counts = {
        mask: sum(
            count for row, count in naive_rows.items() if not mask & ~row
        )
        for mask in sample
    }
    observed = store.count_masks(sample)
    if observed != naive_counts:
        wrong = sum(
            1 for mask in sample if observed.get(mask) != naive_counts[mask]
        )
        divergences.append(
            Divergence(
                case,
                stage="store:count_masks",
                detail=f"{wrong}/{len(sample)} candidate counts differ",
            )
        )
    return (store.words, _bucket(len(naive_rows)), _bucket(width))


def _submask(row: int, keep: int) -> int:
    """The submask of ``row`` selecting its set bits where ``keep`` is set."""
    out = 0
    index = 0
    remaining = row
    while remaining:
        low = remaining & -remaining
        if keep >> index & 1:
            out |= low
        remaining ^= low
        index += 1
    return out


# ----------------------------------------------------------------------
# The fuzz loop
# ----------------------------------------------------------------------


def fuzz(budget: int, seed: int = 0) -> FuzzReport:
    """Run ``budget`` cases under coverage guidance; fully deterministic.

    The :data:`BOUNDARY_CASE` runs first.  Cases producing a previously
    unseen coverage signature join the corpus; most of the budget
    mutates corpus entries, the rest draws fresh random cases so
    guidance never starves exploration.  A case
    that raises is recorded as a ``crash`` divergence carrying the
    exception's repr, and the run goes on with the next case.
    """
    rng = random.Random(seed)
    corpus: list[FuzzCase] = []
    signatures: set[tuple[Any, ...]] = set()
    divergences: list[Divergence] = []
    executed = 0
    while executed < budget:
        if not executed:
            case = BOUNDARY_CASE
        elif corpus and rng.random() < 0.7:
            case = mutate_case(rng.choice(corpus), rng)
        else:
            case = random_case(rng)
        signature: tuple[Any, ...] | None
        try:
            case_divergences, signature = run_case(case)
        except Exception as error:  # repro: ignore[REP404] -- any exception a kernel raises on one case is a finding to report with that case, not a reason to abandon the rest of the budget
            case_divergences = [Divergence(case, stage="crash", detail=repr(error))]
            signature = None
        executed += 1
        divergences.extend(case_divergences)
        if signature is not None and signature not in signatures:
            signatures.add(signature)
            corpus.append(case)
    return FuzzReport(
        executed=executed,
        signatures=len(signatures),
        corpus_size=len(corpus),
        divergences=divergences,
    )


# ----------------------------------------------------------------------
# Mutation check: prove the alarm can ring
# ----------------------------------------------------------------------


def _mutation_targets() -> dict[str, tuple[Any, str, Callable[..., Any]]]:
    """Named bugs to inject: (owner, attribute) -> corrupted wrapper."""
    from repro.core import incremental
    from repro.kernels import slots
    from repro.kernels.batched import SubmaskCountTable
    from repro.kernels.slots import SlotColumn, SlotTable
    from repro.kernels.store import SegmentStore

    original_distinct = SegmentStore.distinct_rows
    original_pairs = slots.pair_letter_counts
    original_rows = slots.scan1_rows
    original_totals = SegmentStore.bit_totals
    original_counts = SubmaskCountTable.counts
    original_hits = slots.segment_hits
    original_group = slots.group_keys
    original_slot_counts = SlotColumn.slot_counts
    original_bit_totals = incremental._bit_totals

    def dropped_distinct_row(store: SegmentStore) -> Any:
        rows, counts = original_distinct(store)
        keep = np.ones(len(rows), bool)
        keep[np.flatnonzero(rows.any(axis=1))[:1]] = False
        return rows[keep], counts[keep]

    def off_by_one_letter(store: SegmentStore) -> Any:
        totals = original_totals(store)
        totals[0] += 1
        return totals

    def corrupted_candidate(
        table: SubmaskCountTable, masks: Any
    ) -> dict[int, int]:
        counts = dict(original_counts(table, masks))
        for mask in sorted(counts):
            counts[mask] += 1
            break
        return counts

    def lying_hits(
        column: Any, period: int, num_periods: int, letter_ids: Any
    ) -> list[tuple[int, int]]:
        hits = list(original_hits(column, period, num_periods, letter_ids))
        if hits:
            mask, count = hits[0]
            hits[0] = (mask, count + 1)
        return hits

    def off_by_one_column_letter(
        table: SlotTable, rows: Any, period: int, num_periods: int, floor: int
    ) -> Any:
        letter_ids, counts = original_pairs(
            table, rows, period, num_periods, floor
        )
        counts = counts.copy()
        counts[:1] += 1
        return letter_ids, counts

    def off_by_one_position(column: Any, length: int, floor: int) -> Any:
        # The multi-feature half: its (offset, slot) pairs shift offset.
        rows = original_rows(column, length, floor)
        return replace(rows, multi_positions=rows.multi_positions + 1)

    def off_by_one_rank(column: Any, length: int, floor: int) -> Any:
        # The single-feature rows: each tallies the next capable
        # feature's letter.
        rows = original_rows(column, length, floor)
        width = len(rows.features)
        single = rows.codes < width
        codes = rows.codes.copy()
        codes[single] = (codes[single] + 1) % width
        return replace(rows, codes=codes)

    def strict_feature_floor(column: Any, length: int, floor: int) -> Any:
        # Integer totals > floor are exactly totals >= floor + 1.
        return original_rows(column, length, floor + 1)

    def misgrouped_key(keys: Any) -> Any:
        distinct, inverse = original_group(keys)
        inverse = inverse.copy()
        inverse[np.flatnonzero(inverse)[:1]] -= 1
        return distinct, inverse

    def over_subtracted_tail(column: SlotColumn, length: int) -> Any:
        # The tail past the prefix starts one slot early: the prefix's
        # last slot leaves its features' totals.
        return original_slot_counts(column, length - 1)

    def short_top_letter(signatures: Any, width: int) -> Any:
        # A restored window's letter counts: the highest bit any
        # signature sets counts one segment short.
        totals = original_bit_totals(signatures, width)
        totals[np.flatnonzero(totals)[-1:]] -= 1
        return totals

    return {
        "dropped-distinct-row": (
            SegmentStore, "distinct_rows", dropped_distinct_row
        ),
        "off-by-one-letter-count": (SegmentStore, "bit_totals", off_by_one_letter),
        "corrupted-candidate-count": (
            SubmaskCountTable, "counts", corrupted_candidate
        ),
        "lying-hit-counter": (slots, "segment_hits", lying_hits),
        "off-by-one-column-letter-count": (
            slots, "pair_letter_counts", off_by_one_column_letter
        ),
        "off-by-one-column-position": (slots, "scan1_rows", off_by_one_position),
        "off-by-one-single-rank": (slots, "scan1_rows", off_by_one_rank),
        "strict-feature-floor": (slots, "scan1_rows", strict_feature_floor),
        "misgrouped-key": (slots, "group_keys", misgrouped_key),
        "over-subtracted-tail": (SlotColumn, "slot_counts", over_subtracted_tail),
        "short-restored-letter-count": (
            incremental, "_bit_totals", short_top_letter
        ),
    }


def mutation_check(budget: int = 40, seed: int = 0) -> dict[str, bool]:
    """Inject each known kernel bug; report which ones the fuzzer caught.

    Every value in the returned mapping must be ``True`` for the fuzzer's
    alarm to be trusted; CI asserts exactly that.
    """
    caught: dict[str, bool] = {}
    for name, (owner, attribute, corrupted) in _mutation_targets().items():
        original = getattr(owner, attribute)
        setattr(owner, attribute, corrupted)
        try:
            report = fuzz(budget, seed=seed)
        finally:
            setattr(owner, attribute, original)
        caught[name] = not report.ok
    return caught
