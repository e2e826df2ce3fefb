"""Incremental mining over a growing time-series database.

The paper mines a static series, but its own two-scan structure points at
an online variant: everything Algorithm 3.2 needs from the data is (a) the
per-letter counts of scan 1 and (b) the per-segment hits of scan 2 — and
both are additive over segments.  :class:`SegmentPartial` maintains

* the letter counter, and
* a counter of *segment signatures* (the multiset of distinct segment
  contents) — each signature an int bitmask over a streaming
  :class:`~repro.encoding.vocabulary.LetterVocabulary` that interns
  letters in arrival order,

as whole segments stream in.  Mining then remaps the signature masks onto
the sorted ``C_max`` vocabulary as a hit table — **no scan of the
accumulated series, ever**, and any confidence threshold can be queried
after the fact because the signatures are kept unrestricted (not projected
onto one ``C_max``).

A partial is *segment-granular* in both directions: :meth:`~SegmentPartial.
absorb` adds one whole segment and returns its signature mask, and
:meth:`~SegmentPartial.retire` subtracts a previously absorbed segment by
that mask — counts are a multiset, so addition and exact subtraction
commute.  That pair of operations is what the windowed streaming engine
(:mod:`repro.streaming`) composes: sliding windows absorb at the tail and
retire at the head, and every window mines exactly as if the window's
slice had been batch-mined.

:class:`IncrementalHitSetMiner` is the slot-level front door: it buffers
slots into whole segments (the trailing partial segment stays pending,
never silently mined) and delegates everything else to one partial.

Memory: one counter entry per *distinct* segment signature.  By the same
argument as Property 3.2 this is at most ``min(m, 2^|alphabet letters|)``;
on periodic data distinct segments are few, which is exactly when mining
is worthwhile (the paper's remark after Property 3.2).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection, Iterable, Mapping, Sequence

import numpy as np

from repro.core.counting import check_min_conf, min_count
from repro.core.errors import MiningError
from repro.core.hittable import HitTable
from repro.core.pattern import Letter
from repro.core.result import MiningResult, MiningStats
from repro.encoding.vocabulary import LetterVocabulary, remap_mask
from repro.timeseries.feature_series import (
    FeatureSeries,
    SlotLike,
    _normalize_slot,
)


class SegmentPartial:
    """A retirable summary of a multiset of whole segments.

    Parameters
    ----------
    period:
        The fixed period every absorbed segment must have.
    vocab:
        Optional streaming vocabulary to encode over (:meth:`from_masks`
        passes the restored one).  Omitted, the partial owns a private
        vocabulary interning letters in arrival order.

    The maintained state is threshold-independent: :meth:`mine` accepts
    any ``min_conf`` after the fact and produces exactly the result of
    batch-mining the absorbed segment multiset.
    """

    __slots__ = ("_period", "_vocab", "_letter_counts", "_signatures", "_num_periods")

    def __init__(self, period: int, vocab: LetterVocabulary | None = None):
        if period < 1:
            raise MiningError(f"period must be >= 1, got {period}")
        if vocab is None:
            vocab = LetterVocabulary(period=period)
        elif vocab.period != period:
            raise MiningError(
                f"shared vocabulary has period {vocab.period}, "
                f"partial wants {period}"
            )
        self._period = period
        #: Streaming vocabulary: letters interned in arrival order (each
        #: segment's new letters sorted).  Masks never invalidate as it
        #: grows (bits keep their meaning).
        self._vocab = vocab
        self._letter_counts: Counter[Letter] = Counter()
        #: Signature mask (over ``_vocab``) -> number of segments with
        #: exactly that letter set.
        self._signatures: Counter[int] = Counter()
        self._num_periods = 0

    @classmethod
    def from_masks(
        cls, period: int, vocab: LetterVocabulary, masks: Collection[int]
    ) -> "SegmentPartial":
        """The partial of the segments whose :meth:`absorb` masks are ``masks``.

        One mask per segment, over ``vocab`` (``0`` for an empty
        segment).  Everything else is derived from them: the signatures
        are the nonzero masks as a multiset, each letter's count is its
        bit's total over the signatures, and ``num_periods`` is
        ``len(masks)``.  A mask outside ``vocab`` raises
        :class:`MiningError`.
        """
        partial = cls(period, vocab=vocab)
        width = len(vocab)
        if masks and (min(masks) < 0 or max(masks) >> width):
            raise MiningError(
                f"a segment mask is outside the {width}-letter vocabulary"
            )
        signatures = Counter(masks)
        signatures.pop(0, None)
        if signatures:
            totals = _bit_totals(signatures, width)
            held = np.flatnonzero(totals)
            letters = map(vocab.__getitem__, held.tolist())
            partial._letter_counts = Counter(
                dict(zip(letters, totals[held].tolist()))
            )
        partial._signatures = signatures
        partial._num_periods = len(masks)
        return partial

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def period(self) -> int:
        """The fixed period."""
        return self._period

    @property
    def vocab(self) -> LetterVocabulary:
        """The streaming vocabulary the signature masks are encoded over."""
        return self._vocab

    @property
    def num_periods(self) -> int:
        """Whole segments currently summarized (the current ``m``)."""
        return self._num_periods

    @property
    def distinct_signatures(self) -> int:
        """Distinct segment letter-sets stored — the memory driver."""
        return len(self._signatures)

    def letter_count(self, letter: Letter) -> int:
        """Occurrences of one letter across the summarized segments."""
        return self._letter_counts[letter]

    def signature_items(self) -> Iterable[tuple[int, int]]:
        """The ``(signature mask, segment count)`` rows (read-only view)."""
        return self._signatures.items()

    # ------------------------------------------------------------------
    # Absorb / retire — the two composition operations
    # ------------------------------------------------------------------

    def absorb(self, segment: Sequence[frozenset[str]]) -> int:
        """Add one whole segment; returns its signature mask.

        The returned mask is the segment's complete contribution: a later
        :meth:`retire` with it removes the segment exactly.  Letters never
        repeat within a segment (each slot is a set), so one counter bump
        and one interned bit per letter suffice.  Letters the vocabulary
        has not seen take their bits in sorted order, so the vocabulary and
        every mask over it (and so a snapshot's bytes) do not depend on
        the string hash seed.
        """
        if len(segment) != self._period:
            raise MiningError(
                f"segment of {len(segment)} slots does not match "
                f"period {self._period}"
            )
        letters = [
            (offset, feature)
            for offset, slot in enumerate(segment)
            for feature in slot
        ]
        self._letter_counts.update(letters)
        mask = self._vocab.intern_mask(letters)
        if mask:
            self._signatures[mask] += 1
        self._num_periods += 1
        return mask

    def retire(self, mask: int) -> None:
        """Subtract one previously absorbed segment by its signature mask.

        Exact inverse of :meth:`absorb`: letter counts decrement (entries
        vanish at zero), the signature multiset loses one occurrence, and
        ``num_periods`` drops by one.  Retiring a mask that is not
        currently stored raises — retirement can never silently drift.
        """
        if self._num_periods < 1:
            raise MiningError("no segment left to retire")
        if mask:
            stored = self._signatures.get(mask, 0)
            if stored < 1:
                raise MiningError(
                    f"signature {mask:#x} is not in the partial; "
                    "a segment can only be retired once"
                )
            if stored == 1:
                del self._signatures[mask]
            else:
                self._signatures[mask] = stored - 1
            letter_counts = self._letter_counts
            for letter in self._vocab.iter_mask(mask):
                remaining = letter_counts[letter] - 1
                if remaining:
                    letter_counts[letter] = remaining
                else:
                    del letter_counts[letter]
        self._num_periods -= 1

    # ------------------------------------------------------------------
    # Mining
    # ------------------------------------------------------------------

    def frequent_one(
        self, min_conf: float
    ) -> tuple[dict[Letter, int], int]:
        """Scan 1 from the counters: ``(F1 counts, count threshold)``."""
        check_min_conf(min_conf)
        if self._num_periods == 0:
            raise MiningError("no whole segment absorbed yet")
        threshold = min_count(min_conf, self._num_periods)
        f1 = {
            letter: count
            for letter, count in self._letter_counts.items()
            if count >= threshold
        }
        return f1, threshold

    def hit_table(self, f1: Mapping[Letter, int]) -> HitTable:
        """Scan 2 from the counters: the hit table over ``C_max``.

        Projects each signature onto ``C_max`` by remapping its bits from
        the arrival-order vocabulary to the sorted ``C_max`` vocabulary;
        letters outside F1 simply drop out of the mask, and signatures
        that project alike merge their counts.
        """
        table = HitTable.over(self._period, f1)
        hits = table.hits
        remap = self._vocab.remap_table(table.vocab)
        for signature, count in self._signatures.items():
            hit = remap_mask(signature, remap)
            if hit & (hit - 1):
                hits[hit] = hits.get(hit, 0) + count
        return table

    def mine(
        self,
        min_conf: float,
        max_letters: int | None = None,
        algorithm: str = "incremental-hitset",
        table: HitTable | None = None,
    ) -> MiningResult:
        """All frequent patterns of the summarized whole segments.

        Identical to running Algorithm 3.2 over the equivalent series
        (a tested invariant), but touches only the maintained counters.
        ``table`` optionally supplies an externally maintained hit table
        whose counts already equal this partial's projected signatures
        (the streaming decrement retirement keeps one alive across
        windows and hands it in instead of rebuilding); its ``C_max``
        letters must be exactly the current F1 letters.
        """
        f1, threshold = self.frequent_one(min_conf)
        stats = MiningStats()
        if not f1:
            return MiningResult(
                algorithm=algorithm,
                period=self._period,
                min_conf=min_conf,
                num_periods=self._num_periods,
                counts={},
                stats=stats,
            )
        if table is None:
            table = self.hit_table(f1)
        stats.tree_nodes = table.node_count()
        stats.hit_set_size = len(table.hits)
        counts, candidate_counts = table.derive(
            threshold, f1, max_letters=max_letters
        )
        stats.candidate_counts = candidate_counts
        return MiningResult(
            algorithm=algorithm,
            period=self._period,
            min_conf=min_conf,
            num_periods=self._num_periods,
            counts=counts,
            stats=stats,
        )

    def __repr__(self) -> str:
        return (
            f"SegmentPartial(period={self._period}, "
            f"m={self._num_periods}, signatures={self.distinct_signatures})"
        )


#: Mask bits :func:`_bit_totals` unpacks at a time (9 bytes each).
_UNPACK_BITS = 1 << 20


def _bit_totals(signatures: Mapping[int, int], width: int) -> np.ndarray:
    """Each bit's summed count over ``{mask: count}`` masks of ``width`` bits.

    The masks' little-endian bytes form one matrix; blocks of its rows,
    of at most :data:`_UNPACK_BITS` bits, are unpacked to one byte per
    bit and weighted by their counts in one matrix product each.
    """
    size = (width + 7) // 8
    raw = np.frombuffer(
        b"".join(mask.to_bytes(size, "little") for mask in signatures), np.uint8
    ).reshape(len(signatures), size)
    counts = np.fromiter(signatures.values(), np.float64, len(signatures))
    totals = np.zeros(width)
    step = max(1, _UNPACK_BITS // max(width, 1))
    for start in range(0, len(raw), step):
        bits = np.unpackbits(
            raw[start : start + step], axis=1, count=width, bitorder="little"
        )
        totals += counts[start : start + step] @ bits
    return totals.astype(np.int64)


class IncrementalHitSetMiner:
    """Streaming counterpart of Algorithm 3.2 for one fixed period.

    A slot-level facade over one :class:`SegmentPartial`: slots buffer
    into whole segments, the trailing partial segment stays pending (never
    mined, never dropped), and mining delegates to the partial.

    Parameters
    ----------
    period:
        The period mined; fixed for the lifetime of the miner.
    min_conf:
        Default confidence threshold for :meth:`mine` (overridable per
        call — the maintained state is threshold-independent).

    Examples
    --------
    >>> miner = IncrementalHitSetMiner(3, min_conf=0.9)
    >>> miner.extend("abd")
    >>> miner.extend("abcabd")
    >>> sorted(str(p) for p in miner.mine())
    ['*b*', 'a**', 'ab*']
    """

    __slots__ = ("_min_conf", "_partial", "_pending")

    def __init__(self, period: int, min_conf: float = 0.5):
        check_min_conf(min_conf)
        self._min_conf = min_conf
        self._partial = SegmentPartial(period)
        #: Slots of the currently-incomplete trailing segment.
        self._pending: list[frozenset[str]] = []

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------

    @property
    def period(self) -> int:
        """The fixed period."""
        return self._partial.period

    @property
    def num_periods(self) -> int:
        """Whole segments absorbed so far (the current ``m``)."""
        return self._partial.num_periods

    @property
    def pending_slots(self) -> int:
        """Slots buffered toward the next whole segment (0..period-1)."""
        return len(self._pending)

    @property
    def distinct_signatures(self) -> int:
        """Distinct segment letter-sets stored — the memory driver."""
        return self._partial.distinct_signatures

    @property
    def partial(self) -> SegmentPartial:
        """The underlying whole-segment summary (pending slots excluded)."""
        return self._partial

    def append(self, slot: SlotLike) -> None:
        """Absorb one slot; a segment completes every ``period`` appends."""
        self._pending.append(_normalize_slot(slot))
        if len(self._pending) == self._partial.period:
            self._partial.absorb(self._pending)
            self._pending.clear()

    def extend(self, slots: Iterable | str | FeatureSeries) -> None:
        """Absorb many slots (a string of symbols, a series, any iterable)."""
        if isinstance(slots, str):
            slots = FeatureSeries.from_symbols(slots)
        for slot in slots:
            self.append(slot)

    # ------------------------------------------------------------------
    # Mining
    # ------------------------------------------------------------------

    def mine(
        self,
        min_conf: float | None = None,
        max_letters: int | None = None,
    ) -> MiningResult:
        """All frequent patterns of the absorbed whole segments.

        Identical to running Algorithm 3.2 over the accumulated series
        (trailing partial segment excluded), but touches only the
        maintained counters — a tested invariant.
        """
        min_conf = self._min_conf if min_conf is None else min_conf
        return self._partial.mine(min_conf, max_letters=max_letters)

    def __repr__(self) -> str:
        return (
            f"IncrementalHitSetMiner(period={self.period}, "
            f"m={self.num_periods}, signatures={self.distinct_signatures}, "
            f"pending={self.pending_slots})"
        )
