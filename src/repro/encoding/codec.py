"""Segment ⇄ bitmask codec over a :class:`LetterVocabulary`.

This module is the *single* home of the letter-extraction loop that used to
be inlined in ``counting.py``, ``worker.py`` and the tree: walking a period
segment's slots and producing its ``(offset, feature)`` letters — either as
letters (:func:`iter_segment_letters`) or directly as one int bitmask
(:meth:`SegmentEncoder.encode_segment`).

:class:`SegmentEncoder` precomputes one ``feature -> bit`` dict per offset,
so encoding a segment costs one dict lookup per feature occurrence — no
tuple construction, no tuple hashing.  A whole series encoded for one
period is a :class:`repro.kernels.store.SegmentStore`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

from repro.core.errors import EncodingError
from repro.core.pattern import Letter
from repro.encoding.vocabulary import LetterVocabulary
from repro.timeseries.feature_series import FeatureSeries, Segment

#: One encoded period segment: an int bitmask over a vocabulary.
EncodedSegment = int


def iter_segment_letters(
    segment: Sequence[frozenset[str]],
) -> Iterator[Letter]:
    """All ``(offset, feature)`` letters of one period segment, slot order.

    Letters never repeat within a segment because each slot is a set.
    """
    for offset, slot in enumerate(segment):
        for feature in slot:
            yield (offset, feature)


def vocabulary_of_series(
    series: FeatureSeries, period: int
) -> LetterVocabulary:
    """The canonical (sorted) vocabulary of every letter in the series."""
    letters: set[Letter] = set()
    for segment in series.segments(period):
        letters.update(iter_segment_letters(segment))
    return LetterVocabulary.from_letters(letters, period=period)


class SegmentEncoder:
    """Encode period segments into bitmasks over a fixed vocabulary.

    Letters outside the vocabulary are simply not represented in the output
    masks — encoding a segment is intrinsically the "project onto the
    vocabulary" step, which is exactly Algorithm 4.1's hit computation when
    the vocabulary is the sorted ``C_max`` letter set.

    Parameters
    ----------
    vocab:
        The vocabulary fixing the bit order.  Every letter offset must fall
        in ``range(period)``.
    period:
        The segment length; defaults to ``vocab.period``.

    Examples
    --------
    >>> series = FeatureSeries.from_symbols("abdabcabd")
    >>> vocab = LetterVocabulary.from_letters([(0, "a"), (1, "b")], period=3)
    >>> encoder = SegmentEncoder(vocab)
    >>> [encoder.encode_segment(segment) for segment in series.segments(3)]
    [3, 3, 3]
    """

    __slots__ = ("_vocab", "_period", "_tables")

    def __init__(self, vocab: LetterVocabulary, period: int | None = None):
        if period is None:
            period = vocab.period
        if period is None:
            raise EncodingError(
                "SegmentEncoder needs a period (on the vocabulary or explicit)"
            )
        if period < 1:
            raise EncodingError(f"period must be >= 1, got {period}")
        self._vocab = vocab
        self._period = period
        tables: list[dict[str, int]] = [{} for _ in range(period)]
        for index, (offset, feature) in enumerate(vocab):
            if not 0 <= offset < period:
                raise EncodingError(
                    f"letter offset {offset} out of range for period {period}"
                )
            tables[offset][feature] = 1 << index
        self._tables = tables

    @property
    def vocab(self) -> LetterVocabulary:
        """The vocabulary fixing the bit order."""
        return self._vocab

    @property
    def period(self) -> int:
        """The segment length the encoder was built for."""
        return self._period

    def encode_segment(self, segment: Segment) -> EncodedSegment:
        """One segment as a bitmask; unknown letters are dropped."""
        mask = 0
        tables = self._tables
        for offset, slot in enumerate(segment):
            if slot:
                table = tables[offset]
                if table:
                    for feature in slot:
                        bit = table.get(feature)
                        if bit:
                            mask |= bit
        return mask

    def encode_slot(self, offset: int, slot: Iterable[str]) -> int:
        """The bits contributed by one slot at one offset.

        Slot-level entry point for the shared multi-period miner
        (Algorithm 3.4), which interleaves many periods in a single pass
        and accumulates each period's segment mask with ``|=``.
        """
        mask = 0
        table = self._tables[offset]
        if table:
            for feature in slot:
                bit = table.get(feature)
                if bit:
                    mask |= bit
        return mask

    def __repr__(self) -> str:
        return (
            f"SegmentEncoder(period={self._period}, "
            f"letters={len(self._vocab)})"
        )
