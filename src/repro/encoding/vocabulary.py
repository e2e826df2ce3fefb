"""Interned letter vocabularies — dense integer ids for pattern letters.

Every mining hot path ultimately manipulates sets of ``(offset, feature)``
letters.  Hashing those tuples (and the ``frozenset`` objects holding them)
millions of times dominates the runtime at Table-1 scale, so the encoded
stack interns each letter once into a :class:`LetterVocabulary` — a bijection
between letters and dense small ints — and represents every letter set as a
single integer bitmask (bit ``i`` set iff letter ``i`` is present).  Subset
testing, the innermost operation of every algorithm in the paper, becomes
one ``mask & ~other == 0``.

Vocabulary order *is* the bit order, and it is deterministic:

* :meth:`LetterVocabulary.from_letters` sorts, producing the canonical
  order shared by Algorithm 4.1's tree navigation and apriori-gen's prefix
  join;
* :meth:`LetterVocabulary.intern` appends, for streaming consumers
  (:class:`~repro.core.incremental.IncrementalHitSetMiner`) that meet
  letters in arrival order.

Interning more letters never invalidates existing masks (bits keep their
meaning); letters can never be removed.  Masks produced under one
vocabulary translate to another via :meth:`LetterVocabulary.remap_table` +
:func:`remap_mask`, which is how cached hit tables and retained window
state move between vocabularies.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING, Union

from repro.core.errors import EncodingError

if TYPE_CHECKING:
    from repro.core.pattern import Letter

#: Anything a vocabulary can be built from: an existing vocabulary (passed
#: through unchanged) or an ordered iterable of letters.
VocabularyLike = Union["LetterVocabulary", Iterable["Letter"]]


class LetterVocabulary:
    """An ordered, growable bijection between letters and dense int ids.

    Parameters
    ----------
    letters:
        Initial letters, interned in iteration order (duplicates collapse
        to their first occurrence).  Use :meth:`from_letters` for the
        canonical sorted order.
    period:
        Optional period the letters belong to.  When set, every letter
        offset is validated against it and the vocabulary can decode
        bitmasks straight into :class:`~repro.core.pattern.Pattern`
        objects (see :meth:`Pattern.from_mask`).

    Examples
    --------
    >>> vocab = LetterVocabulary.from_letters([(1, "b"), (0, "a")], period=3)
    >>> list(vocab)
    [(0, 'a'), (1, 'b')]
    >>> vocab.encode_letters([(1, "b")])
    2
    >>> sorted(vocab.decode_mask(3))
    [(0, 'a'), (1, 'b')]
    """

    __slots__ = ("_letters", "_ids", "_period", "_decode_memo")

    def __init__(
        self,
        letters: Iterable[Letter] = (),
        period: int | None = None,
    ):
        if period is not None and period < 1:
            raise EncodingError(f"period must be >= 1, got {period}")
        self._period = period
        self._letters: list[Letter] = []
        self._ids: dict[Letter, int] = {}
        #: Memoized decode_mask results.  A letter's bit never changes once
        #: interned (the vocabulary is append-only), so decoded sets stay
        #: valid forever; the memo is bounded by the distinct masks queried.
        self._decode_memo: dict[int, frozenset[Letter]] = {}
        for letter in letters:
            self.intern(letter)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_letters(
        cls, letters: Iterable[Letter], period: int | None = None
    ) -> "LetterVocabulary":
        """The canonical vocabulary: letters in sorted order.

        This is the order Algorithm 4.1 walks missing letters in and the
        order apriori-gen joins prefixes in, so every component that shares
        masks uses it.
        """
        return cls(sorted(set(letters)), period=period)

    @classmethod
    def of(
        cls, source: VocabularyLike, period: int | None = None
    ) -> "LetterVocabulary":
        """Coerce: pass an existing vocabulary through, intern anything else.

        Iterable input keeps its iteration order (it is typically an
        already-sorted ``letter_order`` tuple from a cached hit table).
        """
        if isinstance(source, LetterVocabulary):
            return source
        return cls(source, period=period)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    @property
    def period(self) -> int | None:
        """The period the letters belong to, when known."""
        return self._period

    @property
    def letters(self) -> tuple[Letter, ...]:
        """The interned letters in id order (id ``i`` is ``letters[i]``)."""
        return tuple(self._letters)

    @property
    def full_mask(self) -> int:
        """The mask with every interned letter's bit set."""
        return (1 << len(self._letters)) - 1

    def __len__(self) -> int:
        return len(self._letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self._letters)

    def __getitem__(self, letter_id: int) -> Letter:
        return self._letters[letter_id]

    def __contains__(self, letter: object) -> bool:
        return letter in self._ids

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LetterVocabulary):
            return NotImplemented
        return (
            self._letters == other._letters and self._period == other._period
        )

    # Growable by intern(); identity hashing would be a trap for callers
    # expecting value semantics, so vocabularies are simply unhashable.
    __hash__ = None  # type: ignore[assignment]

    def __reduce__(
        self,
    ) -> tuple[type["LetterVocabulary"], tuple[list[Letter], int | None]]:
        return (LetterVocabulary, (self._letters, self._period))

    def __repr__(self) -> str:
        return (
            f"LetterVocabulary(size={len(self._letters)}, "
            f"period={self._period})"
        )

    # ------------------------------------------------------------------
    # Interning and encoding
    # ------------------------------------------------------------------

    def intern(self, letter: Letter) -> int:
        """The id of ``letter``, appending it to the vocabulary if new."""
        existing = self._ids.get(letter)
        if existing is not None:
            return existing
        if self._period is not None and not 0 <= letter[0] < self._period:
            raise EncodingError(
                f"letter offset {letter[0]} out of range for period "
                f"{self._period}"
            )
        letter_id = len(self._letters)
        self._letters.append(letter)
        self._ids[letter] = letter_id
        return letter_id

    def intern_mask(self, letters: Iterable[Letter]) -> int:
        """The bitmask of ``letters``, interning the unseen ones in sorted
        order.

        Sorted, not in iteration order: letters drawn from sets come in
        an order that follows the string hash seed, and the ids (so every
        mask over them) must not.  Letters already interned keep their
        ids.
        """
        mask = 0
        ids = self._ids
        unseen: list[Letter] = []
        for letter in letters:
            bit_id = ids.get(letter)
            if bit_id is None:
                unseen.append(letter)
            else:
                mask |= 1 << bit_id
        for letter in sorted(unseen):
            mask |= 1 << self.intern(letter)
        return mask

    def id_of(self, letter: Letter) -> int:
        """The id of an already-interned letter."""
        try:
            return self._ids[letter]
        except KeyError:
            raise EncodingError(
                f"letter {letter!r} is not in the vocabulary"
            ) from None

    def bit_of(self, letter: Letter) -> int:
        """The single-bit mask of an already-interned letter."""
        return 1 << self.id_of(letter)

    def encode_letters(self, letters: Iterable[Letter]) -> int:
        """The bitmask of a letter collection; every letter must be known."""
        mask = 0
        ids = self._ids
        for letter in letters:
            bit_id = ids.get(letter)
            if bit_id is None:
                raise EncodingError(
                    f"letter {letter!r} is not in the vocabulary"
                )
            mask |= 1 << bit_id
        return mask

    def decode_mask(self, mask: int) -> frozenset[Letter]:
        """The letter set of a bitmask (the inverse of :meth:`encode_letters`).

        Memoized: derivations decode the same frequent masks over and over
        (every level, every re-query), so repeat decodes are one dict hit.
        """
        decoded = self._decode_memo.get(mask)
        if decoded is None:
            decoded = frozenset(self.iter_mask(mask))
            self._decode_memo[mask] = decoded
        return decoded

    def decode_sorted(self, mask: int) -> tuple[Letter, ...]:
        """The letters of a bitmask as a sorted tuple."""
        return tuple(sorted(self.iter_mask(mask)))

    def iter_mask(self, mask: int) -> Iterator[Letter]:
        """Yield the letters of a bitmask in ascending bit order."""
        if mask < 0 or mask >> len(self._letters):
            raise EncodingError(
                f"mask {mask:#x} has bits outside the vocabulary "
                f"(size {len(self._letters)})"
            )
        letters = self._letters
        while mask:
            low = mask & -mask
            yield letters[low.bit_length() - 1]
            mask ^= low

    # ------------------------------------------------------------------
    # Cross-vocabulary translation (projection onto C_max)
    # ------------------------------------------------------------------

    def remap_table(self, target: "LetterVocabulary") -> tuple[int, ...]:
        """Per-id translation table into ``target``'s id space.

        Entry ``i`` is the id of ``self[i]`` in ``target``, or ``-1`` when
        the letter is absent there — :func:`remap_mask` then drops that
        bit, which is exactly the "project onto C_max" step of hit
        computation.
        """
        return tuple(
            target._ids.get(letter, -1) for letter in self._letters
        )


def remap_mask(mask: int, table: Sequence[int]) -> int:
    """Translate a bitmask through a :meth:`~LetterVocabulary.remap_table`.

    Bits whose table entry is ``-1`` are dropped.

    >>> source = LetterVocabulary([(0, "b"), (0, "a")])
    >>> target = LetterVocabulary.from_letters([(0, "a")])
    >>> remap_mask(0b11, source.remap_table(target))
    1
    """
    out = 0
    while mask:
        low = mask & -mask
        target_id = table[low.bit_length() - 1]
        if target_id >= 0:
            out |= 1 << target_id
        mask ^= low
    return out
