"""Pattern algebra for partial periodic pattern mining.

A *pattern* of period ``p`` (Han, Dong & Yin, ICDE 1999, Section 2) is a
sequence ``s_1 ... s_p`` where each position is either the don't-care symbol
``*`` or a non-empty set of features.  A pattern is *true* in a period
segment when, at every non-``*`` position, all of the pattern's letters occur
in the segment's feature set at that offset.

Two equivalent views of a pattern are used throughout the library:

* the **positional view** — a tuple of ``frozenset`` objects, one per offset,
  with the empty set standing for ``*``; this is the paper's notation and is
  what :class:`Pattern` stores;
* the **letter-set view** — the set of ``(offset, feature)`` pairs; pattern
  containment (the subpattern relation) is exactly set containment in this
  view, which is what the mining algorithms operate on internally.

The paper's *L-length* is the number of non-``*`` positions; the *letter
count* is the total number of ``(offset, feature)`` letters.  They differ
when a position carries more than one feature, e.g. ``a{b1,b2}*d*`` has
L-length 3 and letter count 4.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from functools import lru_cache
from typing import TYPE_CHECKING, Union

from repro.core.errors import PatternError

if TYPE_CHECKING:
    from repro.encoding.vocabulary import LetterVocabulary

#: A single letter of a pattern: which offset within the period, which feature.
Letter = tuple[int, str]

#: Anything acceptable as one position of a pattern.
PositionLike = Union[str, None, Iterable[str]]

#: The don't-care marker used in string renderings.
DONT_CARE = "*"

#: The characters of the notation: ``*`` and the ``{f1,f2}`` grouping.
RESERVED_CHARACTERS = "*{},"

#: One position of pattern text: a ``{...}`` group (its body) or one
#: character.  A ``{`` with no ``}`` after it, or a stray ``}``, comes out
#: as a bare character and is refused by :meth:`Pattern.from_string`.
_TOKEN = re.compile(r"\{([^}]*)\}|(.)", re.DOTALL)

#: Shared empty position — most positions of a mined pattern are ``*``.
_EMPTY_POSITION: frozenset[str] = frozenset()


def feature_problem(feature: object) -> str | None:
    """Why ``feature`` cannot name a feature, or ``None`` if it can.

    The one feature-name rule: a feature is a non-empty string holding
    none of :data:`RESERVED_CHARACTERS`.  A feature holding one prints as
    pattern text that parses back as other features, or not at all, so
    every entry point asks this question — series files, ``FeatureSeries``,
    ``Pattern`` and stream feeds — and a feature is refused with the same
    message whichever way it comes in.
    """
    if not isinstance(feature, str) or not feature:
        return f"features must be non-empty strings, got {feature!r}"
    if "*" in feature or "{" in feature or "}" in feature or "," in feature:
        char = next(char for char in RESERVED_CHARACTERS if char in feature)
        return (
            f"feature {feature!r} uses the reserved pattern character "
            f"{char!r}" + (" (the wildcard)" if char == DONT_CARE else "")
        )
    return None


def _normalize_position(value: PositionLike) -> frozenset[str]:
    """Coerce one user-supplied position into a frozenset of features.

    ``None`` and ``"*"`` mean don't-care (empty set).  A plain string is a
    single feature; any other iterable is a set of features, checked in
    the order given, so the first bad one is the one named.
    """
    if value is None:
        return frozenset()
    if isinstance(value, str):
        if value == DONT_CARE:
            return frozenset()
        if not value:
            raise PatternError("empty string is not a valid feature")
    features = (value,) if isinstance(value, str) else tuple(value)
    for feature in features:
        problem = feature_problem(feature)
        if problem is not None:
            raise PatternError(problem)
    return frozenset(features)


def _format_position(features: frozenset[str]) -> str:
    """Render one position in the paper's notation (``a``, ``{b1,b2}`` or ``*``)."""
    if not features:
        return DONT_CARE
    if len(features) == 1:
        (feature,) = features
        if len(feature) == 1:
            return feature
    return "{" + ",".join(sorted(features)) + "}"


class Pattern:
    """An immutable partial periodic pattern of a fixed period.

    Instances are hashable and totally orderable (by period, then by the
    sorted letter list), so they can be used as dictionary keys and sorted
    deterministically in reports.

    Parameters
    ----------
    positions:
        One entry per offset of the period.  Each entry is ``"*"``/``None``
        for don't-care, a feature string, or an iterable of feature strings.

    Examples
    --------
    >>> p = Pattern(["a", ["b1", "b2"], "*", "d", "*"])
    >>> str(p)
    'a{b1,b2}*d*'
    >>> p.period, p.l_length, p.letter_count
    (5, 3, 4)
    """

    __slots__ = ("_positions", "_letters", "_hash")

    def __init__(self, positions: Iterable[PositionLike]):
        normalized = tuple(_normalize_position(value) for value in positions)
        if not normalized:
            raise PatternError("a pattern must have at least one position")
        self._positions: tuple[frozenset[str], ...] = normalized
        self._letters: frozenset[Letter] = frozenset(
            (offset, feature)
            for offset, features in enumerate(normalized)
            for feature in features
        )
        self._hash = hash((self._positions,))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def _from_normalized(
        cls,
        positions: tuple[frozenset[str], ...],
        letters: frozenset[Letter],
    ) -> "Pattern":
        """Trusted constructor: both views already built and validated.

        Result materialization turns thousands of letter sets into patterns
        at once; skipping per-position re-normalization there keeps pattern
        assembly out of the mining profile.
        """
        pattern = cls.__new__(cls)
        pattern._positions = positions
        pattern._letters = letters
        pattern._hash = hash((positions,))
        return pattern

    @classmethod
    def from_letters(cls, period: int, letters: Iterable[Letter]) -> "Pattern":
        """Build a pattern from its letter-set view.

        Parameters
        ----------
        period:
            The pattern length; every letter offset must fall in
            ``range(period)``.
        letters:
            Iterable of ``(offset, feature)`` pairs.
        """
        if period < 1:
            raise PatternError(f"period must be >= 1, got {period}")
        letter_set = (
            letters if isinstance(letters, frozenset) else frozenset(letters)
        )
        return _pattern_from_letter_set(cls, period, letter_set)

    @classmethod
    def from_string(cls, text: str) -> "Pattern":
        """Parse the paper's compact notation, e.g. ``"a{b1,b2}*d*"``.

        Each bare character is a single-feature position, ``*`` is don't-care
        and ``{f1,f2,...}`` is a multi-feature (or multi-character-name)
        position.  The text is tokenized once, straight into letters, and
        the pattern comes from the interned :meth:`from_letters` path.  A
        malformed group is reported before any refused feature, and
        refused features in text order.
        """
        if not text:
            raise PatternError("cannot parse an empty pattern string")
        tokens = _TOKEN.findall(text)
        letters: list[Letter] = []
        problem: str | None = None
        for offset, (group, char) in enumerate(tokens):
            if char:
                if char == DONT_CARE:
                    continue
                if char == "{":
                    raise PatternError(
                        f"unclosed '{{' in pattern string {text!r}"
                    )
                if char == "}":
                    raise PatternError(
                        f"unmatched '}}' in pattern string {text!r}"
                    )
                features = [char]
            else:
                features = [part for part in group.split(",") if part]
                if not features:
                    raise PatternError(f"empty feature group in {text!r}")
            for feature in features:
                if problem is None:
                    problem = feature_problem(feature)
                letters.append((offset, feature))
        if problem is not None:
            raise PatternError(problem)
        return _pattern_from_letter_set(cls, len(tokens), frozenset(letters))

    @classmethod
    def from_mask(
        cls, vocab: "LetterVocabulary", mask: int
    ) -> "Pattern":
        """Decode an encoded letter bitmask back into a pattern.

        The boundary between the encoded mining kernels
        (:mod:`repro.encoding`) and the public pattern API: masks stay
        masks throughout mining and decode exactly once, here, when a
        result is assembled.  The vocabulary must carry its period.
        """
        period = vocab.period
        if period is None:
            raise PatternError(
                "cannot decode a pattern from a vocabulary without a period"
            )
        return cls.from_letters(period, vocab.iter_mask(mask))

    @classmethod
    def dont_care(cls, period: int) -> "Pattern":
        """The all-``*`` pattern of the given period (the empty letter set)."""
        if period < 1:
            raise PatternError(f"period must be >= 1, got {period}")
        return cls([None] * period)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def positions(self) -> tuple[frozenset[str], ...]:
        """The positional view: one frozenset per offset (empty = ``*``)."""
        return self._positions

    @property
    def period(self) -> int:
        """The pattern's period (its length in positions)."""
        return len(self._positions)

    @property
    def letters(self) -> frozenset[Letter]:
        """The letter-set view: all ``(offset, feature)`` pairs."""
        return self._letters

    @property
    def l_length(self) -> int:
        """The paper's L-length: number of non-``*`` positions."""
        return sum(1 for features in self._positions if features)

    @property
    def letter_count(self) -> int:
        """Total number of letters; >= :attr:`l_length`."""
        return len(self._letters)

    @property
    def is_trivial(self) -> bool:
        """True for the all-don't-care pattern, which matches every segment."""
        return not self._letters

    # ------------------------------------------------------------------
    # Relations and matching
    # ------------------------------------------------------------------

    def is_subpattern_of(self, other: "Pattern") -> bool:
        """True if ``self`` can be obtained from ``other`` by dropping letters.

        Per the paper, subpatterns have the same period; comparing patterns
        of different periods raises :class:`PatternError`.
        """
        if self.period != other.period:
            raise PatternError(
                "subpattern relation requires equal periods "
                f"({self.period} != {other.period})"
            )
        return self._letters <= other._letters

    def is_superpattern_of(self, other: "Pattern") -> bool:
        """True if every letter of ``other`` appears in ``self``."""
        return other.is_subpattern_of(self)

    def matches(self, segment: Sequence[frozenset[str]]) -> bool:
        """True if the pattern is *true* in the given period segment.

        ``segment`` must have exactly ``period`` slots, each a set of
        features.
        """
        if len(segment) != self.period:
            raise PatternError(
                f"segment length {len(segment)} != pattern period {self.period}"
            )
        return all(
            features <= segment[offset]
            for offset, features in enumerate(self._positions)
            if features
        )

    def restrict_to_segment(self, segment: Sequence[frozenset[str]]) -> "Pattern":
        """The maximal subpattern of ``self`` that is true in ``segment``.

        This is exactly the *hit* of Algorithm 3.2: keep, at each position,
        only the letters that occur in the segment.
        """
        if len(segment) != self.period:
            raise PatternError(
                f"segment length {len(segment)} != pattern period {self.period}"
            )
        return Pattern(
            features & segment[offset]
            for offset, features in enumerate(self._positions)
        )

    def union(self, other: "Pattern") -> "Pattern":
        """The least common superpattern (letter-set union)."""
        if self.period != other.period:
            raise PatternError(
                f"cannot union patterns of periods {self.period} and {other.period}"
            )
        return Pattern(
            mine | theirs
            for mine, theirs in zip(self._positions, other._positions)
        )

    def intersection(self, other: "Pattern") -> "Pattern":
        """The greatest common subpattern (letter-set intersection)."""
        if self.period != other.period:
            raise PatternError(
                f"cannot intersect patterns of periods {self.period} "
                f"and {other.period}"
            )
        return Pattern(
            mine & theirs
            for mine, theirs in zip(self._positions, other._positions)
        )

    def without_letter(self, offset: int, feature: str) -> "Pattern":
        """A copy of the pattern with one letter removed.

        This is the child-derivation step of the max-subpattern tree: each
        edge of the tree removes exactly one letter.
        """
        letter = (offset, feature)
        if letter not in self._letters:
            raise PatternError(f"letter {letter!r} not present in {self}")
        return Pattern.from_letters(self.period, self._letters - {letter})

    def subpatterns(self, min_letters: int = 1) -> Iterable["Pattern"]:
        """Yield every subpattern with at least ``min_letters`` letters.

        The number of subpatterns is ``2**letter_count``; intended for small
        patterns (tests, the derivation oracle), not for mining hot paths.
        """
        letters = sorted(self._letters)
        total = len(letters)
        for mask in range(1 << total):
            if mask.bit_count() < min_letters:
                continue
            chosen = [letters[i] for i in range(total) if mask >> i & 1]
            yield Pattern.from_letters(self.period, chosen)

    def rotated(self, shift: int) -> "Pattern":
        """The pattern phase-shifted by ``shift`` offsets (cyclically).

        Useful for aligning patterns mined from series whose segmentation
        started at different phases: a pattern at offset ``o`` moves to
        ``(o + shift) % period``.  Negative shifts rotate backwards.
        """
        period = self.period
        return Pattern.from_letters(
            period,
            [
                ((offset + shift) % period, feature)
                for offset, feature in self._letters
            ],
        )

    def phase_matches(self, other: "Pattern") -> bool:
        """True if some rotation of ``self`` equals ``other``.

        Patterns of different periods never phase-match.
        """
        if self.period != other.period:
            return False
        if self.letter_count != other.letter_count:
            return False
        return any(
            self.rotated(shift) == other for shift in range(self.period)
        )

    def encode(self, vocab: "LetterVocabulary") -> int:
        """This pattern's letter set as a bitmask over ``vocab``.

        Inverse of :meth:`from_mask`; raises
        :class:`~repro.core.errors.EncodingError` when a letter is not in
        the vocabulary.
        """
        return vocab.encode_letters(self._letters)

    def sorted_letters(self) -> list[Letter]:
        """Letters in the canonical ``(offset, feature)`` order.

        The max-subpattern tree's "missing letter in order" navigation
        (Algorithm 4.1) relies on this ordering.
        """
        return sorted(self._letters)

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return self._positions == other._positions

    def __lt__(self, other: "Pattern") -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return (self.period, sorted(self._letters)) < (
            other.period,
            sorted(other._letters),
        )

    def __le__(self, other: "Pattern") -> bool:
        return self == other or self < other

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self._positions)

    def __str__(self) -> str:
        return "".join(_format_position(features) for features in self._positions)

    def __repr__(self) -> str:
        return f"Pattern({str(self)!r})"


@lru_cache(maxsize=1 << 13)
def _pattern_from_letter_set(
    cls: type[Pattern], period: int, letters: frozenset[Letter]
) -> Pattern:
    """Validated letter-set construction behind an interning cache.

    Result materialization and re-queries rebuild the very same patterns
    over and over (both miners of a Figure-2 run emit identical result
    sets, and every re-query at a new ``min_conf`` re-derives a subset), so
    identical ``(period, letter set)`` requests share one immutable
    instance.  Invalid inputs raise and are never cached.  The cache
    holds 8,192 patterns, about 2 KB each at period 50: enough for the
    reuse of a serving process that cycles through a few thousand
    patterns, while a long-running one no longer keeps ~128 MiB alive.
    """
    grouped: dict[int, set[str]] = {}
    for offset, feature in letters:
        if not 0 <= offset < period:
            raise PatternError(
                f"letter offset {offset} out of range for period {period}"
            )
        # feature_problem's tests, inline: this loop runs once per letter
        # of every newly mined pattern.
        if (
            not isinstance(feature, str)
            or not feature
            or "*" in feature
            or "{" in feature
            or "}" in feature
            or "," in feature
        ):
            raise PatternError(feature_problem(feature))
        grouped.setdefault(offset, set()).add(feature)
    position_list: list[frozenset[str]] = [_EMPTY_POSITION] * period
    for offset, features in grouped.items():
        position_list[offset] = frozenset(features)
    return cls._from_normalized(tuple(position_list), letters)


def letters_to_pattern(period: int, letters: Iterable[Letter]) -> Pattern:
    """Module-level alias of :meth:`Pattern.from_letters` for functional code."""
    return Pattern.from_letters(period, letters)
