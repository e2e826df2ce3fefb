"""repro.encoding — interned letters and bitmask letter sets.

The representation spine of the mining stack: a
:class:`LetterVocabulary` interns ``(offset, feature)`` letters to dense
int ids, and every letter set — a period segment, a hit, a candidate —
is one int bitmask over that vocabulary; the one container of a whole
encoded series is :class:`repro.kernels.store.SegmentStore`, whose
rows the slot column builds.  All hot paths — the F1 scan, hit
computation (Algorithm 4.1), the max-subpattern tree index, apriori-gen,
and the segment store — operate on these masks; letters and
:class:`~repro.core.pattern.Pattern` objects appear only at the API
boundary (see ``docs/encoding.md``).

Quickstart
----------
>>> from repro.encoding import LetterVocabulary
>>> vocab = LetterVocabulary.from_letters([(2, "d"), (0, "a"), (1, "b")], period=3)
>>> f"{vocab.encode_letters([(0, 'a'), (2, 'd')]):03b}"
'101'
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.encoding.vocabulary": ("LetterVocabulary", "VocabularyLike", "remap_mask"),
})

if TYPE_CHECKING:
    from repro.encoding.vocabulary import LetterVocabulary, VocabularyLike, remap_mask

__all__ = [
    "LetterVocabulary",
    "VocabularyLike",
    "remap_mask",
]
