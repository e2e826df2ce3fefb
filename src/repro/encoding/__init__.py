"""repro.encoding — interned letters and bitmask segment codecs.

The representation spine of the mining stack: a
:class:`LetterVocabulary` interns ``(offset, feature)`` letters to dense
int ids, and the codec (:class:`SegmentEncoder`) turns each period
segment into one int bitmask over that vocabulary; the one container of a
whole encoded series is :class:`repro.kernels.store.SegmentStore`.  All
hot paths — the F1 scan, hit computation (Algorithm 4.1), the
max-subpattern tree index, apriori-gen, and the columnar store kernels —
operate on these masks; letters and :class:`~repro.core.pattern.Pattern`
objects appear only at the API boundary (see ``docs/encoding.md``).

Quickstart
----------
>>> from repro.encoding import SegmentEncoder, vocabulary_of_series
>>> from repro.timeseries.feature_series import FeatureSeries
>>> series = FeatureSeries.from_symbols("abdabcabd")
>>> encoder = SegmentEncoder(vocabulary_of_series(series, 3))
>>> [f"{encoder.encode_segment(segment):04b}" for segment in series.segments(3)]
['1011', '0111', '1011']
"""

from repro.encoding.codec import (
    EncodedSegment,
    SegmentEncoder,
    iter_segment_letters,
    vocabulary_of_series,
)
from repro.encoding.vocabulary import (
    LetterVocabulary,
    VocabularyLike,
    remap_mask,
)

__all__ = [
    "EncodedSegment",
    "LetterVocabulary",
    "SegmentEncoder",
    "VocabularyLike",
    "iter_segment_letters",
    "remap_mask",
    "vocabulary_of_series",
]
