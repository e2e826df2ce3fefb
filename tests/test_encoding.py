"""Unit tests for repro.encoding — vocabularies, segment masks, and the facades.

The equivalence of whole mining runs against letter-set references and
the oracle is asserted in ``tests/test_properties.py``; this module pins down the
local contracts of the encoding layer itself: deterministic bit order,
interning semantics, mask round-trips, cross-vocabulary remapping, and
the ``Pattern``/tree/shard facades.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.counting import (
    count_pattern,
    segment_letters,
    vocabulary_of_series,
)
from repro.core.errors import EncodingError, PatternError
from repro.core.pattern import Pattern
from repro.encoding import LetterVocabulary, remap_mask
from repro.kernels.store import SegmentStore
from repro.timeseries.feature_series import FeatureSeries
from repro.tree.max_subpattern_tree import MaxSubpatternTree

A, B, C, D = (0, "a"), (1, "b"), (2, "c"), (2, "d")


class TestLetterVocabulary:
    def test_from_letters_sorts_and_dedupes(self):
        vocab = LetterVocabulary.from_letters([D, B, A, B, D], period=3)
        assert vocab.letters == (A, B, D)
        assert len(vocab) == 3
        assert vocab.full_mask == 0b111

    def test_constructor_preserves_iteration_order(self):
        vocab = LetterVocabulary([D, A, B])
        assert vocab.letters == (D, A, B)
        assert vocab.id_of(D) == 0
        assert vocab[2] == B

    def test_intern_appends_and_is_idempotent(self):
        vocab = LetterVocabulary(period=3)
        assert vocab.intern(B) == 0
        assert vocab.intern(A) == 1
        assert vocab.intern(B) == 0
        assert vocab.letters == (B, A)

    def test_intern_validates_offset_against_period(self):
        vocab = LetterVocabulary(period=2)
        with pytest.raises(EncodingError):
            vocab.intern((2, "a"))
        with pytest.raises(EncodingError):
            LetterVocabulary([(5, "a")], period=3)

    def test_unknown_letter_raises(self):
        vocab = LetterVocabulary([A])
        with pytest.raises(EncodingError):
            vocab.id_of(B)
        with pytest.raises(EncodingError):
            vocab.encode_letters([A, B])

    def test_encode_decode_roundtrip(self):
        vocab = LetterVocabulary.from_letters([A, B, C, D], period=3)
        for letters in ([], [A], [B, D], [A, B, C, D]):
            mask = vocab.encode_letters(letters)
            assert vocab.decode_mask(mask) == frozenset(letters)
            assert vocab.decode_sorted(mask) == tuple(sorted(letters))

    def test_iter_mask_ascending_bit_order_and_range_check(self):
        vocab = LetterVocabulary([D, A, B])
        assert list(vocab.iter_mask(0b101)) == [D, B]
        with pytest.raises(EncodingError):
            list(vocab.iter_mask(0b1000))
        with pytest.raises(EncodingError):
            list(vocab.iter_mask(-1))

    def test_equality_covers_letters_and_period(self):
        assert LetterVocabulary([A, B], period=3) == LetterVocabulary(
            [A, B], period=3
        )
        assert LetterVocabulary([A, B], period=3) != LetterVocabulary(
            [B, A], period=3
        )
        assert LetterVocabulary([A, B], period=3) != LetterVocabulary([A, B])
        with pytest.raises(TypeError):
            hash(LetterVocabulary([A]))

    def test_pickle_roundtrip_preserves_order_and_period(self):
        vocab = LetterVocabulary([D, A, B], period=3)
        clone = pickle.loads(pickle.dumps(vocab))
        assert clone == vocab
        assert clone.id_of(D) == 0

    def test_of_passes_vocabulary_through(self):
        vocab = LetterVocabulary([A, B])
        assert LetterVocabulary.of(vocab) is vocab
        assert LetterVocabulary.of([B, A]).letters == (B, A)

    def test_remap_table_and_mask_drop_absent_letters(self):
        source = LetterVocabulary([D, A, B])
        target = LetterVocabulary.from_letters([A, B])
        table = source.remap_table(target)
        assert table == (-1, 0, 1)
        # D's bit is dropped; A and B land on the target's bits.
        assert remap_mask(0b111, table) == target.encode_letters([A, B])
        assert remap_mask(0b001, table) == 0


class TestSegmentCodec:
    """A segment store's build encodes every segment onto its vocabulary."""

    SERIES = FeatureSeries.from_symbols("abdabcabd")

    def test_encoder_projects_onto_vocabulary(self):
        vocab = LetterVocabulary.from_letters([A, B], period=3)
        store = SegmentStore.from_series(self.SERIES, 3, vocab)
        # Segment 1 is "abc": c is out of vocabulary and drops.
        assert store[1] == vocab.encode_letters([A, B])

    def test_encoder_matches_letterwise_encoding(self):
        vocab = vocabulary_of_series(self.SERIES, 3)
        store = SegmentStore.from_series(self.SERIES, 3, vocab)
        assert list(store) == [
            vocab.encode_letters(segment_letters(segment))
            for segment in self.SERIES.segments(3)
        ]

    def test_encoder_requires_period(self):
        with pytest.raises(EncodingError, match="period must be >= 1"):
            SegmentStore(LetterVocabulary([A]), 0, [])
        with pytest.raises(EncodingError):
            SegmentStore.from_series(
                self.SERIES, 2, LetterVocabulary([C], period=2)
            )

    def test_encoded_series_counts_match_definition(self):
        store = SegmentStore.from_series(self.SERIES, 3)
        assert len(store) == 3
        for letters in ([A], [A, B], [B, D], [A, B, C]):
            pattern = Pattern.from_letters(3, letters)
            mask = store.vocab.encode_letters(letters)
            assert store.count_masks([mask])[mask] == count_pattern(
                self.SERIES, pattern
            )

    def test_hit_counter_collapses_identical_segments(self):
        store = SegmentStore.from_series(self.SERIES, 3)
        hits = store.project_hits(store.vocab)
        assert sum(hits.values()) == 3
        abd = store.vocab.encode_letters([A, B, D])
        assert hits[abd] == 2


class TestPatternFacade:
    def test_encode_from_mask_roundtrip(self):
        vocab = LetterVocabulary.from_letters([A, B, C, D], period=3)
        pattern = Pattern.from_letters(3, [A, D])
        mask = pattern.encode(vocab)
        assert Pattern.from_mask(vocab, mask) == pattern

    def test_from_mask_requires_vocabulary_period(self):
        vocab = LetterVocabulary([A, B])
        with pytest.raises(PatternError):
            Pattern.from_mask(vocab, 0b11)

    def test_encode_rejects_foreign_letters(self):
        vocab = LetterVocabulary.from_letters([A, B], period=3)
        with pytest.raises(EncodingError):
            Pattern.from_letters(3, [A, C]).encode(vocab)


class TestTreeMaskInterface:
    SERIES = FeatureSeries.from_symbols("abdabcabd")

    def _tree(self) -> MaxSubpatternTree:
        return MaxSubpatternTree(Pattern.from_letters(3, [A, B, C, D]))

    def test_insert_mask_equals_insert_pattern(self):
        by_pattern, by_mask = self._tree(), self._tree()
        for letters in ([A, B, D], [A, B, C], [A, B, D]):
            by_pattern.insert(Pattern.from_letters(3, letters))
            by_mask.insert_mask(by_mask.vocab.encode_letters(letters))
        assert by_pattern.hit_counts() == by_mask.hit_counts()
        probe = by_mask.vocab.encode_letters([A, B])
        assert by_mask.count_of_mask(probe) == by_pattern.count_of(
            Pattern.from_letters(3, [A, B])
        )

    def test_insert_mask_rejects_foreign_bits(self):
        tree = self._tree()
        with pytest.raises(PatternError):
            tree.insert_mask(1 << len(tree.vocab))

    def test_vocab_is_sorted_cmax(self):
        tree = self._tree()
        assert tree.vocab.letters == (A, B, C, D)
        assert tree.vocab.period == 3


class TestEncodedShard:
    """The segment store is the one encoded container of whole segments."""

    def test_shard_masks_match_segment_encoding(self, tmp_path):
        series = FeatureSeries.from_symbols("abdabcabdabc")
        vocab = vocabulary_of_series(series, 3)
        expected = [
            vocab.encode_letters(segment_letters(segment))
            for segment in series.segments(3)
        ]
        in_memory = SegmentStore.from_series(series, 3, vocab)
        mapped = SegmentStore.from_file(in_memory.to_file(tmp_path / "s.seg"))
        assert mapped.mapped and not in_memory.mapped
        assert list(in_memory) == list(mapped) == expected

    def test_shard_letter_sets_survive_encoding(self):
        series = FeatureSeries.from_symbols("abdabcabd")
        vocab = vocabulary_of_series(series, 3)
        store = SegmentStore.from_series(series, 3, vocab)
        for mask, segment in zip(store, series.segments(3)):
            assert vocab.decode_mask(mask) == segment_letters(segment)
