"""The segment store — every whole segment's letter set as ``k``-word rows.

Scan 1, scan 2 and brute-force verification all consume the same
information: the bitmask of every whole period segment over some
vocabulary.  :class:`SegmentStore` materializes that once as an
``(m, k)`` ``uint64`` matrix — bit ``i`` of a row (word ``i // 64``,
bit ``i % 64``) is letter ``i`` of the store's
:class:`~repro.encoding.vocabulary.LetterVocabulary`, and
``k = ceil(letters / 64)`` — so that

* the rows are built from the series' interned slot column by
  :func:`~repro.kernels.slots.segment_rows`, the same per-segment
  reduction scan 2 of an in-memory mine uses;
* the matrix pickles as one compact bytes blob, and mmap-backed stores
  ship only their file path (the receiver re-maps);
* every counting pass (letter counting, hit collection, candidate
  verification) is a numpy op over the matrix in fixed-size chunks;
* the distinct-row multiset — the complete scan-2 state of Algorithm
  3.2 — is computed once and memoized, after which every consumer works
  on ``O(distinct rows)`` rows instead of ``O(segments)``.

Out-of-core stores
------------------
A store round-trips to disk as a raw little-endian ``uint64`` file plus
a JSON sidecar (``<path>.meta.json``) carrying the letter order, period,
row count and words per row (:meth:`SegmentStore.to_file` /
:meth:`SegmentStore.from_file`).  A store opened from its file is an
``np.memmap`` view, and every kernel here works in fixed-size chunks, so
a row file far larger than RAM mines in bounded memory.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

import numpy as np

from repro.core.errors import EncodingError
from repro.encoding.vocabulary import LetterVocabulary
from repro.kernels.batched import batched_count_masks, pack_masks
from repro.kernels.slots import (
    SlotColumn,
    distinct_rows,
    pair_letter_counts,
    row_masks,
    scan1_rows,
    segment_rows,
)
from repro.timeseries.feature_series import FeatureSeries

#: ``uint64`` words each counting pass reads per chunk: 512 KiB of
#: matrix — small enough that mmap'd stores mine in bounded memory, large
#: enough to amortize numpy call overhead.
CHUNK_WORDS = 1 << 16

#: Slots the builder reduces per :func:`segment_rows` call.  It bounds
#: the per-offset working arrays whatever the series length, and its
#: sorts run fastest at this size (measured from 16Ki to 4Mi slots).
_BUILD_SLOTS = 1 << 16

#: Format tag written to the JSON sidecar of an on-disk store.
_STORE_FORMAT = "repro.segstore/1"


def words_for(letters: int) -> int:
    """``uint64`` words per row for a vocabulary of ``letters`` letters."""
    return max(1, -(-letters // 64))


def _remap_rows(rows: np.ndarray, table: Sequence[int], words: int) -> np.ndarray:
    """Move bit ``i`` of every row to bit ``table[i]`` (``-1`` drops it).

    One shift/AND/OR sweep over the whole matrix per kept bit; the
    result has ``words`` words per row.
    """
    out = np.zeros((len(rows), words), np.uint64)
    one = np.uint64(1)
    for source, target in enumerate(table):
        if target >= 0:
            bit = (rows[:, source >> 6] >> np.uint64(source & 63)) & one
            out[:, target >> 6] |= bit << np.uint64(target & 63)
    return out


class SegmentStore:
    """Whole segments of one period as an ``(m, k)`` ``uint64`` row matrix.

    Examples
    --------
    >>> series = FeatureSeries.from_symbols("abdabcabd")
    >>> store = SegmentStore.from_series(series, 3)
    >>> len(store), store.distinct_count
    (3, 2)
    >>> ab = store.vocab.encode_letters([(0, "a"), (1, "b")])
    >>> store.count_masks([ab])[ab]
    3
    """

    __slots__ = ("_vocab", "_period", "_rows", "_distinct", "_path")

    def __init__(
        self,
        vocab: LetterVocabulary,
        period: int,
        rows: "np.ndarray | Iterable[int]",
    ):
        """A store over ``rows``: an ``(m, k)`` matrix or ``m`` int masks."""
        if period < 1:
            raise EncodingError(f"period must be >= 1, got {period}")
        words = words_for(len(vocab))
        if not isinstance(rows, np.ndarray):
            rows = pack_masks(list(rows), words)
        if rows.ndim != 2 or rows.shape[1] != words:
            raise EncodingError(
                f"store rows of shape {rows.shape} do not hold "
                f"{len(vocab)} letters in {words} words"
            )
        self._vocab = vocab
        self._period = period
        self._rows = rows
        self._distinct: tuple[np.ndarray, np.ndarray] | None = None
        self._path: Path | None = None

    @classmethod
    def from_series(
        cls,
        series: FeatureSeries,
        period: int,
        vocab: LetterVocabulary | None = None,
    ) -> "SegmentStore":
        """Every whole segment of ``series`` as a row over ``vocab``.

        One read of the series' slot column.  With an explicit vocabulary
        (the sorted ``C_max`` or F1 letters) letters outside it are
        dropped — the build *is* the hit projection — and its letters the
        series never holds stay zero.  Without one, the store's
        vocabulary is every letter of the whole segments, sorted.
        """
        num_periods = series.num_periods(period)
        column = series.slot_column()
        if vocab is None:
            found = scan1_rows(column, num_periods * period, 0)
            letter_ids, counts = pair_letter_counts(
                column.table, found, period, num_periods, 0
            )
            vocab = LetterVocabulary.from_letters(
                column.table.letters_of(letter_ids, counts), period=period
            )
        chunks = _row_chunks(column, period, num_periods, vocab)
        return cls(vocab, period, np.concatenate(list(chunks)))

    # ------------------------------------------------------------------
    # On-disk round trip (out-of-core stores)
    # ------------------------------------------------------------------

    def to_file(self, path: "str | Path") -> Path:
        """Persist the store: raw little-endian ``uint64`` rows + sidecar.

        The data file is published atomically after its JSON sidecar, so
        a crash mid-write never leaves a readable-but-torn store behind.
        """
        # Local import: repro.durability pulls in the streaming layer,
        # which imports the kernels back.
        from repro.durability.files import atomic_write

        path = Path(path)
        meta = {
            "format": _STORE_FORMAT,
            "period": self._period,
            "segments": len(self),
            "words": self.words,
            "letters": [[offset, feature] for offset, feature in self._vocab],
        }
        with atomic_write(path) as handle:
            self._rows.astype("<u8", copy=False).tofile(handle)
            with atomic_write(Path(str(path) + ".meta.json"), "w") as sidecar:
                json.dump(meta, sidecar)
                sidecar.write("\n")
        return path

    @classmethod
    def from_file(cls, path: "str | Path", mmap: bool = True) -> "SegmentStore":
        """Open a persisted store; ``mmap=True`` (default) maps it read-only.

        The mmap-backed store never loads the rows into RAM: every
        counting pass streams them in fixed-size chunks, so a series far
        larger than memory mines at disk bandwidth.  ``mmap=False`` reads
        the file into memory (the equivalence baseline).  A sidecar
        without ``"words"`` (written before stores held more than 64
        letters) describes one word per row.
        """
        path = Path(path)
        meta_path = Path(str(path) + ".meta.json")
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise EncodingError(
                f"store sidecar {meta_path} is missing"
            ) from None
        except json.JSONDecodeError as error:
            raise EncodingError(
                f"store sidecar {meta_path} is corrupt: {error}"
            ) from None
        if meta.get("format") != _STORE_FORMAT:
            raise EncodingError(
                f"store sidecar {meta_path} has unknown format "
                f"{meta.get('format')!r}"
            )
        period = int(meta["period"])
        segments = int(meta["segments"])
        words = int(meta.get("words", 1))
        letters = tuple(
            (int(offset), feature) for offset, feature in meta["letters"]
        )
        expected = segments * words * 8
        actual = path.stat().st_size
        if actual != expected:
            raise EncodingError(
                f"store file {path} holds {actual} bytes; sidecar promises "
                f"{segments} segments of {words} words ({expected} bytes)"
            )
        vocab = LetterVocabulary(letters, period=period)
        if mmap and segments:
            rows = np.memmap(path, dtype="<u8", mode="r", shape=(segments, words))
        else:
            rows = np.fromfile(path, dtype="<u8").reshape(segments, words)
        store = cls(vocab, period, rows)
        store._path = path
        return store

    # ------------------------------------------------------------------
    # Row accessors
    # ------------------------------------------------------------------

    @property
    def vocab(self) -> LetterVocabulary:
        """The vocabulary fixing the bit order of every row."""
        return self._vocab

    @property
    def period(self) -> int:
        """The period the series was segmented by."""
        return self._period

    @property
    def words(self) -> int:
        """``uint64`` words per row: ``ceil(letters / 64)``, at least 1."""
        return int(self._rows.shape[1])

    @property
    def mapped(self) -> bool:
        """True when the rows are an mmap view of an on-disk file."""
        return isinstance(self._rows, np.memmap)

    @property
    def path(self) -> Path | None:
        """The on-disk file backing this store, when one exists."""
        return self._path

    def rows(self) -> np.ndarray:
        """The ``(m, k)`` ``uint64`` row matrix itself (no copy)."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[int]:
        return iter(row_masks(self._rows))

    def __getitem__(self, index: int) -> int:
        return row_masks(self._rows[index][np.newaxis])[0]

    def __reduce__(self):  # type: ignore[override]
        if self.mapped and self._path is not None:
            # Ship the path, not the bytes: the receiver re-maps the
            # same file instead of copying an out-of-core matrix
            # through the pickle stream.
            return (SegmentStore.from_file, (str(self._path),))
        return (SegmentStore, (self._vocab, self._period, np.asarray(self._rows)))

    # ------------------------------------------------------------------
    # Counting kernels — chunked numpy passes over the row matrix
    # ------------------------------------------------------------------

    def _chunks(self) -> Iterator[np.ndarray]:
        """The rows in consecutive blocks of about :data:`CHUNK_WORDS` words."""
        step = max(1, CHUNK_WORDS // self.words)
        # An empty store still yields one (empty) chunk.
        for start in range(0, max(len(self), 1), step):
            yield self._rows[start : start + step]

    def bit_totals(self) -> np.ndarray:
        """Scan 1 as one pass: how many rows have each bit set.

        Returns a ``(64 * k,)`` int64 vector whose entry ``i`` is the
        count of letter ``i``.  Each chunk's bytes unpack to a
        ``rows x 64k`` bit matrix that is summed per column.
        """
        width = 64 * self.words
        totals = np.zeros(width, np.int64)
        for chunk in self._chunks():
            chunk = np.ascontiguousarray(chunk, dtype="<u8")
            bits = np.unpackbits(chunk.view(np.uint8), bitorder="little")
            totals += bits.reshape(-1, width).sum(axis=0, dtype=np.int64)
        return totals

    def distinct_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct rows and their counts, memoized.

        The collapse from ``O(segments)`` to ``O(distinct rows)`` is what
        every later pass builds on; on periodic data distinct rows are
        orders of magnitude fewer than segments.  Each chunk collapses
        on its own (bounded memory on mmap'd stores) and the per-chunk
        results merge in one more weighted collapse.
        """
        if self._distinct is None:
            parts = [distinct_rows(chunk) for chunk in self._chunks()]
            if len(parts) > 1:
                rows, counts = (np.concatenate(part) for part in zip(*parts))
                parts = [distinct_rows(rows, counts)]
            self._distinct = parts[0]
        return self._distinct

    @property
    def distinct_count(self) -> int:
        """Number of distinct rows (any bit count)."""
        return len(self.distinct_rows()[0])

    def distinct_counts(self) -> Counter:
        """Multiset of distinct rows as ``{int mask: count}``."""
        rows, counts = self.distinct_rows()
        return Counter(dict(zip(row_masks(rows), counts.tolist())))

    def letter_counts(self) -> Counter:
        """Scan-1 state: the count of every vocabulary letter.

        Straight from :meth:`bit_totals`, so it never needs the distinct
        rows and stays fast when nearly every row is distinct.  Letters
        with zero occurrences are omitted.
        """
        totals = self.bit_totals().tolist()
        return Counter(
            {
                letter: totals[bit]
                for bit, letter in enumerate(self._vocab)
                if totals[bit]
            }
        )

    def project_hits(self, target: LetterVocabulary) -> dict[int, int]:
        """Scan 2 over the stored rows: the hits over ``target``, with counts.

        Each distinct row moves its bits to ``target``'s bit order
        (letters ``target`` lacks drop — the project-onto-``C_max`` step),
        rows with fewer than two bits drop, and rows that project alike
        merge their counts.
        """
        rows, counts = self.distinct_rows()
        projected = _remap_rows(
            rows, self._vocab.remap_table(target), words_for(len(target))
        )
        kept = np.bitwise_count(projected).sum(axis=1, dtype=np.int64) >= 2
        hits, totals = distinct_rows(projected[kept], counts[kept])
        return dict(zip(row_masks(hits), totals.tolist()))

    def count_masks(self, masks: Sequence[int]) -> dict[int, int]:
        """Frequency counts of many candidates in one pass.

        Delegates to :func:`~repro.kernels.batched.batched_count_masks`
        over the distinct rows.
        """
        return batched_count_masks(self.distinct_counts().items(), list(masks))

    def __repr__(self) -> str:
        return (
            f"SegmentStore(segments={len(self)}, period={self._period}, "
            f"letters={len(self._vocab)}, words={self.words}, "
            f"mapped={self.mapped})"
        )


def _row_chunks(
    column: SlotColumn,
    period: int,
    num_periods: int,
    vocab: LetterVocabulary,
) -> Iterator[np.ndarray]:
    """The store rows of the ``num_periods`` whole segments, chunk by chunk.

    :func:`~repro.kernels.slots.segment_rows` over about
    :data:`_BUILD_SLOTS` slots at a time.  Letters the column cannot
    hold (an offset past the period or a feature the series never has)
    are left out of the reduction and their bits stay zero.
    """
    table = column.table
    features = set(table.features)
    letters = vocab.letters
    held = [
        bit
        for bit, (offset, feature) in enumerate(letters)
        if offset < period and feature in features
    ]
    letter_ids = table.letter_ids(letters[bit] for bit in held)
    words = words_for(len(vocab))
    step = max(1, _BUILD_SLOTS // period)
    for start in range(0, num_periods, step):
        count = min(step, num_periods - start)
        part = SlotColumn(
            table, column.ids[start * period : (start + count) * period]
        )
        rows = segment_rows(part, period, count, letter_ids)
        yield rows if len(held) == len(vocab) else _remap_rows(rows, held, words)
