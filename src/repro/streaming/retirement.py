"""Exact segment retirement for the sliding window.

A sliding window advances by absorbing segments at the tail and *retiring*
them at the head, and the retired side must be exact — the headline
guarantee is that every window mines identically to a batch run on its
slice.  :class:`DecrementRetirement` keeps one running
:class:`~repro.core.incremental.SegmentPartial` plus a ring of the
signature masks :meth:`absorb` returned, in arrival order.  Retiring pops
the oldest mask and subtracts it from the partial
(:meth:`SegmentPartial.retire` is the exact inverse of ``absorb``).
The ring is the retained segments themselves, so a checkpoint keeps it
and the vocabulary only and rebuilds the partial from them.

It also keeps the :class:`~repro.core.hittable.HitTable` alive across
windows: while the frequent-1 letter set is unchanged, each mining
applies only the *delta* — +1 for each segment that entered, −1 for each
that left, a hit dropping out at zero — instead of rebuilding from every
retained signature.  Per-window work is proportional to what changed.

Retirement is of *whole segments by count*: the engine owns window
geometry and only ever says "the oldest ``n`` segments left".
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping, Sequence
from typing import Any

from repro.core.errors import EncodingError, MiningError, StreamError
from repro.core.hittable import HitTable
from repro.core.incremental import SegmentPartial
from repro.core.pattern import Letter
from repro.core.result import MiningResult
from repro.encoding.vocabulary import LetterVocabulary, remap_mask


class DecrementRetirement:
    """Running partial + mask ring + persistent delta-maintained hit table.

    Segments enter via :meth:`absorb` in stream order and leave oldest
    first via :meth:`retire`; :meth:`mine` at every point equals
    batch-mining exactly the currently retained segments.
    """

    #: The name recorded in persisted state (``to_state()["name"]``).
    name = "decrement"

    __slots__ = ("_partial", "_ring", "_added", "_removed", "_table",
                 "_table_f1")

    def __init__(self, period: int):
        self._partial = SegmentPartial(period)
        #: Signature masks of the retained segments, oldest first — the
        #: exact retirement ledger (drained head-first by retire()).
        self._ring: deque[int] = deque()
        #: Masks absorbed / retired since the table was last brought
        #: current, in order (cleared on every mine()).
        self._added: list[int] = []
        self._removed: list[int] = []
        self._table: HitTable | None = None
        self._table_f1: frozenset[Letter] | None = None

    @property
    def retained(self) -> int:
        """Whole segments currently held (absorbed minus retired)."""
        return self._partial.num_periods

    def absorb(self, segment: Sequence[frozenset[str]]) -> None:
        """Take one whole segment into the window."""
        mask = self._partial.absorb(segment)
        self._ring.append(mask)
        self._added.append(mask)

    def retire(self, count: int) -> None:
        """Drop the oldest ``count`` segments, exactly."""
        if count < 0:
            raise StreamError(f"retire count must be >= 0, got {count}")
        if count > self.retained:
            raise StreamError(
                f"cannot retire {count} segments: only "
                f"{self.retained} retained"
            )
        for _ in range(count):
            mask = self._ring.popleft()
            self._partial.retire(mask)
            self._removed.append(mask)

    def mine(
        self,
        min_conf: float,
        max_letters: int | None = None,
    ) -> MiningResult:
        """Frequent patterns of exactly the retained segments."""
        f1, _ = self._partial.frequent_one(min_conf)
        f1_letters = frozenset(f1)
        table = self._table
        if not f1:
            table = None
        elif table is not None and f1_letters == self._table_f1:
            # C_max is unchanged, so every stored hit's projection is
            # unchanged too: bring the table current by replaying only the
            # segments that entered or left since the last emission.
            # Additions go first so a mask that both entered and left
            # never dips a count below zero.
            remap = self._partial.vocab.remap_table(table.vocab)
            for mask in self._added:
                hit = remap_mask(mask, remap)
                if hit & (hit - 1):
                    table.add(hit)
            for mask in self._removed:
                hit = remap_mask(mask, remap)
                if hit & (hit - 1):
                    table.remove(hit)
        else:
            # F1 moved: the projection of every signature changes, so the
            # delta ledger is useless — rebuild from the retained state.
            table = self._partial.hit_table(f1)
        self._added.clear()
        self._removed.clear()
        self._table = table
        self._table_f1 = f1_letters if f1 else None
        return self._partial.mine(
            min_conf,
            max_letters=max_letters,
            algorithm="streaming-decrement",
            table=table,
        )

    def to_state(self) -> dict[str, Any]:
        """The JSON-ready durable form: the letters in id order and the ring.

        The partial's counters (:meth:`SegmentPartial.from_masks`), the
        hit table and its delta ledger are all derived from the ring on
        restore, so a restored instance mines identically by construction.
        """
        return {
            "name": self.name,
            "letters": [[offset, feature] for offset, feature in self._partial.vocab],
            "ring": list(self._ring),
        }

    def restore(self, state: Mapping[str, Any]) -> None:
        """Load :meth:`to_state` output into this (fresh) instance.

        State that still carries the partial's counters under a
        ``"partial"`` key (written before they were derived on restore)
        loads the same way, from its letters and ring, and is refused
        unless the stored counters equal the derived ones.  Refused
        state raises :class:`StreamError` and loads nothing.
        """
        if state["name"] != self.name:
            raise StreamError(
                f"unknown retirement strategy {state['name']!r} in "
                f"checkpointed state; only {self.name!r} state restores"
            )
        period = self._partial.period
        stored = state.get("partial")
        letters = state["letters"] if stored is None else stored["letters"]
        ring = deque(int(mask) for mask in state["ring"])
        try:
            vocab = LetterVocabulary(
                ((int(offset), str(feature)) for offset, feature in letters),
                period=period,
            )
            if len(vocab) != len(letters):
                raise EncodingError("its letters list repeats a letter")
            partial = SegmentPartial.from_masks(period, vocab, ring)
        except (EncodingError, MiningError) as error:
            raise StreamError(f"corrupt decrement state: {error}") from error
        if stored is not None and any(
            stored.get(key) != value
            for key, value in _stored_counters(partial).items()
        ):
            raise StreamError(
                "corrupt decrement state: its stored period, num_periods, "
                "signatures or letter_counts are not the ones its ring derives"
            )
        self._partial = partial
        self._ring = ring
        # The table and its delta ledger are derived state: the next
        # mine() rebuilds from the restored partial, which is exact.
        self._added.clear()
        self._removed.clear()
        self._table = None
        self._table_f1 = None


def _stored_counters(partial: SegmentPartial) -> dict[str, Any]:
    """``partial``'s counters as state with a ``"partial"`` key stored them."""
    return {
        "period": partial.period,
        "num_periods": partial.num_periods,
        "signatures": sorted(
            [mask, count] for mask, count in partial.signature_items()
        ),
        "letter_counts": [
            [offset, feature, count]
            for offset, feature in sorted(partial.vocab)
            if (count := partial.letter_count((offset, feature)))
        ],
    }
