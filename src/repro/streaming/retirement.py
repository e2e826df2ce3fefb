"""Exact segment retirement for the sliding window.

A sliding window advances by absorbing segments at the tail and *retiring*
them at the head, and the retired side must be exact — the headline
guarantee is that every window mines identically to a batch run on its
slice.  :class:`DecrementRetirement` keeps one running
:class:`~repro.core.incremental.SegmentPartial` plus a ring of the
signature masks :meth:`absorb` returned, in arrival order.  Retiring pops
the oldest mask and subtracts it from the partial
(:meth:`SegmentPartial.retire` is the exact inverse of ``absorb``).

It also keeps the :class:`~repro.core.hittable.HitTable` alive across
windows: while the frequent-1 letter set is unchanged, each mining
applies only the *delta* — +1 for each segment that entered, −1 for each
that left, a hit dropping out at zero — instead of rebuilding from every
retained signature.  Per-window work is proportional to what changed.

Retirement is of *whole segments by count*: the engine owns window
geometry and only ever says "the oldest ``n`` segments left".
"""

from __future__ import annotations

from collections import Counter, deque
from collections.abc import Mapping, Sequence
from typing import Any

from repro.core.errors import StreamError
from repro.core.hittable import HitTable
from repro.core.incremental import SegmentPartial
from repro.core.pattern import Letter
from repro.core.result import MiningResult
from repro.encoding.vocabulary import remap_mask


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
        """The JSON-ready durable form of the retained-set state.

        The persistent hit table and its delta ledger are deliberately
        dropped: they are a pure function of the retained state and are
        rebuilt on the first mine after restore, so a restored instance
        mines identically by construction.
        """
        return {
            "name": self.name,
            "partial": self._partial.to_state(),
            "ring": list(self._ring),
        }

    def restore(self, state: Mapping[str, Any]) -> None:
        """Load :meth:`to_state` output into this (fresh) instance."""
        if state["name"] != self.name:
            raise StreamError(
                f"unknown retirement strategy {state['name']!r} in "
                f"checkpointed state; only {self.name!r} state restores"
            )
        partial = SegmentPartial.from_state(state["partial"])
        if partial.period != self._partial.period:
            raise StreamError(
                f"checkpointed strategy has period {partial.period}, "
                f"stream wants {self._partial.period}"
            )
        ring = deque(int(mask) for mask in state["ring"])
        if len(ring) != partial.num_periods:
            raise StreamError(
                f"checkpointed decrement state is inconsistent: "
                f"{len(ring)} ring masks for "
                f"{partial.num_periods} retained segments"
            )
        ring_masks = Counter(ring)
        ring_masks.pop(0, None)  # empty segments have no signature
        # Plain dict equality: Counter's own == loops in Python.
        if dict(ring_masks) != dict(partial.signature_items()):
            raise StreamError(
                "checkpointed decrement state is inconsistent: the ring's "
                "masks are not the partial's signatures"
            )
        self._partial = partial
        self._ring = ring
        # The table and its delta ledger are derived state: the next
        # mine() rebuilds from the restored partial, which is exact.
        self._added.clear()
        self._removed.clear()
        self._table = None
        self._table_f1 = None
