"""The windowed streaming miner over an unbounded slot feed.

:class:`StreamingMiner` turns the batch hit-set algorithm into a stream
operator: slots go in one at a time, and whenever a window closes it emits
a :class:`~repro.streaming.windows.WindowResult` whose patterns are
*exactly* what batch-mining that window's slice would produce — the
equivalence the randomized suite pins against batch mining.

State is bounded by the window, never by the stream: the engine holds the
current partial segment (< period slots), one
:class:`~repro.streaming.retirement.DecrementRetirement` whose retained
set is at most ``ceil(size / period)`` segments, and the previous window's
result for change detection.  Nothing else accumulates — the
REP901 devtools rule audits exactly this property over the package.

The slot path does three things per slot: buffer it into the pending
segment, hand a completed segment to the retirement (unless the segment
falls in a slide gap no window will ever mine), and close a window when
``spec.emit_at`` is reached — at most one window per slot, because the
slide is at least one period.  Retirement happens eagerly at emission:
segments that no future window needs are retired before the next slot
arrives, so peak retained state is one window's worth.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Any

from repro.analysis.evolution import diff_results
from repro.core.errors import StreamError
from repro.core.result import MiningResult
from repro.core.serialize import result_from_dict, result_to_dict
from repro.streaming.retirement import DecrementRetirement
from repro.streaming.windows import (
    WindowResult,
    WindowSpec,
    check_stream_params,
    window_to_dict,
)
from repro.timeseries.feature_series import (
    FeatureSeries,
    SlotLike,
    _normalize_slot,
)


class StreamingMiner:
    """Exact windowed mining over an endless slot feed.

    Parameters
    ----------
    period:
        The mined period, in slots.
    window:
        Window size in slots (>= period; need not be a multiple — the
        trailing partial segment of each window is excluded, exactly as
        batch mining excludes it from the equivalent slice).
    slide:
        Stride between window starts in slots; must be a multiple of
        ``period`` (the exactness invariant) and defaults to ``window``
        (tumbling windows).
    min_conf:
        Confidence threshold applied to every window.
    max_letters:
        Optional derivation cap forwarded to every window's miner.
    change_tolerance:
        Minimum confidence move for a shared pattern to be reported as
        strengthened/weakened in the per-window change feed.

    Examples
    --------
    >>> miner = StreamingMiner(period=2, window=4, min_conf=0.75)
    >>> [w.index for w in miner.extend("abab" "abac")]
    [0, 1]
    """

    __slots__ = (
        "_spec",
        "_min_conf",
        "_max_letters",
        "_tolerance",
        "_retirement",
        "_pending",
        "_slots_seen",
        "_next_segment",
        "_retained_low",
        "_windows_emitted",
        "_last_result",
    )

    def __init__(
        self,
        period: int,
        window: int,
        slide: int | None = None,
        min_conf: float = 0.5,
        max_letters: int | None = None,
        change_tolerance: float = 0.05,
    ):
        self._spec = WindowSpec(
            period=period,
            size=window,
            slide=window if slide is None else slide,
        )
        check_stream_params(min_conf, change_tolerance)
        self._min_conf = min_conf
        self._max_letters = max_letters
        self._tolerance = change_tolerance
        self._retirement = DecrementRetirement(period)
        #: Slots of the currently-incomplete segment (< period of them).
        self._pending: list[frozenset[str]] = []
        self._slots_seen = 0
        #: Global index of the next segment the feed will complete.
        self._next_segment = 0
        #: Global index of the oldest segment any future window needs;
        #: completed segments below it fall in a slide gap and are
        #: dropped without ever entering the retirement.
        self._retained_low = 0
        self._windows_emitted = 0
        self._last_result: MiningResult | None = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def spec(self) -> WindowSpec:
        """The stream's window algebra."""
        return self._spec

    @property
    def slots_seen(self) -> int:
        """Total slots fed so far."""
        return self._slots_seen

    @property
    def windows_emitted(self) -> int:
        """Windows closed and emitted so far."""
        return self._windows_emitted

    @property
    def retained_segments(self) -> int:
        """Whole segments currently held for future windows."""
        return self._retirement.retained

    @property
    def last_result(self) -> MiningResult | None:
        """The most recently emitted window's result (change-feed basis)."""
        return self._last_result

    # ------------------------------------------------------------------
    # The slot path
    # ------------------------------------------------------------------

    def append(self, slot: SlotLike) -> WindowResult | None:
        """Feed one slot; returns the window it closed, if any.

        A feature holding a reserved pattern character raises
        :class:`StreamError` before the slot is taken.
        """
        features = _normalize_slot(slot, StreamError)
        self._pending.append(features)
        self._slots_seen += 1
        if len(self._pending) == self._spec.period:
            if self._next_segment >= self._retained_low:
                self._retirement.absorb(tuple(self._pending))
            self._next_segment += 1
            self._pending.clear()
        if self._slots_seen == self._spec.emit_at(self._windows_emitted):
            return self._emit()
        return None

    def extend(
        self, slots: Iterable[SlotLike] | str | FeatureSeries
    ) -> list[WindowResult]:
        """Feed many slots; returns every window they closed, in order."""
        if isinstance(slots, str):
            slots = FeatureSeries.from_symbols(slots)
        emitted = []
        for slot in slots:
            window = self.append(slot)
            if window is not None:
                emitted.append(window)
        return emitted

    def _emit(self) -> WindowResult:
        """Close the current window: mine, diff, retire what aged out."""
        spec = self._spec
        index = self._windows_emitted
        result = self._retirement.mine(
            self._min_conf, max_letters=self._max_letters
        )
        changes = (
            None
            if self._last_result is None
            else diff_results(self._last_result, result, self._tolerance)
        )
        window = WindowResult(
            index=index,
            start_slot=spec.start_slot(index),
            end_slot=spec.end_slot(index),
            result=result,
            changes=changes,
        )
        self._last_result = result
        self._windows_emitted += 1
        # Retire eagerly: everything older than the next window's first
        # segment has served its last window.  With a slide past the
        # window size the next start may even exceed what has streamed —
        # then every retained segment retires and the gap's segments are
        # later skipped at absorb time by the _retained_low check.
        new_low = spec.start_segment(self._windows_emitted)
        retire_n = min(self._next_segment, new_low) - self._retained_low
        if retire_n > 0:
            self._retirement.retire(retire_n)
        self._retained_low = max(self._retained_low, new_low)
        return window

    # ------------------------------------------------------------------
    # Durable state (checkpoint/restore)
    # ------------------------------------------------------------------

    def to_state(self) -> dict[str, Any]:
        """The complete JSON-ready durable form of this miner.

        Everything the slot path reads is captured: window geometry and
        thresholds, the retirement's retained-set state, the
        pending partial segment, the stream cursors, and the previously
        emitted result (the change-feed basis — without it the first
        window after a resume would mis-report its diff).  A miner built
        by :meth:`from_state` emits, slot for slot, exactly what this
        miner would have emitted.
        """
        return {
            "period": self._spec.period,
            "window": self._spec.size,
            "slide": self._spec.slide,
            "min_conf": self._min_conf,
            "max_letters": self._max_letters,
            "change_tolerance": self._tolerance,
            "strategy": self._retirement.to_state(),
            "pending": [sorted(slot) for slot in self._pending],
            "slots_seen": self._slots_seen,
            "next_segment": self._next_segment,
            "retained_low": self._retained_low,
            "windows_emitted": self._windows_emitted,
            "last_result": (
                None
                if self._last_result is None
                else result_to_dict(self._last_result)
            ),
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "StreamingMiner":
        """Rebuild a miner from :meth:`to_state` output.

        States written while the miner still had a ``kernel`` setting
        carry a ``"kernel"`` field; it only ever chose the derivation
        pass, which is now the same for every value, so it is ignored.
        A retirement state not named ``"decrement"`` (the former
        ``"ring"`` strategy) raises :class:`StreamError`: its layout
        cannot be restored, and rebuilding it silently would lose the
        retained window.
        """
        try:
            miner = cls(
                period=int(state["period"]),
                window=int(state["window"]),
                slide=int(state["slide"]),
                min_conf=float(state["min_conf"]),
                max_letters=(
                    None
                    if state["max_letters"] is None
                    else int(state["max_letters"])
                ),
                change_tolerance=float(state["change_tolerance"]),
            )
            miner._retirement.restore(state["strategy"])
            miner._pending = [
                frozenset(str(feature) for feature in slot)
                for slot in state["pending"]
            ]
            miner._slots_seen = int(state["slots_seen"])
            miner._next_segment = int(state["next_segment"])
            miner._retained_low = int(state["retained_low"])
            miner._windows_emitted = int(state["windows_emitted"])
            last_result = state["last_result"]
            miner._last_result = (
                None
                if last_result is None
                else result_from_dict(last_result)
            )
        except (KeyError, TypeError, ValueError) as error:
            raise StreamError(
                f"malformed streaming-miner state: {error}"
            ) from error
        return miner

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready live state for ``/stats`` and the CLI summary."""
        spec = self._spec
        return {
            "period": spec.period,
            "window": spec.size,
            "slide": spec.slide,
            "strategy": self._retirement.name,
            "min_conf": self._min_conf,
            "slots_seen": self._slots_seen,
            "windows_emitted": self._windows_emitted,
            "retained_segments": self.retained_segments,
            "last_window": (
                None
                if self._last_result is None
                else {
                    "num_periods": self._last_result.num_periods,
                    "patterns": len(self._last_result),
                }
            ),
        }

    def __repr__(self) -> str:
        spec = self._spec
        return (
            f"StreamingMiner(period={spec.period}, window={spec.size}, "
            f"slide={spec.slide}, slots={self._slots_seen}, "
            f"windows={self._windows_emitted})"
        )


__all__ = [
    "StreamingMiner",
    "WindowResult",
    "WindowSpec",
    "window_to_dict",
]
