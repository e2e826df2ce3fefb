"""Windowed streaming mining over unbounded feeds, with exact retirement.

The streaming tier turns the batch hit-set miner into a window operator:

* :class:`~repro.streaming.windows.WindowSpec` — the window algebra
  (period-aligned slides, the exactness invariant);
* :class:`~repro.streaming.retirement.DecrementRetirement` — exact segment
  retirement by in-place decrement (delta-maintained hit table);
* :class:`~repro.streaming.buffer.ArrivalBuffer` — out-of-order event
  reordering under a bounded-lateness watermark, with late-event
  quarantine;
* :class:`~repro.streaming.engine.StreamingMiner` — the engine composing
  them, emitting per-window results plus pattern-change diffs.

The guarantee throughout: every emitted window equals batch-mining that
window's slice.  See ``docs/streaming.md``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.streaming.buffer": ("ArrivalBuffer", "LateEvent", "LateEventReport"),
    "repro.streaming.engine": ("StreamingMiner",),
    "repro.streaming.retirement": ("DecrementRetirement",),
    "repro.streaming.windows": ("WindowResult", "WindowSpec", "window_to_dict"),
})

if TYPE_CHECKING:
    from repro.streaming.buffer import ArrivalBuffer, LateEvent, LateEventReport
    from repro.streaming.engine import StreamingMiner
    from repro.streaming.retirement import DecrementRetirement
    from repro.streaming.windows import WindowResult, WindowSpec, window_to_dict

__all__ = [
    "ArrivalBuffer",
    "DecrementRetirement",
    "LateEvent",
    "LateEventReport",
    "StreamingMiner",
    "WindowResult",
    "WindowSpec",
    "window_to_dict",
]
