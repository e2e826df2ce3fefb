"""Window geometry and per-window emission records.

A :class:`WindowSpec` fixes the stream's window algebra once, up front:
window ``w`` covers slots ``[w * slide, w * slide + size)``.  ``slide``
must be a multiple of the period so every window starts on a segment
boundary — the invariant that makes streaming results *byte-identical* to
batch-mining the window's slice (window starts stay aligned with the
global segmentation, so both sides see the same whole segments and drop
the same ``size % period`` trailing slots).  ``size`` itself is free: a
window the period does not divide simply excludes its partial trailing
segment, exactly as :func:`repro.core.hitset.mine_single_period_hitset`
does on the equivalent slice.

:class:`WindowResult` is what the engine emits per window: the exact
mining result plus the :class:`~repro.analysis.evolution.WindowDiff`
against the previously emitted window (patterns born, died, or moved in
confidence) — the change feed that is the product of streaming.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass
from typing import Any

from repro.analysis.evolution import WindowDiff
from repro.core.counting import check_min_conf
from repro.core.errors import StreamError
from repro.core.pattern import Pattern, feature_problem
from repro.core.result import MiningResult


@dataclass(frozen=True, slots=True)
class WindowSpec:
    """The window algebra of one stream: period, window size, slide.

    All three are slot counts.  ``slide`` defaults to ``size`` (tumbling
    windows); ``slide > size`` leaves gaps whose segments are never mined,
    ``slide < size`` overlaps windows.
    """

    period: int
    size: int
    slide: int

    def __post_init__(self) -> None:
        if self.period < 1:
            raise StreamError(f"period must be >= 1, got {self.period}")
        if self.size < self.period:
            raise StreamError(
                f"window of {self.size} slots holds no whole period "
                f"of {self.period}"
            )
        if self.slide < 1:
            raise StreamError(f"slide must be >= 1, got {self.slide}")
        if self.slide % self.period:
            raise StreamError(
                f"slide {self.slide} must be a multiple of the period "
                f"{self.period} so windows start on segment boundaries "
                "(the exactness invariant)"
            )

    @property
    def segments_per_window(self) -> int:
        """Whole segments mined per window (``size // period``)."""
        return self.size // self.period

    def start_slot(self, index: int) -> int:
        """First slot (inclusive) of window ``index``."""
        return index * self.slide

    def end_slot(self, index: int) -> int:
        """Last slot (exclusive) of window ``index``."""
        return index * self.slide + self.size

    def start_segment(self, index: int) -> int:
        """Global index of window ``index``'s first whole segment."""
        return index * self.slide // self.period

    def emit_at(self, index: int) -> int:
        """Total slots that must have streamed for window ``index`` to close."""
        return index * self.slide + self.size


@dataclass(frozen=True, slots=True)
class WindowResult:
    """One emitted window: its exact patterns and the change feed.

    ``result`` is guaranteed equal (counts and ``num_periods``) to
    batch-mining ``series[start_slot:end_slot]`` — the engine's headline
    invariant, pinned by the randomized equivalence suite.
    """

    #: Index of the window in the stream (0-based).
    index: int
    #: First slot (inclusive) and last slot (exclusive) of the window.
    start_slot: int
    end_slot: int
    result: MiningResult
    #: Diff against the previously emitted window; ``None`` for the first.
    changes: WindowDiff | None

    def confidence(self, pattern: Pattern) -> float:
        """Confidence of a pattern in this window (0.0 if not frequent)."""
        count = self.result.get(pattern)
        return count / self.result.num_periods if count else 0.0

    @property
    def is_first(self) -> bool:
        """True for the stream's first emitted window (no diff basis)."""
        return self.changes is None


def window_to_dict(window: WindowResult) -> dict[str, Any]:
    """JSON-ready form of one emitted window (CLI change log, serve API)."""
    result = window.result
    payload: dict[str, Any] = {
        "index": window.index,
        "start_slot": window.start_slot,
        "end_slot": window.end_slot,
        "num_periods": result.num_periods,
        "patterns": [
            {
                "pattern": str(pattern),
                "count": count,
                "confidence": round(count / result.num_periods, 6),
            }
            for pattern, count in sorted(result.items())
        ],
    }
    changes = window.changes
    if changes is None:
        payload["changes"] = None
    else:
        payload["changes"] = {
            "emerged": [str(p) for p in changes.emerged],
            "vanished": [str(p) for p in changes.vanished],
            "strengthened": [
                {
                    "pattern": str(c.pattern),
                    "before": round(c.before, 6),
                    "after": round(c.after, 6),
                }
                for c in changes.strengthened
            ],
            "weakened": [
                {
                    "pattern": str(c.pattern),
                    "before": round(c.before, 6),
                    "after": round(c.after, 6),
                }
                for c in changes.weakened
            ],
            "stable": changes.is_stable,
        }
    return payload


def check_stream_params(min_conf: float, change_tolerance: float) -> None:
    """Validate the engine's non-geometry parameters in one place."""
    check_min_conf(min_conf)
    if change_tolerance < 0:
        raise StreamError(
            f"change_tolerance must be >= 0, got {change_tolerance}"
        )


def check_features(features: Collection[str]) -> None:
    """Refuse fed features whose pattern text would not parse back.

    A feature holding a character of the pattern notation (``*``, ``{``,
    ``}`` or ``,``) is mined into pattern text that a resumed stream's
    snapshot reads back as other features, or cannot read at all.  Stream
    inputs are checked here, before anything is buffered or logged: one
    scan of the joined features, then one feature at a time only to name
    the culprit.
    """
    # A letter-and-digit name (the common case) holds none of them.
    text = "".join(features)
    if text.isalnum() or feature_problem(text) is None:
        return
    for feature in features:
        problem = feature_problem(feature)
        if problem is not None:
            raise StreamError(problem)
