"""Out-of-order arrival buffering with a bounded-lateness watermark.

Real event feeds are not slot-ordered: network skew and batching deliver
events late and out of order.  The buffer reorders them into slots under a
standard watermark contract: after seeing an event at time ``t``, the
stream promises no further event older than ``t - lateness``.  A slot
*seals* — becomes immutable and eligible for draining into the miner —
once the watermark passes its right edge; an event addressed to an
already-sealed slot is *quarantined* (dropped from the stream, recorded on
a :class:`LateEventReport`) rather than silently lost or, worse, silently
applied where it could no longer change the emitted windows.  The report
mirrors :class:`repro.timeseries.io.LoadReport`: a side channel the caller
surfaces, never an exception mid-stream.

Memory is bounded by the contract itself: at most
``ceil(lateness / slot_width) + 1`` slots can be open at once, because
anything older is sealed by the very watermark the newest event implies.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.errors import StreamError
from repro.streaming.windows import check_features

#: Late-event samples kept verbatim on a report (counters keep the rest).
MAX_LATE_SAMPLES = 20


@dataclass(frozen=True, slots=True)
class LateEvent:
    """One event that arrived after its slot had sealed."""

    time: float
    feature: str
    #: The watermark at arrival — how far past the deadline the event was.
    watermark: float

    def describe(self) -> str:
        """``t=...: feature (watermark ...)`` for logs and CLI warnings."""
        return (
            f"t={self.time:g}: {self.feature!r} arrived behind the "
            f"watermark ({self.watermark:g})"
        )


@dataclass(slots=True)
class LateEventReport:
    """Side-channel record of everything the buffer quarantined.

    Totals and per-feature counts are exact; only the first
    :data:`MAX_LATE_SAMPLES` offenders are kept verbatim, so the report
    stays bounded no matter how pathological the feed.
    """

    total: int = 0
    per_feature: Counter[str] = field(default_factory=Counter)
    samples: list[LateEvent] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when nothing was quarantined."""
        return not self.total

    def record(self, event: LateEvent) -> None:
        """Count one quarantined event (sample kept while under the cap)."""
        self.total += 1
        self.per_feature[event.feature] += 1
        if len(self.samples) < MAX_LATE_SAMPLES:
            self.samples.append(event)

    def to_dict(self) -> dict[str, object]:
        """JSON-ready summary for the CLI change log and serve stats."""
        return {
            "total": self.total,
            "per_feature": dict(self.per_feature),
            "samples": [event.describe() for event in self.samples],
        }


class ArrivalBuffer:
    """Reorders a timed event feed into sealed slots for the miner.

    Parameters
    ----------
    slot_width:
        Duration of one slot; slot ``i`` covers
        ``[start + i * slot_width, start + (i + 1) * slot_width)``.
    start:
        Time origin of slot 0.
    lateness:
        The bounded-lateness allowance: an event may trail the newest
        event seen by up to this much and still land in its slot.  ``0``
        seals a slot the moment a newer slot's event arrives.
    report:
        Optional shared quarantine report; one is created if omitted.
    """

    __slots__ = ("_slot_width", "_start", "_lateness", "_open", "_sealed",
                 "_max_time", "report")

    def __init__(
        self,
        slot_width: float,
        start: float = 0.0,
        lateness: float = 0.0,
        report: LateEventReport | None = None,
    ):
        if slot_width <= 0:
            raise StreamError(f"slot_width must be > 0, got {slot_width}")
        if lateness < 0:
            raise StreamError(f"lateness must be >= 0, got {lateness}")
        self._slot_width = slot_width
        self._start = start
        self._lateness = lateness
        #: Open (unsealed) slots: index -> accumulating feature set.
        self._open: dict[int, set[str]] = {}
        #: Index of the next slot to seal; everything below is immutable.
        self._sealed = 0
        self._max_time: float | None = None
        self.report = report if report is not None else LateEventReport()

    @property
    def watermark(self) -> float | None:
        """No event older than this can still arrive (``None`` before any)."""
        if self._max_time is None:
            return None
        return self._max_time - self._lateness

    @property
    def open_slots(self) -> int:
        """Slots currently buffering events (bounded by the lateness)."""
        return len(self._open)

    @property
    def sealed_slots(self) -> int:
        """Slots already sealed and handed to :meth:`drain`."""
        return self._sealed

    def add(self, time: float, feature: str) -> bool:
        """Buffer one event; returns ``False`` when it was quarantined.

        A feature holding a reserved pattern character raises
        :class:`StreamError` (:func:`check_features`).  Events from before
        the time origin, or addressed to a slot the
        watermark already sealed, go to the quarantine report — they can
        no longer change any emitted window, so applying them would break
        the exactness guarantee rather than improve the result.
        """
        if not feature:
            raise StreamError("event feature must be non-empty")
        # A letter-and-digit name (the common case) holds no notation
        # character; anything else gets the full check.
        if not feature.isalnum():
            check_features((feature,))
        if self._max_time is None or time > self._max_time:
            self._max_time = time
        index = int((time - self._start) // self._slot_width)
        if time < self._start or index < self._sealed:
            watermark = self.watermark
            self.report.record(
                LateEvent(
                    time=time,
                    feature=feature,
                    watermark=watermark if watermark is not None else time,
                )
            )
            return False
        self._open.setdefault(index, set()).add(feature)
        return True

    def drain(self) -> list[frozenset[str]]:
        """Seal and return every slot the watermark has passed, in order.

        Slots with no events come back as empty frozensets — gaps are real
        slots, exactly as in a loaded series.  Draining is the buffer's
        eviction path: sealed slots leave ``_open`` permanently.
        """
        watermark = self.watermark
        if watermark is None:
            return []
        upto = int((watermark - self._start) // self._slot_width)
        return self._seal_below(upto)

    def flush(self) -> list[frozenset[str]]:
        """Seal everything buffered (end of stream), in slot order."""
        if not self._open:
            return []
        return self._seal_below(max(self._open) + 1)

    def _seal_below(self, upto: int) -> list[frozenset[str]]:
        sealed: list[frozenset[str]] = []
        while self._sealed < upto:
            features = self._open.pop(self._sealed, None)
            sealed.append(
                frozenset() if features is None else frozenset(features)
            )
            self._sealed += 1
        return sealed

    # ------------------------------------------------------------------
    # Durable state (checkpoint/restore)
    # ------------------------------------------------------------------

    def to_state(self) -> dict[str, object]:
        """The JSON-ready durable form: geometry, open slots, quarantine."""
        return {
            "slot_width": self._slot_width,
            "start": self._start,
            "lateness": self._lateness,
            "open": sorted(
                [index, sorted(features)]
                for index, features in self._open.items()
            ),
            "sealed": self._sealed,
            "max_time": self._max_time,
            "report": {
                "total": self.report.total,
                "per_feature": dict(sorted(self.report.per_feature.items())),
                "samples": [
                    [event.time, event.feature, event.watermark]
                    for event in self.report.samples
                ],
            },
        }

    @classmethod
    def from_state(cls, state: dict) -> "ArrivalBuffer":
        """Rebuild a buffer from :meth:`to_state` output."""
        try:
            report_state = state["report"]
            report = LateEventReport(
                total=int(report_state["total"]),
                per_feature=Counter(
                    {
                        str(feature): int(count)
                        for feature, count in report_state[
                            "per_feature"
                        ].items()
                    }
                ),
                samples=[
                    LateEvent(
                        time=float(time),
                        feature=str(feature),
                        watermark=float(watermark),
                    )
                    for time, feature, watermark in report_state["samples"]
                ],
            )
            buffer = cls(
                slot_width=float(state["slot_width"]),
                start=float(state["start"]),
                lateness=float(state["lateness"]),
                report=report,
            )
            buffer._open = {
                int(index): {str(feature) for feature in features}
                for index, features in state["open"]
            }
            buffer._sealed = int(state["sealed"])
            max_time = state["max_time"]
            buffer._max_time = None if max_time is None else float(max_time)
        except (KeyError, TypeError, ValueError) as error:
            raise StreamError(
                f"malformed arrival-buffer state: {error}"
            ) from error
        return buffer

    def __repr__(self) -> str:
        return (
            f"ArrivalBuffer(slot_width={self._slot_width}, "
            f"sealed={self._sealed}, open={self.open_slots}, "
            f"quarantined={self.report.total})"
        )
