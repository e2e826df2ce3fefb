"""Wall-clock budgets for serve requests.

A :class:`Deadline` is a monotonic-clock budget shared by every phase of
one request — queueing, admission, mining, serialization.
:meth:`Deadline.check` is the cheap raise-if-expired probe for use
between awaits, and :meth:`Deadline.bound` caps any awaitable at the
remaining budget; both surface exhaustion as
:class:`~repro.core.errors.DeadlineExceeded`, which the app answers with
504.  Cancellation is cooperative: a mine already running on a worker
thread cannot be preempted, but nothing new waits on it once the budget
is spent.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Awaitable, TypeVar

from repro.core.errors import DeadlineExceeded, ServeError

T = TypeVar("T")


@dataclass(frozen=True, slots=True)
class Deadline:
    """A fixed wall-clock budget anchored at creation time.

    Build one with :meth:`start`; ``budget_s`` is the total allowance and
    ``started`` the :func:`time.monotonic` anchor.

    >>> deadline = Deadline.start(60.0)
    >>> deadline.expired
    False
    """

    budget_s: float
    started: float

    @classmethod
    def start(cls, budget_s: float) -> "Deadline":
        """A deadline expiring ``budget_s`` seconds from now."""
        if budget_s <= 0:
            raise ServeError(f"deadline budget must be > 0, got {budget_s}")
        return cls(budget_s=budget_s, started=time.monotonic())

    def elapsed(self) -> float:
        """Seconds spent since the deadline started."""
        return time.monotonic() - self.started

    def remaining(self) -> float:
        """Seconds left in the budget (never negative)."""
        return max(0.0, self.budget_s - self.elapsed())

    @property
    def expired(self) -> bool:
        """True once the budget is fully spent."""
        return self.remaining() <= 0.0

    def check(self, label: str = "operation") -> None:
        """Raise :class:`DeadlineExceeded` if the budget is already spent.

        The polling form for cooperative async code: call it between
        awaits so a long handler stops promptly once its request deadline
        passes instead of finishing work nobody is waiting for.
        """
        if self.expired:
            raise DeadlineExceeded(
                f"{label} exceeded its deadline "
                f"(budget {self.budget_s:.3f}s spent)"
            )

    async def bound(self, awaitable: Awaitable[T], label: str = "operation") -> T:
        """Await something, but only for the remaining budget.

        Wraps :func:`asyncio.wait_for` with :meth:`remaining` and converts
        the cancellation into :class:`DeadlineExceeded`, the same
        exception :meth:`check` raises.  An already-expired deadline raises without
        scheduling the awaitable's first step (closing a bare coroutine
        so it does not warn about never being awaited).
        """
        if self.expired:
            if asyncio.iscoroutine(awaitable):
                awaitable.close()
            self.check(label)
        try:
            return await asyncio.wait_for(awaitable, timeout=self.remaining())
        except asyncio.TimeoutError:
            raise DeadlineExceeded(
                f"{label} exceeded its deadline "
                f"(budget {self.budget_s:.3f}s spent)"
            ) from None

    def __repr__(self) -> str:
        return f"Deadline(budget_s={self.budget_s}, remaining={self.remaining():.3f})"
