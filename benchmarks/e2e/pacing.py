"""Open-loop schedule: every slot keeps its due time, whatever happens.

Slot ``k`` is due at ``start + k * period``.  A sender that stalls does
not push later slots back and does not drop them: the slots it missed
come out back to back, each still stamped with the time it *should*
have gone out, so the wait a stall imposes on later messages is
charged to their latency instead of disappearing.
"""

from __future__ import annotations

import select
import time
from array import array
from typing import Callable

#: Sleep up to this long before a due time, then spin: ``time.sleep``
#: overshoots by tens of microseconds, a short spin does not.
SPIN_S = 150e-6


def _relax() -> None:
    """Let go of the interpreter lock for a moment without sleeping.

    A zero-timeout ``select`` returns at once but releases the lock
    around the call, so a transport thread of the same process is never
    kept waiting by the spin.  (``sleep(0)`` and ``sched_yield`` both
    hand the core to the idle-poll loop for tens of microseconds to
    milliseconds.)
    """
    select.select((), (), (), 0)


class OpenLoop:
    """Hands out due times at a fixed period and waits for each."""

    def __init__(
        self,
        period_s: float,
        start: float,
        clock: Callable[[], float] = time.perf_counter,
        sleep: Callable[[float], None] = time.sleep,
        relax: Callable[[], None] = _relax,
    ) -> None:
        self.period_s = period_s
        self.start = start
        self.slot = 0
        #: how late each slot was released, in seconds.
        self.late = array("d")
        self._clock = clock
        self._sleep = sleep
        self._relax = relax

    def next_due(self) -> float:
        """Block until the next slot is due; return its due time."""
        due = self.start + self.slot * self.period_s
        self.slot += 1
        clock = self._clock
        now = clock()
        if due - now > SPIN_S:
            self._sleep(due - now - SPIN_S)
            now = clock()
        relax = self._relax
        while now < due:
            relax()
            now = clock()
        self.late.append(now - due)
        return due
