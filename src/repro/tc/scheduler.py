"""Queue schedulers for the TC dataplane.

The scheduler "pulls packets from active queues" (§6.1.1).  Two
disciplines ship: plain FIFO (serve the lowest queue id first — the
single-queue transparent mode degenerates to this) and round robin,
which is what the Fig. 11 xApp installs so the VoIP queue is served
every other packet regardless of the greedy queue's depth.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.tc.queues import FifoQueue


class QueueScheduler:
    """Picks the next queue to serve among the active (non-empty)."""

    name = "base"

    def pick(self, queues: Dict[int, FifoQueue]) -> Optional[FifoQueue]:
        raise NotImplementedError


class FifoSched(QueueScheduler):
    """Serve queues in id order; effectively FIFO with one queue."""

    name = "fifo"

    def pick(self, queues: Dict[int, FifoQueue]) -> Optional[FifoQueue]:
        for queue_id in sorted(queues):
            if queues[queue_id]:
                return queues[queue_id]
        return None


class RoundRobinSched(QueueScheduler):
    """Packet-by-packet rotation over active queues."""

    name = "rr"

    def __init__(self) -> None:
        self._last_served: Optional[int] = None

    def pick(self, queues: Dict[int, FifoQueue]) -> Optional[FifoQueue]:
        active = [queue_id for queue_id in sorted(queues) if queues[queue_id]]
        if not active:
            return None
        if self._last_served is None:
            chosen = active[0]
        else:
            later = [queue_id for queue_id in active if queue_id > self._last_served]
            chosen = later[0] if later else active[0]
        self._last_served = chosen
        return queues[chosen]


def make_scheduler(kind: str) -> QueueScheduler:
    if kind == "fifo":
        return FifoSched()
    if kind == "rr":
        return RoundRobinSched()
    raise ValueError(f"unknown queue scheduler {kind!r}")
