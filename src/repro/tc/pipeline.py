"""TC pipeline: the per-bearer dataplane the TC SM drives (Fig. 10).

Sits between SDAP and PDCP on one bearer's downlink path.  In
**transparent mode** (default: one queue, no pacer) packets pass
straight through — Fig. 10a.  Once the xApp installs queues, filters
and a pacer (Fig. 10b), packets are classified into queues and the
:meth:`drain` hook — called by the base station every TTI — releases
them according to the pacer budget and queue scheduler.

Implements :class:`repro.sm.traffic_ctrl.TcApi`.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.sm.traffic_ctrl import FiveTupleMatch
from repro.tc.classifier import Classifier
from repro.tc.pacer import NonePacer, Pacer, make_pacer
from repro.tc.queues import FifoQueue
from repro.tc.scheduler import FifoSched, QueueScheduler, make_scheduler
from repro.traffic.flows import Packet

#: Downstream signature: (packet, now) -> accepted (PDCP submit).
Downstream = Callable[[Packet, float], bool]


class TcPipeline:
    """Classifier + queues + scheduler + pacer for one bearer."""

    DEFAULT_QUEUE = 0

    def __init__(
        self,
        downstream: Downstream,
        rlc_backlog: Callable[[], int],
        rate_estimate_bps: Callable[[], float],
    ) -> None:
        self._downstream = downstream
        self._rlc_backlog = rlc_backlog
        self._rate_estimate_bps = rate_estimate_bps
        self.classifier = Classifier(default_queue=self.DEFAULT_QUEUE)
        self.queues: Dict[int, FifoQueue] = {self.DEFAULT_QUEUE: FifoQueue(self.DEFAULT_QUEUE)}
        self.scheduler: QueueScheduler = FifoSched()
        self.pacer: Pacer = NonePacer()
        self.pkts_in = 0
        self.pkts_out = 0

    # -- TcApi ----------------------------------------------------------

    def add_queue(self, queue_id: int) -> None:
        if queue_id in self.queues:
            raise ValueError(f"queue {queue_id} already exists")
        self.queues[queue_id] = FifoQueue(queue_id)

    def del_queue(self, queue_id: int) -> None:
        if queue_id == self.DEFAULT_QUEUE:
            raise ValueError("cannot delete the default queue")
        queue = self.queues.pop(queue_id, None)
        if queue is None:
            raise ValueError(f"unknown queue {queue_id}")
        self.classifier.drop_queue_rules(queue_id)
        # Spill remaining packets into the default queue, preserving
        # order and the original enqueue timestamps.
        default = self.queues[self.DEFAULT_QUEUE]
        while queue:
            packet = queue.pop(now=0.0)
            if packet is None:
                break
            original_enqueue = packet.enqueued_tc or 0.0
            default.push(packet, original_enqueue)

    def add_filter(self, match: FiveTupleMatch, queue_id: int, prio: int) -> int:
        if queue_id not in self.queues:
            raise ValueError(f"unknown queue {queue_id}")
        return self.classifier.add_rule(match, queue_id, prio).filter_id

    def del_filter(self, filter_id: int) -> None:
        if not self.classifier.remove_rule(filter_id):
            raise ValueError(f"unknown filter {filter_id}")

    def set_pacer(self, kind: str, params: Dict[str, float]) -> None:
        self.pacer = make_pacer(kind, params)

    def set_scheduler(self, kind: str) -> None:
        self.scheduler = make_scheduler(kind)

    def queue_snapshot(self) -> dict:
        now = 0.0  # sojourn reported from last dequeues; head age needs now
        return {
            "queues": [
                {
                    "queue_id": queue.queue_id,
                    "backlog_bytes": queue.backlog_bytes,
                    "backlog_pkts": queue.backlog_pkts,
                    "sojourn_ms": queue.last_sojourn_s * 1000.0,
                    "enqueued": queue.enqueued,
                    "dequeued": queue.dequeued,
                    "dropped": queue.dropped,
                }
                for _qid, queue in sorted(self.queues.items())
            ],
            "pacer": self.pacer.name,
            "scheduler": self.scheduler.name,
            "filters": len(self.classifier.rules),
        }

    # -- dataplane --------------------------------------------------------

    @property
    def transparent(self) -> bool:
        """True while the pipeline has nothing to do (Fig. 10a)."""
        return (
            isinstance(self.pacer, NonePacer)
            and len(self.queues) == 1
            and not self.classifier.rules
        )

    def ingress(self, packet: Packet, now: float) -> bool:
        """SDAP hands a downlink packet to the pipeline."""
        self.pkts_in += 1
        if self.transparent:
            packet.enqueued_tc = now
            packet.dequeued_tc = now
            self.pkts_out += 1
            return self._downstream(packet, now)
        queue_id = self.classifier.classify(packet)
        queue = self.queues.get(queue_id, self.queues[self.DEFAULT_QUEUE])
        accepted = queue.push(packet, now)
        if accepted:
            self.drain(now)
        return accepted

    def drain(self, now: float) -> int:
        """Release packets within the pacer budget; returns bytes sent."""
        if self.transparent:
            return 0
        budget = self.pacer.budget_bytes(
            now, self._rlc_backlog(), self._rate_estimate_bps()
        )
        released = 0
        while True:
            queue = self.scheduler.pick(self.queues)
            if queue is None:
                break
            head_size = queue.peek_size()
            if head_size is None or released + head_size > budget:
                break
            packet = queue.pop(now)
            assert packet is not None
            released += packet.size
            self.pkts_out += 1
            self._downstream(packet, now)
        return released

    @property
    def backlog_bytes(self) -> int:
        return sum(queue.backlog_bytes for queue in self.queues.values())
