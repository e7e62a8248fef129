"""FlexRAN controller baseline: RIB storage and polling applications.

The two properties the paper measures against (§2, §5.3):

* every incoming report is **fully decoded** (Protobuf) and the
  materialized tree is stored in the RIB with per-UE indices and a
  deep history — the memory-hungry organization behind Fig. 8a's
  375 MB vs 124 MB,
* applications **poll** the RIB on a fixed 1 ms cadence instead of
  being notified, "adding overhead by requiring applications to poll
  for new messages" — each poll costs work even when nothing changed,
  and data is at worst one period stale (the 1 ms application RTT
  floor noted in §5.2).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.baselines.flexran import protocol
from repro.core.codec.base import materialize
from repro.core.transport.base import (
    DisconnectReason, Endpoint, Listener, Transport, TransportEvents,
)
from repro.metrics.cpu import CpuMeter
from repro.metrics.memory import MemoryMeter


class Rib:
    """RAN information base: deep-materialized stats with history."""

    HISTORY = 100

    def __init__(self) -> None:
        #: agent_id -> newest full report.
        self.latest: Dict[int, Any] = {}
        #: agent_id -> bounded history of full reports.
        self.history: Dict[int, Deque[Any]] = {}
        #: (agent_id, rnti) -> newest per-UE MAC entry (poll index).
        self.ue_index: Dict[Tuple[int, int], Any] = {}
        self.reports_stored = 0
        self._new_since_poll = 0

    def store(self, agent_id: int, body: Any) -> None:
        tree = materialize(body)
        self.latest[agent_id] = tree
        bucket = self.history.get(agent_id)
        if bucket is None:
            bucket = deque(maxlen=self.HISTORY)
            self.history[agent_id] = bucket
        bucket.append(tree)
        for entry in tree.get("mac", {}).get("ues", ()):
            self.ue_index[(agent_id, entry["rnti"])] = dict(entry)
        self.reports_stored += 1
        self._new_since_poll += 1

    def poll(self) -> int:
        """Application poll: scan for new data; returns new-report count.

        The scan itself costs work proportional to the RIB size even
        when nothing is new — the polling overhead FlexRAN bears.
        """
        for agent_id in self.latest:
            # Touch each agent's history bucket: the cost of discovering
            # whether anything changed without a notification path.
            len(self.history.get(agent_id, ()))
        fresh = self._new_since_poll
        self._new_since_poll = 0
        return fresh


class FlexRanController:
    """Baseline controller: accept agents, decode, store, serve polls."""

    def __init__(self, cpu_meter: Optional[CpuMeter] = None) -> None:
        self.cpu = cpu_meter or CpuMeter("flexran-controller")
        self.memory = MemoryMeter("flexran-controller")
        self.rib = Rib()
        self.memory.track("rib", lambda: self.rib)
        self._agents: Dict[int, Endpoint] = {}
        self._listener: Optional[Listener] = None
        self._echo_times: Dict[int, float] = {}
        self.echo_replies: List[Tuple[int, bytes]] = []
        #: applications registered for the poll loop.
        self._poll_apps: List[Callable[[int], None]] = []
        self.polls_run = 0
        self.messages_received = 0

    def listen(self, transport: Transport, address: str) -> Listener:
        self._listener = transport.listen(
            address,
            TransportEvents(
                on_message=self._on_message,
                on_disconnected=self._on_disconnect,
            ),
        )
        return self._listener

    def add_poll_app(self, app: Callable[[int], None]) -> None:
        """Register an application run on every poll iteration with the
        number of new reports (0 on idle polls)."""
        self._poll_apps.append(app)

    def poll_once(self) -> int:
        """One 1 ms poll iteration (driven by the experiment loop)."""
        with self.cpu.measure():
            self.polls_run += 1
            fresh = self.rib.poll()
            for app in self._poll_apps:
                app(fresh)
        return fresh

    def configure_stats(self, agent_id: int, period_ms: float) -> None:
        self._agents[agent_id].send(protocol.stats_config(period_ms))

    def echo(self, agent_id: int, seq: int, payload: bytes) -> None:
        """Send one echo request (RTT probe)."""
        with self.cpu.measure():
            request = protocol.echo_request(seq, payload)
        self._agents[agent_id].send(request)

    # -- transport events ---------------------------------------------------

    def _on_message(self, endpoint: Endpoint, data: bytes) -> None:
        with self.cpu.measure():
            msg_type, body = protocol.decode_flexran(data)  # full decode
            self.messages_received += 1
            if msg_type == protocol.MSG_HELLO:
                self._agents[body["agent_id"]] = endpoint
            elif msg_type == protocol.MSG_STATS_REPORT:
                self.rib.store(body["agent_id"], body)
            elif msg_type == protocol.MSG_ECHO_REPLY:
                self.echo_replies.append((body["seq"], bytes(body["data"])))

    def _on_disconnect(self, endpoint: Endpoint, reason: DisconnectReason) -> None:
        gone = [aid for aid, ep in self._agents.items() if ep is endpoint]
        for agent_id in gone:
            del self._agents[agent_id]

    @property
    def agent_ids(self) -> List[int]:
        return sorted(self._agents)
