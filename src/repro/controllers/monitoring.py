"""Monitoring controller: subscribe-and-store statistics iApp.

The Fig. 8 workload: "a statistics iApp that saves incoming messages to
an in-memory data structure, similar to FlexRAN".  The store keeps the
*raw* SM payload bytes plus the cheap header scalars — decoding happens
only when a consumer asks (:meth:`StatsStore.latest_decoded`), which is
the event-driven/lazy design the paper contrasts with FlexRAN's
poll-and-decode loop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.core.e2ap.ies import RicActionDefinition, RicActionKind
from repro.core.server import events as topics
from repro.core.server.iapp import IApp
from repro.core.server.randb import AgentRecord
from repro.core.server.submgr import SubscriptionCallbacks
from repro.metrics.trace import TRACER as _TRACER
from repro.sm import REPORT_SCHEMAS
from repro.sm.base import PeriodicTrigger, decode_payload


@dataclass
class StoredIndication:
    """One stored indication: header scalars + raw payload bytes."""

    conn_id: int
    ran_function_id: int
    sequence: int
    payload: bytes


class StatsStore:
    """Bounded in-memory store of indications, keyed by (conn, oid)."""

    def __init__(self, history: int = 16) -> None:
        self.history = history
        self._data: Dict[Tuple[int, str], Deque[StoredIndication]] = {}
        self.total_stored = 0

    def put(self, conn_id: int, oid: str, item: StoredIndication) -> None:
        key = (conn_id, oid)
        bucket = self._data.get(key)
        if bucket is None:
            bucket = deque(maxlen=self.history)
            self._data[key] = bucket
        bucket.append(item)
        self.total_stored += 1

    def latest(self, conn_id: int, oid: str) -> Optional[StoredIndication]:
        bucket = self._data.get((conn_id, oid))
        return bucket[-1] if bucket else None

    def latest_decoded(self, conn_id: int, oid: str, sm_codec: str) -> Optional[Any]:
        """Decode the newest payload on demand (lazy consumption), under
        the payload schema of the SM ``oid`` names."""
        item = self.latest(conn_id, oid)
        if item is None:
            return None
        return decode_payload(item.payload, sm_codec, REPORT_SCHEMAS[oid])

    def series(self, conn_id: int, oid: str) -> List[StoredIndication]:
        return list(self._data.get((conn_id, oid), ()))

    def keys(self) -> List[Tuple[int, str]]:
        return sorted(self._data)

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._data.values())


class StatsMonitorIApp(IApp):
    """Subscribes to statistics SMs on every connecting agent.

    ``oids`` lists the service models of interest; a periodic report
    subscription is sent for each matching RAN function as soon as an
    agent announces it (the event-driven pattern of §4.2.2).
    """

    name = "stats-monitor"

    def __init__(
        self,
        oids: List[str],
        period_ms: float = 1.0,
        sm_codec: str = "fb",
        store: Optional[StatsStore] = None,
    ) -> None:
        super().__init__()
        self.oids = list(oids)
        self.period_ms = period_ms
        self.sm_codec = sm_codec
        self.store = store or StatsStore()
        self.indications_received = 0
        self.subscriptions_confirmed = 0
        self.subscription_failures = 0
        self.nodes_stale = 0
        self.nodes_recovered = 0
        self._oid_by_request: Dict[Tuple[int, int], Tuple[int, str]] = {}

    def on_attached(self) -> None:
        self.server.memory.track("stats-store", lambda: self.store)
        self.server.events.subscribe(topics.NODE_STALE, self._node_stale)
        self.server.events.subscribe(topics.NODE_RECOVERED, self._node_recovered)

    def on_agent_connected(self, agent: AgentRecord) -> None:
        for oid in self.oids:
            item = agent.function_by_oid(oid)
            if item is None:
                continue
            trigger = PeriodicTrigger(self.period_ms).to_bytes(self.sm_codec)
            actions = [RicActionDefinition(action_id=1, kind=RicActionKind.REPORT)]
            record = self.server.subscribe(
                conn_id=agent.conn_id,
                ran_function_id=item.ran_function_id,
                event_trigger=trigger,
                actions=actions,
                callbacks=SubscriptionCallbacks(
                    on_success=lambda response: self._confirmed(),
                    on_indication=self._store_indication,
                ),
            )
            key = record.request.as_tuple()
            self._oid_by_request[key] = (agent.conn_id, oid)
            # Terminal failure (grace window expired, or the node
            # rejected the request): release the routing entry.
            record.callbacks.on_failure = (
                lambda failure, key=key: self._sub_failed(key)
            )

    def _confirmed(self) -> None:
        self.subscriptions_confirmed += 1

    def _sub_failed(self, key: Tuple[int, int]) -> None:
        self.subscription_failures += 1
        self._oid_by_request.pop(key, None)

    def _node_stale(self, agent: AgentRecord) -> None:
        self.nodes_stale += 1

    def _node_recovered(self, agent: AgentRecord) -> None:
        """Resynced node: the subscriptions kept their request ids but
        moved to a fresh connection — re-key the store routing so new
        indications land under the revived connection id."""
        self.nodes_recovered += 1
        for key, (conn_id, oid) in list(self._oid_by_request.items()):
            record = self.server.submgr.lookup(*key)
            if record is not None and record.conn_id != conn_id:
                self._oid_by_request[key] = (record.conn_id, oid)

    def stage_breakdown(self) -> Dict[str, dict]:
        """Per-stage latency snapshots of the traced indication path.

        Empty unless :mod:`repro.metrics.trace` is enabled; the stages
        (encode/frame/send/recv/decode/dispatch) are the decomposition
        the Fig. 9b monitoring comparison reports per component.
        """
        return _TRACER.stage_breakdown()

    def overload_state(self) -> Dict[str, dict]:
        """The attached server's overload snapshot (DESIGN.md §13).

        Drop counters, queue depth/watermark gauges and admission
        state, in the same JSON shape the ``/metrics/overload`` REST
        route serves — so an operator xApp polling this iApp sees
        degradation (shed indications, refused setups) as it happens.
        """
        return self.server.overload_state()

    def _store_indication(self, event) -> None:
        self.indications_received += 1
        key = (event.requestor_id, event.instance_id)
        conn_oid = self._oid_by_request.get(key)
        if conn_oid is None:
            return
        conn_id, oid = conn_oid
        self.store.put(
            conn_id,
            oid,
            StoredIndication(
                conn_id=conn_id,
                ran_function_id=event.ran_function_id,
                sequence=event.sequence,
                payload=event.payload,
            ),
        )
