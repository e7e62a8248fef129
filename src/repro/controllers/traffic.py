"""Flow-based traffic controller (§6.1.1, Table 3).

Composition per Table 3: iApps forwarding RLC and TC statistics to a
message broker (the Redis stand-in), a TC SM manager relaying control
commands (the REST POST stand-in is exposed through
:meth:`TrafficControllerIApp.expose_rest`), and the xApp that fights
bufferbloat.

The :class:`BufferbloatXapp` implements the three-action logic of the
paper verbatim: "Once the xApp notices that the sojourn time of the
packets belonging to the low-latency flow increase beyond a limit ...
as its first action, it generates a second FIFO queue.  Next, it
creates a 5-tuple filter to segregate the low-latency flow packets from
the rest.  Following, it loads a 5G-BDP pacer ... Lastly, the scheduler
is a simple Round Robin."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.codec.base import CodecError
from repro.core.e2ap.ies import RicActionDefinition, RicActionKind
from repro.core.e2ap.messages import RicControlAcknowledge
from repro.core.server.iapp import IApp
from repro.core.server.randb import AgentRecord
from repro.core.server.submgr import SubscriptionCallbacks
from repro.northbound.broker import Broker
from repro.northbound.rest import RestError, RestServer
from repro.sm import rlc_stats, traffic_ctrl
from repro.sm.base import PeriodicTrigger, decode_payload, encode_payload
from repro.sm.traffic_ctrl import FiveTupleMatch
from repro.traffic.flows import FiveTuple


class TrafficControllerIApp(IApp):
    """RLC/TC stats forwarder (broker) + TC SM manager (command relay)."""

    name = "traffic-controller"

    def __init__(
        self,
        broker: Broker,
        sm_codec: str = "fb",
        stats_period_ms: float = 10.0,
    ) -> None:
        super().__init__()
        self.broker = broker
        self.sm_codec = sm_codec
        self.stats_period_ms = stats_period_ms
        self.control_outcomes: List[bool] = []

    def on_agent_connected(self, agent: AgentRecord) -> None:
        for info, channel in ((rlc_stats.INFO, "rlc"), (traffic_ctrl.INFO, "tc")):
            item = agent.function_by_oid(info.oid)
            if item is None:
                continue
            self.server.subscribe(
                conn_id=agent.conn_id,
                ran_function_id=item.ran_function_id,
                event_trigger=PeriodicTrigger(self.stats_period_ms).to_bytes(self.sm_codec),
                actions=[RicActionDefinition(action_id=1, kind=RicActionKind.REPORT)],
                callbacks=SubscriptionCallbacks(
                    on_indication=lambda event, conn=agent.conn_id, chan=channel, info=info: (
                        self._forward(conn, chan, info.payload_schema, event)
                    )
                ),
            )

    def _forward(self, conn_id: int, channel: str, schema: str, event) -> None:
        """Decode and publish one stats payload on the broker."""
        payload = decode_payload(event.payload, self.sm_codec, schema)
        self.broker.publish(f"ran/{conn_id}/{channel}", payload)

    # -- TC SM command relay -------------------------------------------------

    def _tc_function_id(self, conn_id: int) -> int:
        agent = self.server.randb.agent(conn_id)
        if agent is None:
            raise KeyError(f"unknown agent connection {conn_id}")
        item = agent.function_by_oid(traffic_ctrl.INFO.oid)
        if item is None:
            raise KeyError(f"agent {conn_id} has no TC SM")
        return item.ran_function_id

    def tc_control(self, conn_id: int, rnti: int, bearer_id: int, payload: bytes) -> None:
        """Relay one TC SM control to the targeted bearer pipeline."""
        header = traffic_ctrl.build_target(rnti, bearer_id, self.sm_codec)
        self.server.control(
            conn_id=conn_id,
            ran_function_id=self._tc_function_id(conn_id),
            header=header,
            payload=payload,
            on_outcome=lambda outcome: self.control_outcomes.append(
                isinstance(outcome, RicControlAcknowledge)
            ),
        )

    # -- REST northbound for control submission (Table 3: REST POST) ----------

    def expose_rest(self, rest: RestServer) -> None:
        rest.route("POST", "/tc", self._rest_tc)

    def _rest_tc(self, subpath: str, body: Any) -> Any:
        if not subpath or not isinstance(body, dict):
            raise RestError(400, "usage: POST /tc/<conn_id> with a JSON command")
        conn_id = int(subpath)
        rnti = int(body.get("rnti", 0))
        bearer_id = int(body.get("bearer_id", 0))
        try:
            payload = encode_payload(body["command"], self.sm_codec, "tc_command")
        except CodecError as exc:
            raise RestError(400, f"not a TC command: {exc}") from exc
        try:
            self.tc_control(conn_id, rnti, bearer_id, payload)
        except KeyError as exc:
            raise RestError(404, str(exc)) from exc
        return {"ok": True}


@dataclass
class XappActions:
    """Record of what the xApp did, for assertions and reporting."""

    triggered_at_ms: Optional[float] = None
    queue_added: bool = False
    filter_installed: bool = False
    pacer_loaded: bool = False
    scheduler_set: bool = False


class BufferbloatXapp:
    """The Fig. 11 xApp: detect rising sojourn, segregate and pace.

    Subscribes to the broker's RLC channel; when the monitored bearer's
    sojourn exceeds ``threshold_ms`` it executes the paper's three
    actions (plus installing the round-robin scheduler) through the
    controller's TC command relay.
    """

    VOIP_QUEUE = 2

    def __init__(
        self,
        iapp: TrafficControllerIApp,
        low_latency_flow: FiveTuple,
        threshold_ms: float = 20.0,
        pacer_target_ms: float = 8.0,
    ) -> None:
        self.iapp = iapp
        self.low_latency_flow = low_latency_flow
        self.threshold_ms = threshold_ms
        self.pacer_target_ms = pacer_target_ms
        self.actions = XappActions()
        self._sub = iapp.broker.subscribe("ran/*/rlc", self._on_rlc_stats)

    def _on_rlc_stats(self, channel: str, payload: Dict) -> None:
        if self.actions.triggered_at_ms is not None:
            return
        conn_id = int(channel.split("/")[1])
        for bearer in payload.get("bearers", ()):
            if bearer["sojourn_ms"] < self.threshold_ms:
                continue
            self._act(conn_id, bearer["rnti"], bearer["bearer_id"], payload["tstamp_ms"])
            return

    def _act(self, conn_id: int, rnti: int, bearer_id: int, now_ms: float) -> None:
        codec = self.iapp.sm_codec
        send = lambda payload: self.iapp.tc_control(conn_id, rnti, bearer_id, payload)
        # Action 1: a second FIFO queue.
        send(traffic_ctrl.build_add_queue(self.VOIP_QUEUE, codec))
        self.actions.queue_added = True
        # Action 2: a 5-tuple filter segregating the low-latency flow.
        flow = self.low_latency_flow
        match = FiveTupleMatch(
            src_addr=flow.src_addr,
            dst_addr=flow.dst_addr,
            src_port=flow.src_port,
            dst_port=flow.dst_port,
            protocol=flow.protocol,
        )
        send(traffic_ctrl.build_add_filter(match, self.VOIP_QUEUE, prio=1, codec_name=codec))
        self.actions.filter_installed = True
        # Action 3: the 5G-BDP pacer.
        send(
            traffic_ctrl.build_set_pacer(
                "bdp", {"target_ms": self.pacer_target_ms}, codec
            )
        )
        self.actions.pacer_loaded = True
        # Finally: round-robin over the active queues.
        send(traffic_ctrl.build_set_sched("rr", codec))
        self.actions.scheduler_set = True
        self.actions.triggered_at_ms = now_ms

    @property
    def triggered(self) -> bool:
        return self.actions.triggered_at_ms is not None
