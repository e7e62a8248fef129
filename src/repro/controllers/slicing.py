"""RAT-unaware slicing controller (§6.1.2, Table 4).

Composition per Table 4: an internal DB for RAN statistics (cf. the
FlexRAN RIB), an SC SM manager relaying commands, and a REST (GET/POST)
northbound driven by a command-line xApp (curl).  The controller
discovers the UE-to-service association through the RRC conf SM (PLMN /
S-NSSAI carried in attach events) and stays oblivious of the RAT — the
same instance drives 4G and 5G nodes (used over LTE in Fig. 15).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.e2ap.ies import RicActionDefinition, RicActionKind
from repro.core.e2ap.messages import RicControlAcknowledge
from repro.core.server.iapp import IApp
from repro.core.server.randb import AgentRecord
from repro.core.server.submgr import SubscriptionCallbacks
from repro.northbound.rest import RestError, RestServer
from repro.sm import mac_stats, rrc_conf, slice_ctrl
from repro.sm.base import PeriodicTrigger, decode_payload
from repro.sm.slice_ctrl import SliceConfig


@dataclass
class UeInfo:
    """Discovered UE association state."""

    rnti: int
    plmn: str
    snssai: int
    slice_id: Optional[int] = None


class SlicingControllerIApp(IApp):
    """SC SM manager + RAN statistics DB + REST relay."""

    name = "slicing-controller"

    def __init__(self, sm_codec: str = "fb", stats_period_ms: float = 100.0) -> None:
        super().__init__()
        self.sm_codec = sm_codec
        self.stats_period_ms = stats_period_ms
        #: conn_id -> latest MAC stats payload, as received: decoded
        #: only when asked (:meth:`latest_mac_stats`).
        self.mac_db: Dict[int, bytes] = {}
        #: (conn_id, rnti) -> UeInfo discovered through RRC events.
        self.ues: Dict[Tuple[int, int], UeInfo] = {}
        #: per conn: configured slices.
        self.slices: Dict[int, Dict[int, SliceConfig]] = {}
        self.control_outcomes: List[bool] = []
        #: optional hook fired on each UE attach (conn_id, UeInfo).
        self.on_ue_attach: Optional[Callable[[int, UeInfo], None]] = None

    # -- lifecycle -------------------------------------------------------

    def on_attached(self) -> None:
        self.server.memory.track("slicing-db", lambda: self.mac_db)

    def on_agent_connected(self, agent: AgentRecord) -> None:
        mac_item = agent.function_by_oid(mac_stats.INFO.oid)
        if mac_item is not None:
            self.server.subscribe(
                conn_id=agent.conn_id,
                ran_function_id=mac_item.ran_function_id,
                event_trigger=PeriodicTrigger(self.stats_period_ms).to_bytes(self.sm_codec),
                actions=[RicActionDefinition(action_id=1, kind=RicActionKind.REPORT)],
                callbacks=SubscriptionCallbacks(
                    on_indication=lambda event, conn=agent.conn_id: self._on_mac_stats(
                        conn, event
                    )
                ),
            )
        rrc_item = agent.function_by_oid(rrc_conf.INFO.oid)
        if rrc_item is not None:
            self.server.subscribe(
                conn_id=agent.conn_id,
                ran_function_id=rrc_item.ran_function_id,
                event_trigger=PeriodicTrigger(0.0).to_bytes(self.sm_codec),
                actions=[RicActionDefinition(action_id=1, kind=RicActionKind.REPORT)],
                callbacks=SubscriptionCallbacks(
                    on_indication=lambda event, conn=agent.conn_id: self._on_rrc_event(
                        conn, event
                    )
                ),
            )

    def _on_mac_stats(self, conn_id: int, event) -> None:
        self.mac_db[conn_id] = event.payload

    def latest_mac_stats(self, conn_id: int) -> Optional[Any]:
        """The latest MAC report of ``conn_id``, decoded, or None."""
        payload = self.mac_db.get(conn_id)
        if payload is None:
            return None
        return decode_payload(payload, self.sm_codec, mac_stats.INFO.payload_schema)

    def _on_rrc_event(self, conn_id: int, event) -> None:
        ue_event = rrc_conf.parse_event(event.payload, self.sm_codec)
        key = (conn_id, ue_event.rnti)
        if ue_event.event == rrc_conf.EVENT_ATTACH:
            info = UeInfo(rnti=ue_event.rnti, plmn=ue_event.plmn, snssai=ue_event.snssai)
            self.ues[key] = info
            if self.on_ue_attach is not None:
                self.on_ue_attach(conn_id, info)
        else:
            self.ues.pop(key, None)

    # -- SC SM command relay -----------------------------------------------

    def _sc_function_id(self, conn_id: int) -> int:
        agent = self.server.randb.agent(conn_id)
        if agent is None:
            raise KeyError(f"unknown agent connection {conn_id}")
        item = agent.function_by_oid(slice_ctrl.INFO.oid)
        if item is None:
            raise KeyError(f"agent {conn_id} has no SC SM")
        return item.ran_function_id

    def _send_control(self, conn_id: int, payload: bytes) -> None:
        self.server.control(
            conn_id=conn_id,
            ran_function_id=self._sc_function_id(conn_id),
            header=b"",
            payload=payload,
            on_outcome=lambda outcome: self.control_outcomes.append(
                isinstance(outcome, RicControlAcknowledge)
            ),
        )

    def set_algorithm(self, conn_id: int, algo: str) -> None:
        self._send_control(conn_id, slice_ctrl.build_set_algo(algo, self.sm_codec))

    def add_slice(self, conn_id: int, config: SliceConfig) -> None:
        self._send_control(conn_id, slice_ctrl.build_add_slice(config, self.sm_codec))
        self.slices.setdefault(conn_id, {})[config.slice_id] = config

    def delete_slice(self, conn_id: int, slice_id: int) -> None:
        self._send_control(conn_id, slice_ctrl.build_del_slice(slice_id, self.sm_codec))
        self.slices.get(conn_id, {}).pop(slice_id, None)

    def associate_ue(self, conn_id: int, rnti: int, slice_id: int) -> None:
        self._send_control(conn_id, slice_ctrl.build_assoc_ue(rnti, slice_id, self.sm_codec))
        info = self.ues.get((conn_id, rnti))
        if info is not None:
            info.slice_id = slice_id

    @property
    def last_control_ok(self) -> Optional[bool]:
        return self.control_outcomes[-1] if self.control_outcomes else None

    # -- REST northbound -----------------------------------------------------

    def expose_rest(self, rest: RestServer) -> None:
        """Install the Table-4 GET/POST routes on ``rest``."""
        rest.route("GET", "/nodes", self._rest_nodes)
        rest.route("GET", "/stats", self._rest_stats)
        rest.route("GET", "/ues", self._rest_ues)
        rest.route("POST", "/slice", self._rest_slice)

    def _rest_nodes(self, subpath: str, body: Any) -> Any:
        return [
            {
                "conn_id": agent.conn_id,
                "plmn": agent.node_id.plmn,
                "nb_id": agent.node_id.nb_id,
                "kind": agent.node_id.kind.name,
                "functions": sorted(agent.functions),
            }
            for agent in self.server.agents()
        ]

    def _rest_stats(self, subpath: str, body: Any) -> Any:
        if not subpath:
            raise RestError(400, "usage: GET /stats/<conn_id>")
        conn_id = int(subpath)
        stats = self.latest_mac_stats(conn_id)
        if stats is None:
            raise RestError(404, f"no stats for connection {conn_id}")
        return stats

    def _rest_ues(self, subpath: str, body: Any) -> Any:
        return [
            {
                "conn_id": conn_id,
                "rnti": info.rnti,
                "plmn": info.plmn,
                "snssai": info.snssai,
                "slice_id": info.slice_id,
            }
            for (conn_id, _rnti), info in sorted(self.ues.items())
        ]

    def _rest_slice(self, subpath: str, body: Any) -> Any:
        if not subpath:
            raise RestError(400, "usage: POST /slice/<conn_id>")
        conn_id = int(subpath)
        if not isinstance(body, dict):
            raise RestError(400, "JSON body required")
        try:
            if "algo" in body:
                self.set_algorithm(conn_id, body["algo"])
            if "slice" in body:
                self.add_slice(conn_id, SliceConfig.from_value(body["slice"]))
            if "delete" in body:
                self.delete_slice(conn_id, int(body["delete"]))
            if "assoc" in body:
                self.associate_ue(conn_id, int(body["assoc"]["rnti"]), int(body["assoc"]["slice_id"]))
        except KeyError as exc:
            raise RestError(404, str(exc)) from exc
        return {"ok": True}
