"""O-RAN xApps: RMR-attached external applications.

Each xApp owns an RMR endpoint and — by architecture — must fully
decode every E2AP message it receives, even though the E2 termination
already decoded it once (the double decode of §5.4).  Agent discovery
goes through polling the RNIB in the shared data layer, "bearing
overhead" (§2).
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Dict, List, Optional

from repro.baselines.oran import rmr
from repro.baselines.oran.rmr import RmrEndpoint, RmrMessage, RmrRouter
from repro.core.codec.base import get_codec
from repro.core.e2ap.ies import RicActionDefinition, RicActionKind, RicRequestId
from repro.core.e2ap.messages import (
    E2Message,
    RicControlRequest,
    RicIndication,
    RicSubscriptionRequest,
    RicSubscriptionResponse,
    decode_message,
    encode_message,
)
from repro.metrics.cpu import CpuMeter
from repro.sm import mac_stats
from repro.sm.base import PeriodicTrigger, decode_payload


class OranXapp:
    """Base xApp: RMR plumbing, RNIB polling, E2AP encode/decode."""

    def __init__(
        self,
        name: str,
        xapp_id: int,
        router: RmrRouter,
        dbaas_store: Dict,
        e2ap_codec: str = "asn",
        sm_codec: str = "asn",
    ) -> None:
        self.name = name
        self.xapp_id = xapp_id
        self.router = router
        self.dbaas_store = dbaas_store
        self.codec = get_codec(e2ap_codec)
        self.sm_codec = sm_codec
        self.cpu = CpuMeter(f"xapp-{name}")
        self.endpoint = RmrEndpoint(f"xapp-{name}", self._on_rmr, cpu=self.cpu)
        router.register(self.endpoint)
        self._instances = itertools.count(1)
        self.indications_received = 0
        self.rnib_polls = 0
        #: set when any subscription response arrives (socket meshes
        #: deliver asynchronously, so callers wait on this).
        self.subscription_confirmed = threading.Event()

    # -- RNIB discovery (polling, §2) ---------------------------------------

    def poll_rnib(self) -> List[str]:
        """Scan the shared data layer for connected E2 nodes."""
        self.rnib_polls += 1
        with self.cpu.measure():
            meids = [
                key.split("/", 1)[1]
                for key in self.dbaas_store
                if key.startswith("rnib/")
            ]
        return sorted(meids)

    def function_id_for(self, meid: str, oid: str) -> Optional[int]:
        entry = self.dbaas_store.get(f"rnib/{meid}")
        if entry is None:
            return None
        for function_id, function_oid in entry["functions"].items():
            if function_oid == oid:
                return function_id
        return None

    # -- E2AP towards the RAN (via RMR + E2T) ---------------------------------

    def subscribe(
        self, meid: str, ran_function_id: int, period_ms: float
    ) -> RicRequestId:
        request = RicRequestId(self.xapp_id, next(self._instances))
        message = RicSubscriptionRequest(
            request=request,
            ran_function_id=ran_function_id,
            event_trigger=PeriodicTrigger(period_ms).to_bytes(self.sm_codec),
            actions=[RicActionDefinition(action_id=1, kind=RicActionKind.REPORT)],
        )
        self._send(rmr.RIC_SUB_REQ, meid, message)
        return request

    def control(self, meid: str, ran_function_id: int, header: bytes, payload: bytes) -> RicRequestId:
        request = RicRequestId(self.xapp_id, next(self._instances))
        message = RicControlRequest(
            request=request,
            ran_function_id=ran_function_id,
            header=header,
            payload=payload,
            ack_requested=False,
        )
        self._send(rmr.RIC_CONTROL_REQ, meid, message)
        return request

    def _send(self, msg_type: int, meid: str, message: E2Message) -> None:
        with self.cpu.measure():
            data = encode_message(message, self.codec)
        self.router.send(self.cpu, RmrMessage(msg_type=msg_type, meid=meid, payload=data))

    # -- RMR receive ------------------------------------------------------------

    def _on_rmr(self, message: RmrMessage) -> None:
        with self.cpu.measure():
            decoded = decode_message(message.payload, self.codec)  # decode #2
        if isinstance(decoded, RicIndication):
            self.indications_received += 1
            self.on_indication(message.meid, decoded)
        elif isinstance(decoded, RicSubscriptionResponse):
            self.subscription_confirmed.set()
            self.on_subscription_response(message.meid, decoded)

    # -- hooks ---------------------------------------------------------------

    def on_indication(self, meid: str, indication: RicIndication) -> None:
        """Override: handle one (already fully decoded) indication."""

    def on_subscription_response(self, meid: str, response: RicSubscriptionResponse) -> None:
        """Override: subscription outcome arrived."""


class HwXapp(OranXapp):
    """Ping xApp for the Fig. 9a RTT comparison."""

    def __init__(self, router: RmrRouter, dbaas_store: Dict, **kwargs) -> None:
        super().__init__("hw", 10, router, dbaas_store, **kwargs)
        self._sent_at: Dict[int, float] = {}
        self.rtts_us: List[float] = []
        self._seq = itertools.count(1)

    def ping(self, meid: str, ran_function_id: int, payload: bytes) -> int:
        from repro.sm.hw import build_ping

        seq = next(self._seq)
        self._sent_at[seq] = time.perf_counter()
        self.control(meid, ran_function_id, b"", build_ping(seq, payload, self.sm_codec))
        return seq

    def on_indication(self, meid: str, indication: RicIndication) -> None:
        from repro.sm.hw import parse_pong

        with self.cpu.measure():
            seq, _data = parse_pong(indication.payload, self.sm_codec)
        started = self._sent_at.pop(seq, None)
        if started is not None:
            self.rtts_us.append((time.perf_counter() - started) * 1e6)


class StatsXapp(OranXapp):
    """Monitoring xApp for the Fig. 9b workload.

    Stores each fully-decoded report and additionally writes it to the
    shared data layer (dbaas) — the extra copy the micro-service split
    imposes so other components can read it.
    """

    def __init__(self, router: RmrRouter, dbaas_store: Dict, **kwargs) -> None:
        super().__init__("stats", 11, router, dbaas_store, **kwargs)
        self.reports: Dict[str, Any] = {}
        self.reports_stored = 0

    def on_indication(self, meid: str, indication: RicIndication) -> None:
        with self.cpu.measure():
            # The full decode of every report that the paper charges the
            # O-RAN xApp (§5.4), under the MAC report's schema.
            tree = decode_payload(
                indication.payload, self.sm_codec, mac_stats.INFO.payload_schema
            )
            self.reports[meid] = tree
            # Copy into the shared data layer (serialized once more).
            self.dbaas_store[f"stats/{meid}/{indication.sequence}"] = tree
        self.reports_stored += 1
