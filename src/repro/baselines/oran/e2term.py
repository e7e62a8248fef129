"""E2 termination component of the O-RAN RIC.

Terminates E2AP (ASN.1-encoded, as mandated) towards the agents and
bridges to the RMR mesh.  The decisive cost property (§5.4): "the
design of O-RAN RIC imposes that indication messages are decoded twice,
once in the 'E2 termination', and the xApp" — this component performs
the first full decode of every message before forwarding the raw E2AP
bytes over RMR, where the xApp decodes them again.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.baselines.oran import rmr
from repro.baselines.oran.rmr import RmrEndpoint, RmrMessage, RmrRouter
from repro.core.codec.base import get_codec
from repro.core.e2ap.messages import (
    E2SetupRequest,
    E2SetupResponse,
    decode_message,
    encode_message,
)
from repro.core.e2ap.procedures import MessageClass, ProcedureCode
from repro.core.transport.base import Endpoint, Listener, Transport, TransportEvents
from repro.metrics.cpu import CpuMeter


class E2Termination:
    """Agent-facing terminator: full decode, then RMR forward."""

    def __init__(self, router: RmrRouter, dbaas_store: Dict, e2ap_codec: str = "asn") -> None:
        self.codec = get_codec(e2ap_codec)
        self.router = router
        self.cpu = CpuMeter("e2term")
        self.dbaas_store = dbaas_store
        self._agents: Dict[str, Endpoint] = {}  # meid -> endpoint
        self._listener: Optional[Listener] = None
        self.messages_from_agents = 0
        self.endpoint = RmrEndpoint("e2term", self._from_rmr, cpu=self.cpu)
        router.register(self.endpoint)

    def listen(self, transport: Transport, address: str) -> Listener:
        self._listener = transport.listen(
            address, TransportEvents(on_message=self._from_agent)
        )
        return self._listener

    # -- agent -> RIC direction -------------------------------------------

    def _from_agent(self, endpoint: Endpoint, data: bytes) -> None:
        self.messages_from_agents += 1
        with self.cpu.measure():
            message = decode_message(data, self.codec)  # decode #1 (full)
        if isinstance(message, E2SetupRequest):
            meid = message.node_id.label
            self._agents[meid] = endpoint
            # Register the node in the RNIB (dbaas) for xApps to poll.
            self.dbaas_store[f"rnib/{meid}"] = {
                "plmn": message.node_id.plmn,
                "nb_id": message.node_id.nb_id,
                "functions": {
                    item.ran_function_id: item.oid for item in message.ran_functions
                },
            }
            with self.cpu.measure():
                response = encode_message(
                    E2SetupResponse(
                        ric_id=99,
                        accepted_functions=[
                            item.ran_function_id for item in message.ran_functions
                        ],
                    ),
                    self.codec,
                )
            endpoint.send(response)
            return
        meid = self._meid_of(endpoint)
        msg_type = self._rmr_type_of(message.procedure, message.msg_class)
        # Forward the *raw* E2AP bytes: the xApp must decode them again.
        self.router.send(self.cpu, RmrMessage(msg_type=msg_type, meid=meid, payload=data))

    def _meid_of(self, endpoint: Endpoint) -> str:
        for meid, known in self._agents.items():
            if known is endpoint:
                return meid
        return "?"

    @staticmethod
    def _rmr_type_of(procedure: ProcedureCode, msg_class: MessageClass) -> int:
        if procedure == ProcedureCode.RIC_INDICATION:
            return rmr.RIC_INDICATION
        if procedure == ProcedureCode.RIC_SUBSCRIPTION:
            return rmr.RIC_SUB_RESP
        if procedure == ProcedureCode.RIC_CONTROL:
            return rmr.RIC_CONTROL_ACK
        return rmr.RIC_HEALTH

    # -- RIC -> agent direction ---------------------------------------------

    def _from_rmr(self, message: RmrMessage) -> None:
        """xApp-originated E2AP bytes: validate and send to the agent."""
        endpoint = self._agents.get(message.meid)
        if endpoint is None or endpoint.closed:
            return
        with self.cpu.measure():
            decode_message(message.payload, self.codec)  # E2T validates (full decode)
        endpoint.send(message.payload)
