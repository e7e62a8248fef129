"""RRC configuration/event service model.

Event-driven (not periodic): emits a report whenever a UE attaches or
detaches, carrying the selected PLMN and slice identifier (S-NSSAI).
The slicing controller of §6.1.2 "discovers the UE-to-service
association through the selected PLMN identification or slice
information provided in the attach procedure" via this SM; the
infrastructure controller of Fig. 4 uses it to configure the
UE-to-controller association at the DU agent.

Payload schemas: ``rrc_ue_event`` — ``{"event": "attach"|"detach",
"rnti", "plmn", "snssai", "tstamp_ms"}`` — and ``rrc_handover``, the one
control command: ``{"cmd": "handover", "rnti", "target_nb"}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.agent.ran_function import ControlOutcome, RanFunction, SubscriptionHandle
from repro.core.codec.schema import Int, Schema, register_payload_schema, wire
from repro.core.e2ap.ies import (
    RicActionAdmitted,
    RicActionDefinition,
    RicActionKind,
    RicActionNotAdmitted,
)
from repro.core.e2ap.procedures import Cause
from repro.sm.base import SmInfo, command_case, decode_payload, encode_payload

INFO = SmInfo(
    name="RRC_CONF",
    oid="1.3.6.1.4.1.53148.1.1.2.145",
    default_function_id=145,
    payload_schema="rrc_ue_event",
)

EVENT_ATTACH = "attach"
EVENT_DETACH = "detach"


@wire()
@dataclass(frozen=True)
class RrcUeEvent:
    """One UE attach/detach notification."""

    event: str
    rnti: int
    plmn: str
    snssai: int
    tstamp_ms: float = 0.0


register_payload_schema(Schema("rrc_ue_event", RrcUeEvent.wire_schema.fields))
register_payload_schema(
    Schema(
        "rrc_handover", [], cases=[command_case("handover", ("rnti", Int()), ("target_nb", Int()))]
    )
)


def build_handover(rnti: int, target_nb: int, codec_name: str) -> bytes:
    """Controller side: command a handover of ``rnti`` to ``target_nb``.

    The paper lists handovers among what xApps control through FlexRIC
    (§1); Fig. 14b has the virtualization layer translating exactly
    this command for disaggregated deployments.
    """
    return encode_payload(
        {"cmd": "handover", "rnti": rnti, "target_nb": target_nb}, codec_name, "rrc_handover"
    )


class RrcConfFunction(RanFunction):
    """Agent-side RRC event function.

    The base station calls :meth:`notify_attach` / :meth:`notify_detach`
    from its RRC procedures; every subscriber receives the event.
    When a ``mobility`` handler is wired (a callable taking
    ``(rnti, target_nb)``), the function also accepts handover controls.
    """

    def __init__(self, sm_codec: str = "fb", ran_function_id: int = INFO.default_function_id) -> None:
        super().__init__(
            ran_function_id=ran_function_id, name=INFO.name, oid=INFO.oid, revision=INFO.version
        )
        self.sm_codec = sm_codec
        self.events_emitted = 0
        #: wired by the node when it supports mobility.
        self.mobility = None

    def on_control(self, origin: int, header: bytes, payload: bytes) -> ControlOutcome:
        from repro.ran.mobility import HandoverError

        command = decode_payload(payload, self.sm_codec, "rrc_handover")
        if self.mobility is None:
            return ControlOutcome.fail(
                Cause.ric_service(Cause.FUNCTION_RESOURCE_LIMIT, "mobility not available")
            )
        try:
            self.mobility(command["rnti"], command["target_nb"])
        except (HandoverError, KeyError, ValueError) as exc:
            return ControlOutcome.fail(
                Cause.ric_request(Cause.ADMISSION_REFUSED, str(exc))
            )
        return ControlOutcome.ok()

    def on_subscription(
        self,
        handle: SubscriptionHandle,
        event_trigger: bytes,
        actions: List[RicActionDefinition],
    ) -> Tuple[List[RicActionAdmitted], List[RicActionNotAdmitted]]:
        report_actions = [a for a in actions if a.kind == RicActionKind.REPORT]
        if not report_actions:
            return [], [
                RicActionNotAdmitted(a.action_id, 0, Cause.ACTION_NOT_SUPPORTED)
                for a in actions
            ]
        self.subscriptions[handle.key()] = handle
        return [RicActionAdmitted(a.action_id) for a in report_actions], [
            RicActionNotAdmitted(a.action_id, 0, Cause.ACTION_NOT_SUPPORTED)
            for a in actions
            if a.kind != RicActionKind.REPORT
        ]

    # -- base-station-facing ------------------------------------------

    def notify_attach(self, rnti: int, plmn: str, snssai: int, tstamp_ms: float = 0.0) -> None:
        self._broadcast(RrcUeEvent(EVENT_ATTACH, rnti, plmn, snssai, tstamp_ms))

    def notify_detach(self, rnti: int, plmn: str, snssai: int, tstamp_ms: float = 0.0) -> None:
        self._broadcast(RrcUeEvent(EVENT_DETACH, rnti, plmn, snssai, tstamp_ms))

    def _broadcast(self, event: RrcUeEvent) -> None:
        payload = encode_payload(event.to_value(), self.sm_codec, "rrc_ue_event")
        for handle in list(self.subscriptions.values()):
            self.emit(handle, action_id=1, header=b"", payload=payload)
            self.events_emitted += 1


def parse_event(payload: bytes, codec_name: str) -> RrcUeEvent:
    """Controller side: decode an RRC event indication payload."""
    return RrcUeEvent.from_value(decode_payload(payload, codec_name, "rrc_ue_event"))
