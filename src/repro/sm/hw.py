"""HelloWorld service model (E2SM-HW) — the ping SM of §5.2.

The paper modifies O-RAN's "Hello World" SM "to perform a ping by
sending a control message to the RAN function, to which the agent
responds with an indication message".  The round trip
(control encode -> E2AP encode -> wire -> decode -> SM decode ->
indication encode -> ...) exercises the full double-encoding path,
which is what Fig. 7a/7b and Fig. 9a measure.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.agent.ran_function import (
    ControlOutcome,
    RanFunction,
    SubscriptionHandle,
)
from repro.core.codec.schema import Bytes, Int, Schema, register_payload_schema
from repro.core.e2ap.ies import (
    RicActionAdmitted,
    RicActionDefinition,
    RicActionKind,
    RicActionNotAdmitted,
)
from repro.core.e2ap.procedures import Cause
from repro.sm.base import SmInfo, decode_payload, encode_payload

INFO = SmInfo(
    name="HW", oid="1.3.6.1.4.1.53148.1.1.2.100", default_function_id=100, payload_schema="hw_ping"
)


register_payload_schema(Schema("hw_ping", [("seq", Int()), ("data", Bytes())]))


def build_ping(seq: int, payload: bytes, codec_name: str) -> bytes:
    """Controller side: SM-encode a ping control payload."""
    return encode_payload({"seq": seq, "data": payload}, codec_name, schema="hw_ping")


def parse_ping(data: bytes, codec_name: str) -> Tuple[int, bytes]:
    tree = decode_payload(data, codec_name, schema="hw_ping")
    return tree["seq"], tree["data"]


def build_pong(seq: int, payload: bytes, codec_name: str) -> bytes:
    return encode_payload({"seq": seq, "data": payload}, codec_name, schema="hw_ping")


def parse_pong(data: bytes, codec_name: str) -> Tuple[int, bytes]:
    tree = decode_payload(data, codec_name, schema="hw_ping")
    return tree["seq"], tree["data"]


class HwRanFunction(RanFunction):
    """Agent-side HW function: echoes control pings as indications.

    A controller first subscribes (REPORT action) so the function has a
    destination for the echo, then sends ping controls.
    """

    def __init__(self, sm_codec: str = "fb", ran_function_id: int = INFO.default_function_id) -> None:
        super().__init__(
            ran_function_id=ran_function_id, name=INFO.name, oid=INFO.oid, revision=INFO.version
        )
        self.sm_codec = sm_codec
        self.pings_served = 0

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
        return (
            [RicActionAdmitted(a.action_id) for a in report_actions],
            [
                RicActionNotAdmitted(a.action_id, 0, Cause.ACTION_NOT_SUPPORTED)
                for a in actions
                if a.kind != RicActionKind.REPORT
            ],
        )

    def on_control(self, origin: int, header: bytes, payload: bytes) -> ControlOutcome:
        """Echo the ping to every subscriber of this controller."""
        seq, data = parse_ping(payload, self.sm_codec)
        pong = build_pong(seq, bytes(data), self.sm_codec)
        echoed = False
        for handle in list(self.subscriptions.values()):
            if handle.origin != origin:
                continue
            self.emit(handle, action_id=1, header=b"", payload=pong)
            echoed = True
        if not echoed:
            return ControlOutcome.fail(
                Cause.ric_request(Cause.REQUEST_ID_UNKNOWN, "no subscription to echo to")
            )
        self.pings_served += 1
        return ControlOutcome.ok()
