"""E2SM-NI: network interface service model (Appendix A.4).

The second SM standardized by O-RAN at the time of the paper
(ORAN-WG3.E2SM-NI-v01.00.00): it "allows interface manipulation,
supporting interfaces such as X2, S1, etc." with all four service
kinds:

* **report** — copy messages observed on an interface to the xApp,
* **insert** — copy the message *and suspend* the procedure until the
  controller answers (the RIC "processes procedures at the RAN's
  place"),
* **control** — inject a message into an interface,
* **policy** — a predefined verdict (forward/drop) the RAN function
  applies by itself on a trigger.

The RAN side is an :class:`InterfaceTap` the base station drives with
every interface message (this repo models S1/NG/X2/F1 signalling as
opaque typed payloads); the tap consults subscriptions and either
reports, suspends for insert, or applies a policy verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.agent.ran_function import (
    ControlOutcome,
    RanFunction,
    SubscriptionHandle,
)
from repro.core.codec.schema import (
    Bool,
    Int,
    Schema,
    Seq,
    Str,
    register_payload_schema,
    wire,
)
from repro.core.e2ap.ies import (
    RicActionAdmitted,
    RicActionDefinition,
    RicActionKind,
    RicActionNotAdmitted,
)
from repro.core.e2ap.messages import RicIndicationKind
from repro.core.e2ap.procedures import Cause
from repro.sm.base import (
    DECODE_ERRORS,
    SmInfo,
    count_contained_decode,
    decode_payload,
    encode_payload,
)

INFO = SmInfo(name="NI", oid="1.3.6.1.4.1.53148.1.1.2.3", default_function_id=3)

#: Interface types (E2SM-NI's NI-Type).
IF_S1 = "s1"
IF_X2 = "x2"
IF_NG = "ng"
IF_XN = "xn"
IF_F1 = "f1"
INTERFACES = (IF_S1, IF_X2, IF_NG, IF_XN, IF_F1)

#: Policy verdicts.
POLICY_FORWARD = "forward"
POLICY_DROP = "drop"


@wire("if proc pl dir")
@dataclass(frozen=True)
class InterfaceMessage:
    """One message observed on (or injected into) an interface."""

    interface: str
    procedure: str          # e.g. "handover_request", "paging"
    payload: bytes = b""
    direction: str = "in"   # "in" towards the node, "out" from it


# Payload trees of this SM.  ``ni_message`` is InterfaceMessage's own
# derived shape under its registry name; the rest have no dataclass.
register_payload_schema(Schema("ni_message", InterfaceMessage.wire_schema.fields))
register_payload_schema(Schema("ni_action", [("if", Str()), ("procs", Seq(Str()))]))
register_payload_schema(
    Schema("ni_policy", [("if", Str()), ("procs", Seq(Str())), ("verdict", Str())])
)
register_payload_schema(Schema("ni_insert_header", [("call_id", Int())]))
register_payload_schema(Schema("ni_resume", [("resume", Bool()), ("call_id", Int())]))


def build_action_definition(
    interface: str, procedures: Optional[List[str]], codec_name: str
) -> bytes:
    """Which interface/procedures an action applies to (empty = all)."""
    if interface not in INTERFACES:
        raise ValueError(f"unknown interface {interface!r}")
    return encode_payload(
        {"if": interface, "procs": list(procedures or ())},
        codec_name,
        schema="ni_action",
    )


def build_policy_definition(
    interface: str, procedures: Optional[List[str]], verdict: str, codec_name: str
) -> bytes:
    if verdict not in (POLICY_FORWARD, POLICY_DROP):
        raise ValueError(f"unknown verdict {verdict!r}")
    return encode_payload(
        {"if": interface, "procs": list(procedures or ()), "verdict": verdict},
        codec_name,
        schema="ni_policy",
    )


def build_control(message: InterfaceMessage, codec_name: str) -> bytes:
    """Controller side: inject ``message`` into the named interface."""
    return encode_payload(message.to_value(), codec_name, schema="ni_message")


@dataclass
class _NiAction:
    action_id: int
    kind: RicActionKind
    interface: str
    procedures: Tuple[str, ...]
    verdict: str = POLICY_FORWARD

    def matches(self, message: InterfaceMessage) -> bool:
        if self.interface != message.interface:
            return False
        return not self.procedures or message.procedure in self.procedures


@dataclass
class PendingInsert:
    """A suspended procedure awaiting the controller's resume."""

    call_id: int
    message: InterfaceMessage
    resume: Callable[[bool], None]   # True = proceed, False = abort


class NiFunction(RanFunction):
    """Agent-side E2SM-NI: tap, suspend, inject, and police interfaces."""

    def __init__(
        self,
        injector: Optional[Callable[[InterfaceMessage], None]] = None,
        sm_codec: str = "fb",
        ran_function_id: Optional[int] = None,
    ) -> None:
        super().__init__(
            ran_function_id=INFO.default_function_id if ran_function_id is None else ran_function_id,
            name=INFO.name,
            oid=INFO.oid,
            revision=INFO.version,
        )
        self.sm_codec = sm_codec
        #: applies controller-injected messages to the node's interfaces.
        self.injector = injector or (lambda message: None)
        self._actions: Dict[Tuple, List[_NiAction]] = {}
        self._pending: Dict[int, PendingInsert] = {}
        self._call_ids = itertools.count(1)
        self.reports_emitted = 0
        self.inserts_emitted = 0
        self.policies_applied = 0

    # -- subscription ---------------------------------------------------

    def on_subscription(
        self,
        handle: SubscriptionHandle,
        event_trigger: bytes,
        actions: List[RicActionDefinition],
    ):
        admitted: List[RicActionAdmitted] = []
        rejected: List[RicActionNotAdmitted] = []
        parsed: List[_NiAction] = []
        for action in actions:
            if action.kind == RicActionKind.CONTROL:
                rejected.append(
                    RicActionNotAdmitted(action.action_id, 0, Cause.ACTION_NOT_SUPPORTED)
                )
                continue
            try:
                tree = decode_payload(action.definition, self.sm_codec)
                interface = tree["if"]
                procedures = tuple(tree["procs"])
                verdict = tree.get("verdict", POLICY_FORWARD) if hasattr(tree, "get") else (
                    tree["verdict"] if "verdict" in tree else POLICY_FORWARD
                )
            except DECODE_ERRORS:
                count_contained_decode()
                rejected.append(
                    RicActionNotAdmitted(action.action_id, 0, Cause.CONTROL_MESSAGE_INVALID)
                )
                continue
            if interface not in INTERFACES:
                rejected.append(
                    RicActionNotAdmitted(action.action_id, 0, Cause.ACTION_NOT_SUPPORTED)
                )
                continue
            admitted.append(RicActionAdmitted(action.action_id))
            parsed.append(
                _NiAction(
                    action_id=action.action_id,
                    kind=action.kind,
                    interface=interface,
                    procedures=procedures,
                    verdict=verdict,
                )
            )
        if not admitted:
            return admitted, rejected
        key = handle.key()
        self.subscriptions[key] = handle
        self._actions[key] = parsed
        return admitted, rejected

    def on_subscription_delete(self, handle: SubscriptionHandle) -> bool:
        self._actions.pop(handle.key(), None)
        return super().on_subscription_delete(handle)

    # -- the tap the base station drives -----------------------------------

    def observe(
        self,
        message: InterfaceMessage,
        resume: Optional[Callable[[bool], None]] = None,
    ) -> bool:
        """Process one interface message.

        Returns True if the node may proceed immediately; False if an
        insert action suspended the procedure (``resume`` will be
        called with the controller's decision) or a policy dropped it.
        """
        proceed = True
        suspended = False
        for key, actions in list(self._actions.items()):
            handle = self.subscriptions.get(key)
            if handle is None:
                continue
            for action in actions:
                if not action.matches(message):
                    continue
                if action.kind == RicActionKind.REPORT:
                    self._emit_copy(handle, action.action_id, message, RicIndicationKind.REPORT)
                    self.reports_emitted += 1
                elif action.kind == RicActionKind.INSERT and not suspended:
                    call_id = next(self._call_ids)
                    self._pending[call_id] = PendingInsert(
                        call_id=call_id,
                        message=message,
                        resume=resume or (lambda decision: None),
                    )
                    self._emit_copy(
                        handle,
                        action.action_id,
                        message,
                        RicIndicationKind.INSERT,
                        call_id=call_id,
                    )
                    self.inserts_emitted += 1
                    suspended = True
                elif action.kind == RicActionKind.POLICY:
                    self.policies_applied += 1
                    if action.verdict == POLICY_DROP:
                        proceed = False
        if suspended:
            return False
        return proceed

    def _emit_copy(
        self,
        handle: SubscriptionHandle,
        action_id: int,
        message: InterfaceMessage,
        kind: RicIndicationKind,
        call_id: int = 0,
    ) -> None:
        header = encode_payload(
            {"call_id": call_id}, self.sm_codec, schema="ni_insert_header"
        )
        payload = encode_payload(
            message.to_value(), self.sm_codec, schema="ni_message"
        )
        self.emit(handle, action_id, header=header, payload=payload, kind=kind)

    # -- control: resume a suspended call or inject a message ---------------

    def on_control(self, origin: int, header: bytes, payload: bytes) -> ControlOutcome:
        try:
            tree = decode_payload(payload, self.sm_codec)
            if "resume" in tree:
                call_id = tree["call_id"]
                pending = self._pending.pop(call_id, None)
                if pending is None:
                    return ControlOutcome.fail(
                        Cause.ric_request(Cause.REQUEST_ID_UNKNOWN, f"no call {call_id}")
                    )
                pending.resume(bool(tree["resume"]))
                return ControlOutcome.ok()
            message = InterfaceMessage.from_value(tree)
        except (KeyError, TypeError) as exc:
            return ControlOutcome.fail(
                Cause.ric_request(Cause.CONTROL_MESSAGE_INVALID, f"malformed: {exc}")
            )
        if message.interface not in INTERFACES:
            return ControlOutcome.fail(
                Cause.ric_request(Cause.CONTROL_MESSAGE_INVALID, "unknown interface")
            )
        self.injector(message)
        return ControlOutcome.ok()

    @property
    def pending_inserts(self) -> int:
        return len(self._pending)


def build_resume(call_id: int, proceed: bool, codec_name: str) -> bytes:
    """Controller side: answer a suspended insert."""
    return encode_payload(
        {"resume": proceed, "call_id": call_id}, codec_name, schema="ni_resume"
    )


def parse_insert_header(header: bytes, codec_name: str) -> int:
    """Extract the call id from an insert indication's header."""
    return decode_payload(header, codec_name, schema="ni_insert_header")["call_id"]
