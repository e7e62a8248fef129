"""E2AP message intermediate representation.

One frozen dataclass per E2AP message, each lowering to the generic
value tree consumed by the codecs.  The paper implements "the most
common 20 out of 26 E2AP messages" (§4.3); this module covers the full
set of setup, reset, error-indication, service-update, configuration-
update, connection-update, subscription, indication and control
procedures — 25 concrete messages.

Message framing on the wire is ``{"p": procedure, "c": class, "v":
payload}``, so the receiver can dispatch on two small integers before
touching the payload (with the FlatBuffers-style codec that dispatch is
a zero-copy read — see :func:`peek_procedure`).

Service-model payloads appear as ``bytes`` fields, already encoded by
the SM codec: E2's *double encoding* (§5.2).  The inner codec is chosen
independently of the outer one, reproducing the four combinations
benchmarked in Fig. 7.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Dict, List, Mapping, Optional, Tuple, Type

from repro.core.codec.base import Codec, CodecError
from repro.metrics import counters
from repro.metrics.trace import TRACER as _TRACER
from repro.core.e2ap.ies import (
    GlobalE2NodeId,
    RanFunctionItem,
    RicActionAdmitted,
    RicActionDefinition,
    RicActionNotAdmitted,
    TnlInformation,
    functions_from_value,
    functions_to_value,
)
from repro.core.e2ap.procedures import Cause, MessageClass, ProcedureCode

_MESSAGE_TYPES: Dict[Tuple[int, int], Type["E2Message"]] = {}


def register_message(cls: Type["E2Message"]) -> Type["E2Message"]:
    """Class decorator adding ``cls`` to the dispatch registry."""
    key = (int(cls.procedure), int(cls.msg_class))
    if key in _MESSAGE_TYPES:
        raise ValueError(f"duplicate E2AP message registration: {key}")
    _MESSAGE_TYPES[key] = cls
    return cls


def message_types() -> Dict[Tuple[int, int], Type["E2Message"]]:
    """A copy of the (procedure, class) -> dataclass registry."""
    return dict(_MESSAGE_TYPES)


class E2Message:
    """Base for all E2AP messages.

    Subclasses define ``procedure``/``msg_class`` class attributes and
    implement ``to_value``/``from_value``.
    """

    procedure: ProcedureCode
    msg_class: MessageClass

    def to_value(self) -> dict:
        raise NotImplementedError

    @classmethod
    def from_value(cls, value: Mapping) -> "E2Message":
        raise NotImplementedError


#: every E2AP message serialization request — the denominator-free
#: basis of the fan-out encode-reuse gate: delivered indications per
#: encode call (DESIGN.md §15).
_encode_calls = counters.get_counter("e2ap.encode.messages")


def encode_message(msg: E2Message, codec: Codec) -> bytes:
    """Serialize an E2AP message with the given outer codec.

    With tracing enabled an ``encode`` span is recorded, correlated on
    the message's RIC request id (when it has one) so the span
    stitches to the matching transport/decode/dispatch spans; the
    correlation is also noted for the transport send that follows.
    """
    tracer = _TRACER
    if tracer.enabled:
        start = time.perf_counter()
        wire = _encode_message(msg, codec)
        request = getattr(msg, "request", None)
        corr = request.as_tuple() if request is not None else None
        tracer.note_corr(corr)
        tracer.record("encode", start, corr, procedure=msg.procedure.name.lower())
        return wire
    return _encode_message(msg, codec)


def _encode_message(msg: E2Message, codec: Codec) -> bytes:
    _encode_calls.incr()
    tree = {"p": int(msg.procedure), "c": int(msg.msg_class), "v": msg.to_value()}
    try:
        return codec.encode(tree)
    except CodecError as exc:
        raise exc.with_context(message_type=type(msg).__name__)


def decode_message(data: bytes, codec: Codec) -> E2Message:
    """Deserialize into the concrete message dataclass.

    With tracing enabled a ``decode`` span is recorded, correlated the
    same way as :func:`encode_message`.
    """
    tracer = _TRACER
    if tracer.enabled:
        start = time.perf_counter()
        msg = _decode_message(data, codec)
        request = getattr(msg, "request", None)
        tracer.record(
            "decode",
            start,
            request.as_tuple() if request is not None else None,
            procedure=msg.procedure.name.lower(),
        )
        return msg
    return _decode_message(data, codec)


def _decode_message(data: bytes, codec: Codec) -> E2Message:
    try:
        tree = codec.decode(data)
    except CodecError as exc:
        raise exc.with_context(message_type="E2AP envelope")
    try:
        key = (tree["p"], tree["c"])
    except (KeyError, TypeError) as exc:
        raise CodecError(
            f"E2AP envelope missing dispatch header: {exc}",
            message_type="E2AP envelope",
            field="p/c",
        ) from exc
    try:
        cls = _MESSAGE_TYPES[key]
    except KeyError:
        raise CodecError(
            f"unknown E2AP message key {key}",
            message_type="E2AP envelope",
            field="p/c",
        ) from None
    try:
        return cls.from_value(tree["v"])
    except CodecError as exc:
        raise exc.with_context(message_type=cls.__name__)
    except KeyError as exc:
        raise CodecError(
            f"missing field in {cls.__name__} body: {exc}",
            message_type=cls.__name__,
            field=str(exc.args[0]) if exc.args else None,
        ) from exc


def peek_procedure(data: bytes, codec: Codec) -> Tuple[ProcedureCode, MessageClass]:
    """Read only the dispatch header.

    With the lazy FlatBuffers-style codec this touches two scalar
    fields of the root table and never walks the payload — the access
    pattern that gives the server its 4x CPU advantage on the
    indication path (§5.3).
    """
    tree = codec.decode(data)
    return ProcedureCode(tree["p"]), MessageClass(tree["c"])


def peek_indication_keys(data: bytes, codec: Codec) -> Tuple[int, int, int]:
    """Read (requestor_id, instance_id, ran_function_id) of an
    indication without materializing its payload.

    Raises :class:`CodecError` if the message is not an indication.
    """
    tree = codec.decode(data)
    if tree["p"] != int(ProcedureCode.RIC_INDICATION):
        raise CodecError("not a RIC indication")
    body = tree["v"]
    request = body["q"]
    return request["r"], request["i"], body["f"]


# ---------------------------------------------------------------------------
# Global procedures
# ---------------------------------------------------------------------------


@register_message
@dataclass(frozen=True)
class E2SetupRequest(E2Message):
    """Agent -> RIC: announce the node and its RAN functions."""

    procedure = ProcedureCode.E2_SETUP
    msg_class = MessageClass.INITIATING

    node_id: GlobalE2NodeId
    ran_functions: List[RanFunctionItem] = field(default_factory=list)

    def to_value(self) -> dict:
        return {"n": self.node_id.to_value(), "f": functions_to_value(self.ran_functions)}

    @classmethod
    def from_value(cls, value: Mapping) -> "E2SetupRequest":
        return cls(
            node_id=GlobalE2NodeId.from_value(value["n"]),
            ran_functions=functions_from_value(value["f"]),
        )


@register_message
@dataclass(frozen=True)
class E2SetupResponse(E2Message):
    """RIC -> agent: setup accepted; lists accepted/rejected functions."""

    procedure = ProcedureCode.E2_SETUP
    msg_class = MessageClass.SUCCESSFUL

    ric_id: int
    accepted_functions: List[int] = field(default_factory=list)
    rejected_functions: List[int] = field(default_factory=list)

    def to_value(self) -> dict:
        return {
            "r": self.ric_id,
            "a": list(self.accepted_functions),
            "j": list(self.rejected_functions),
        }

    @classmethod
    def from_value(cls, value: Mapping) -> "E2SetupResponse":
        return cls(
            ric_id=value["r"],
            accepted_functions=list(value["a"]),
            rejected_functions=list(value["j"]),
        )


@register_message
@dataclass(frozen=True)
class E2SetupFailure(E2Message):
    """RIC -> agent: setup refused."""

    procedure = ProcedureCode.E2_SETUP
    msg_class = MessageClass.UNSUCCESSFUL

    cause: Cause
    time_to_wait_s: float = 0.0

    def to_value(self) -> dict:
        return {"c": self.cause.to_value(), "t": self.time_to_wait_s}

    @classmethod
    def from_value(cls, value: Mapping) -> "E2SetupFailure":
        return cls(cause=Cause.from_value(value["c"]), time_to_wait_s=value["t"])


@register_message
@dataclass(frozen=True)
class ResetRequest(E2Message):
    """Either side: drop all transaction state."""

    procedure = ProcedureCode.RESET
    msg_class = MessageClass.INITIATING

    cause: Cause

    def to_value(self) -> dict:
        return {"c": self.cause.to_value()}

    @classmethod
    def from_value(cls, value: Mapping) -> "ResetRequest":
        return cls(cause=Cause.from_value(value["c"]))


@register_message
@dataclass(frozen=True)
class ResetResponse(E2Message):
    """Acknowledge a reset."""

    procedure = ProcedureCode.RESET
    msg_class = MessageClass.SUCCESSFUL

    def to_value(self) -> dict:
        return {}

    @classmethod
    def from_value(cls, value: Mapping) -> "ResetResponse":
        return cls()


@register_message
@dataclass(frozen=True)
class ErrorIndication(E2Message):
    """Either side: report a protocol-level problem."""

    procedure = ProcedureCode.ERROR_INDICATION
    msg_class = MessageClass.INITIATING

    cause: Cause
    ran_function_id: Optional[int] = None

    def to_value(self) -> dict:
        return {"c": self.cause.to_value(), "f": self.ran_function_id}

    @classmethod
    def from_value(cls, value: Mapping) -> "ErrorIndication":
        return cls(cause=Cause.from_value(value["c"]), ran_function_id=value["f"])


@register_message
@dataclass(frozen=True)
class RicServiceQuery(E2Message):
    """RIC -> agent: ask for the current RAN function inventory.

    The E2 node answers with a RIC service update listing every
    function it hosts (used by a controller to resynchronize after a
    restart without tearing the connection down).
    """

    procedure = ProcedureCode.RIC_SERVICE_QUERY
    msg_class = MessageClass.INITIATING

    #: function ids the RIC already knows (the agent may diff against
    #: these; an empty list requests the full inventory).
    known_functions: List[int] = field(default_factory=list)

    def to_value(self) -> dict:
        return {"k": list(self.known_functions)}

    @classmethod
    def from_value(cls, value: Mapping) -> "RicServiceQuery":
        return cls(known_functions=list(value["k"]))


@register_message
@dataclass(frozen=True)
class RicServiceUpdate(E2Message):
    """Agent -> RIC: RAN functions added/modified/removed at runtime."""

    procedure = ProcedureCode.RIC_SERVICE_UPDATE
    msg_class = MessageClass.INITIATING

    added: List[RanFunctionItem] = field(default_factory=list)
    modified: List[RanFunctionItem] = field(default_factory=list)
    removed: List[int] = field(default_factory=list)

    def to_value(self) -> dict:
        return {
            "a": functions_to_value(self.added),
            "m": functions_to_value(self.modified),
            "r": list(self.removed),
        }

    @classmethod
    def from_value(cls, value: Mapping) -> "RicServiceUpdate":
        return cls(
            added=functions_from_value(value["a"]),
            modified=functions_from_value(value["m"]),
            removed=list(value["r"]),
        )


@register_message
@dataclass(frozen=True)
class RicServiceUpdateAcknowledge(E2Message):
    procedure = ProcedureCode.RIC_SERVICE_UPDATE
    msg_class = MessageClass.SUCCESSFUL

    accepted: List[int] = field(default_factory=list)
    rejected: List[int] = field(default_factory=list)

    def to_value(self) -> dict:
        return {"a": list(self.accepted), "r": list(self.rejected)}

    @classmethod
    def from_value(cls, value: Mapping) -> "RicServiceUpdateAcknowledge":
        return cls(accepted=list(value["a"]), rejected=list(value["r"]))


@register_message
@dataclass(frozen=True)
class RicServiceUpdateFailure(E2Message):
    procedure = ProcedureCode.RIC_SERVICE_UPDATE
    msg_class = MessageClass.UNSUCCESSFUL

    cause: Cause

    def to_value(self) -> dict:
        return {"c": self.cause.to_value()}

    @classmethod
    def from_value(cls, value: Mapping) -> "RicServiceUpdateFailure":
        return cls(cause=Cause.from_value(value["c"]))


@register_message
@dataclass(frozen=True)
class E2NodeConfigurationUpdate(E2Message):
    """Agent -> RIC: node-level configuration changed."""

    procedure = ProcedureCode.E2_NODE_CONFIGURATION_UPDATE
    msg_class = MessageClass.INITIATING

    node_id: GlobalE2NodeId
    config: Dict[str, str] = field(default_factory=dict)

    def to_value(self) -> dict:
        return {"n": self.node_id.to_value(), "c": dict(self.config)}

    @classmethod
    def from_value(cls, value: Mapping) -> "E2NodeConfigurationUpdate":
        raw = value["c"]
        config = {key: raw[key] for key in raw.keys()} if hasattr(raw, "keys") else dict(raw)
        return cls(node_id=GlobalE2NodeId.from_value(value["n"]), config=config)


@register_message
@dataclass(frozen=True)
class E2NodeConfigurationUpdateAcknowledge(E2Message):
    procedure = ProcedureCode.E2_NODE_CONFIGURATION_UPDATE
    msg_class = MessageClass.SUCCESSFUL

    def to_value(self) -> dict:
        return {}

    @classmethod
    def from_value(cls, value: Mapping) -> "E2NodeConfigurationUpdateAcknowledge":
        return cls()


@register_message
@dataclass(frozen=True)
class E2NodeConfigurationUpdateFailure(E2Message):
    procedure = ProcedureCode.E2_NODE_CONFIGURATION_UPDATE
    msg_class = MessageClass.UNSUCCESSFUL

    cause: Cause

    def to_value(self) -> dict:
        return {"c": self.cause.to_value()}

    @classmethod
    def from_value(cls, value: Mapping) -> "E2NodeConfigurationUpdateFailure":
        return cls(cause=Cause.from_value(value["c"]))


@register_message
@dataclass(frozen=True)
class E2ConnectionUpdate(E2Message):
    """RIC -> agent: endpoints the agent should (dis)connect to.

    Used by the multi-controller machinery (§4.1.2) to attach an agent
    to an additional controller at runtime.
    """

    procedure = ProcedureCode.E2_CONNECTION_UPDATE
    msg_class = MessageClass.INITIATING

    add: List[TnlInformation] = field(default_factory=list)
    remove: List[TnlInformation] = field(default_factory=list)

    def to_value(self) -> dict:
        return {
            "a": [item.to_value() for item in self.add],
            "r": [item.to_value() for item in self.remove],
        }

    @classmethod
    def from_value(cls, value: Mapping) -> "E2ConnectionUpdate":
        return cls(
            add=[TnlInformation.from_value(item) for item in value["a"]],
            remove=[TnlInformation.from_value(item) for item in value["r"]],
        )


@register_message
@dataclass(frozen=True)
class E2ConnectionUpdateAcknowledge(E2Message):
    procedure = ProcedureCode.E2_CONNECTION_UPDATE
    msg_class = MessageClass.SUCCESSFUL

    connected: List[TnlInformation] = field(default_factory=list)

    def to_value(self) -> dict:
        return {"c": [item.to_value() for item in self.connected]}

    @classmethod
    def from_value(cls, value: Mapping) -> "E2ConnectionUpdateAcknowledge":
        return cls(connected=[TnlInformation.from_value(item) for item in value["c"]])


@register_message
@dataclass(frozen=True)
class E2ConnectionUpdateFailure(E2Message):
    procedure = ProcedureCode.E2_CONNECTION_UPDATE
    msg_class = MessageClass.UNSUCCESSFUL

    cause: Cause

    def to_value(self) -> dict:
        return {"c": self.cause.to_value()}

    @classmethod
    def from_value(cls, value: Mapping) -> "E2ConnectionUpdateFailure":
        return cls(cause=Cause.from_value(value["c"]))


# ---------------------------------------------------------------------------
# Functional procedures (subscription / indication / control)
# ---------------------------------------------------------------------------


@register_message
@dataclass(frozen=True)
class RicSubscriptionRequest(E2Message):
    """RIC -> agent: subscribe to a RAN function's event trigger."""

    procedure = ProcedureCode.RIC_SUBSCRIPTION
    msg_class = MessageClass.INITIATING

    request: "RicRequestIdValue"
    ran_function_id: int
    event_trigger: bytes = b""
    actions: List[RicActionDefinition] = field(default_factory=list)

    def to_value(self) -> dict:
        return {
            "q": self.request.to_value(),
            "f": self.ran_function_id,
            "t": self.event_trigger,
            "a": [item.to_value() for item in self.actions],
        }

    @classmethod
    def from_value(cls, value: Mapping) -> "RicSubscriptionRequest":
        from repro.core.e2ap.ies import RicRequestId

        return cls(
            request=RicRequestId.from_value(value["q"]),
            ran_function_id=value["f"],
            event_trigger=value["t"],
            actions=[RicActionDefinition.from_value(item) for item in value["a"]],
        )


@register_message
@dataclass(frozen=True)
class RicSubscriptionResponse(E2Message):
    procedure = ProcedureCode.RIC_SUBSCRIPTION
    msg_class = MessageClass.SUCCESSFUL

    request: "RicRequestIdValue"
    ran_function_id: int
    admitted: List[RicActionAdmitted] = field(default_factory=list)
    not_admitted: List[RicActionNotAdmitted] = field(default_factory=list)

    def to_value(self) -> dict:
        return {
            "q": self.request.to_value(),
            "f": self.ran_function_id,
            "a": [item.to_value() for item in self.admitted],
            "n": [item.to_value() for item in self.not_admitted],
        }

    @classmethod
    def from_value(cls, value: Mapping) -> "RicSubscriptionResponse":
        from repro.core.e2ap.ies import RicRequestId

        return cls(
            request=RicRequestId.from_value(value["q"]),
            ran_function_id=value["f"],
            admitted=[RicActionAdmitted.from_value(item) for item in value["a"]],
            not_admitted=[RicActionNotAdmitted.from_value(item) for item in value["n"]],
        )


@register_message
@dataclass(frozen=True)
class RicSubscriptionFailure(E2Message):
    procedure = ProcedureCode.RIC_SUBSCRIPTION
    msg_class = MessageClass.UNSUCCESSFUL

    request: "RicRequestIdValue"
    ran_function_id: int
    cause: Cause

    def to_value(self) -> dict:
        return {
            "q": self.request.to_value(),
            "f": self.ran_function_id,
            "c": self.cause.to_value(),
        }

    @classmethod
    def from_value(cls, value: Mapping) -> "RicSubscriptionFailure":
        from repro.core.e2ap.ies import RicRequestId

        return cls(
            request=RicRequestId.from_value(value["q"]),
            ran_function_id=value["f"],
            cause=Cause.from_value(value["c"]),
        )


@register_message
@dataclass(frozen=True)
class RicSubscriptionDeleteRequest(E2Message):
    procedure = ProcedureCode.RIC_SUBSCRIPTION_DELETE
    msg_class = MessageClass.INITIATING

    request: "RicRequestIdValue"
    ran_function_id: int

    def to_value(self) -> dict:
        return {"q": self.request.to_value(), "f": self.ran_function_id}

    @classmethod
    def from_value(cls, value: Mapping) -> "RicSubscriptionDeleteRequest":
        from repro.core.e2ap.ies import RicRequestId

        return cls(request=RicRequestId.from_value(value["q"]), ran_function_id=value["f"])


@register_message
@dataclass(frozen=True)
class RicSubscriptionDeleteResponse(E2Message):
    procedure = ProcedureCode.RIC_SUBSCRIPTION_DELETE
    msg_class = MessageClass.SUCCESSFUL

    request: "RicRequestIdValue"
    ran_function_id: int

    def to_value(self) -> dict:
        return {"q": self.request.to_value(), "f": self.ran_function_id}

    @classmethod
    def from_value(cls, value: Mapping) -> "RicSubscriptionDeleteResponse":
        from repro.core.e2ap.ies import RicRequestId

        return cls(request=RicRequestId.from_value(value["q"]), ran_function_id=value["f"])


@register_message
@dataclass(frozen=True)
class RicSubscriptionDeleteFailure(E2Message):
    procedure = ProcedureCode.RIC_SUBSCRIPTION_DELETE
    msg_class = MessageClass.UNSUCCESSFUL

    request: "RicRequestIdValue"
    ran_function_id: int
    cause: Cause

    def to_value(self) -> dict:
        return {
            "q": self.request.to_value(),
            "f": self.ran_function_id,
            "c": self.cause.to_value(),
        }

    @classmethod
    def from_value(cls, value: Mapping) -> "RicSubscriptionDeleteFailure":
        from repro.core.e2ap.ies import RicRequestId

        return cls(
            request=RicRequestId.from_value(value["q"]),
            ran_function_id=value["f"],
            cause=Cause.from_value(value["c"]),
        )


class RicIndicationKind(IntEnum):
    """Report vs insert indications (Appendix A.3)."""

    REPORT = 0
    INSERT = 1


@register_message
@dataclass(frozen=True)
class RicIndication(E2Message):
    """Agent -> RIC: SM payload produced by a subscribed action.

    ``payload`` (indication message) and ``header`` are SM-encoded
    bytes; the server dispatches on ``request``/``ran_function_id``
    without opening them (:func:`peek_indication_keys`).
    """

    procedure = ProcedureCode.RIC_INDICATION
    msg_class = MessageClass.INITIATING

    request: "RicRequestIdValue"
    ran_function_id: int
    action_id: int
    sequence: int
    kind: RicIndicationKind = RicIndicationKind.REPORT
    header: bytes = b""
    payload: bytes = b""

    def to_value(self) -> dict:
        return {
            "q": self.request.to_value(),
            "f": self.ran_function_id,
            "a": self.action_id,
            "s": self.sequence,
            "k": int(self.kind),
            "h": self.header,
            "m": self.payload,
        }

    @classmethod
    def from_value(cls, value: Mapping) -> "RicIndication":
        from repro.core.e2ap.ies import RicRequestId

        return cls(
            request=RicRequestId.from_value(value["q"]),
            ran_function_id=value["f"],
            action_id=value["a"],
            sequence=value["s"],
            kind=RicIndicationKind(value["k"]),
            header=value["h"],
            payload=value["m"],
        )


@register_message
@dataclass(frozen=True)
class RicControlRequest(E2Message):
    """RIC -> agent: execute an SM-defined control action."""

    procedure = ProcedureCode.RIC_CONTROL
    msg_class = MessageClass.INITIATING

    request: "RicRequestIdValue"
    ran_function_id: int
    header: bytes = b""
    payload: bytes = b""
    ack_requested: bool = True

    def to_value(self) -> dict:
        return {
            "q": self.request.to_value(),
            "f": self.ran_function_id,
            "h": self.header,
            "m": self.payload,
            "k": self.ack_requested,
        }

    @classmethod
    def from_value(cls, value: Mapping) -> "RicControlRequest":
        from repro.core.e2ap.ies import RicRequestId

        return cls(
            request=RicRequestId.from_value(value["q"]),
            ran_function_id=value["f"],
            header=value["h"],
            payload=value["m"],
            ack_requested=value["k"],
        )


@register_message
@dataclass(frozen=True)
class RicControlAcknowledge(E2Message):
    procedure = ProcedureCode.RIC_CONTROL
    msg_class = MessageClass.SUCCESSFUL

    request: "RicRequestIdValue"
    ran_function_id: int
    outcome: bytes = b""

    def to_value(self) -> dict:
        return {"q": self.request.to_value(), "f": self.ran_function_id, "o": self.outcome}

    @classmethod
    def from_value(cls, value: Mapping) -> "RicControlAcknowledge":
        from repro.core.e2ap.ies import RicRequestId

        return cls(
            request=RicRequestId.from_value(value["q"]),
            ran_function_id=value["f"],
            outcome=value["o"],
        )


@register_message
@dataclass(frozen=True)
class RicControlFailure(E2Message):
    procedure = ProcedureCode.RIC_CONTROL
    msg_class = MessageClass.UNSUCCESSFUL

    request: "RicRequestIdValue"
    ran_function_id: int
    cause: Cause

    def to_value(self) -> dict:
        return {
            "q": self.request.to_value(),
            "f": self.ran_function_id,
            "c": self.cause.to_value(),
        }

    @classmethod
    def from_value(cls, value: Mapping) -> "RicControlFailure":
        from repro.core.e2ap.ies import RicRequestId

        return cls(
            request=RicRequestId.from_value(value["q"]),
            ran_function_id=value["f"],
            cause=Cause.from_value(value["c"]),
        )


# Forward-reference alias used in annotations above; kept at module end
# so the dataclass definitions stay readable.
from repro.core.e2ap.ies import RicRequestId as RicRequestIdValue  # noqa: E402
