"""E2AP message intermediate representation.

One frozen dataclass per E2AP message — the single declaration of its
shape: ``@register_message("<wire keys>")`` derives the wire schema the
codec kernels compile from and generates the ``to_value`` /
``from_value`` pair lowering it to the generic value tree
(:func:`repro.core.codec.schema.wire`).  The paper implements "the most
common 20 out of 26 E2AP messages" (§4.3); this module covers the full
set of setup, reset, error-indication, service-update, configuration-
update, connection-update, subscription, indication and control
procedures — 26 concrete messages.

Message framing on the wire is ``{"p": procedure, "c": class, "v":
payload}``, so the receiver can dispatch on two small integers before
touching the payload.

Service-model payloads appear as ``bytes`` fields, already encoded by
the SM codec: E2's *double encoding* (§5.2).  The inner codec is chosen
independently of the outer one, reproducing the four combinations
benchmarked in Fig. 7.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Dict, List, Optional, Tuple, Type

from repro.core.codec.base import Codec, CodecError
from repro.core.codec.codegen import ROW_ROUTED as _ROW_ROUTED
from repro.core.codec.codegen import kernel_encode_msg as _encode_object
from repro.core.codec.schema import register_message_schema, wire
from repro.metrics import counters
from repro.metrics.trace import TRACER as _TRACER
from repro.core.e2ap.ies import (
    GlobalE2NodeId,
    RanFunctionItem,
    RicActionAdmitted,
    RicActionDefinition,
    RicActionNotAdmitted,
    RicRequestId,
    TnlInformation,
)
from repro.core.e2ap.procedures import Cause, MessageClass, ProcedureCode

_MESSAGE_TYPES: Dict[Tuple[int, int], Type["E2Message"]] = {}


def register_message(keys: str = "") -> Callable[[Type["E2Message"]], Type["E2Message"]]:
    """Class decorator: :func:`wire` the dataclass with ``keys`` and add
    it (dispatch) and its derived schema (kernels) to the registries."""

    def decorate(cls: Type["E2Message"]) -> Type["E2Message"]:
        key = (int(cls.procedure), int(cls.msg_class))
        if key in _MESSAGE_TYPES:
            raise ValueError(f"duplicate E2AP message registration: {key}")
        _MESSAGE_TYPES[key] = wire(keys)(cls)
        register_message_schema(key, cls.wire_schema)
        return cls

    return decorate


def message_types() -> Dict[Tuple[int, int], Type["E2Message"]]:
    """A copy of the (procedure, class) -> dataclass registry."""
    return dict(_MESSAGE_TYPES)


class E2Message:
    """Base for all E2AP messages.

    Subclasses define ``procedure``/``msg_class`` class attributes and
    their fields; ``to_value``/``from_value`` are generated by
    :func:`register_message`.
    """

    procedure: ProcedureCode
    msg_class: MessageClass


#: every E2AP message serialization request — the denominator-free
#: basis of the fan-out encode-reuse gate: delivered indications per
#: encode call (DESIGN.md §15).
_count_encode = counters.get_counter("e2ap.encode.messages").tick


def encode_message(msg: E2Message, codec: Codec) -> bytes:
    """Serialize an E2AP message with the given outer codec.

    The codec's object lane (its envelope kernel's ``encode_msg``) reads
    the dataclass itself; a codec without kernels, or a message the
    kernel declines, takes the walker (``to_value`` + ``codec.encode``),
    which writes the same bytes.  With tracing enabled an ``encode``
    span is recorded, correlated on the message's RIC request id (when
    it has one) so the span stitches to the matching transport/decode/
    dispatch spans; the correlation is also noted for the transport
    send that follows.
    """
    tracer = _TRACER
    start = time.perf_counter() if tracer.enabled else 0.0
    _count_encode()
    wire = _encode_object(codec.name, msg)
    if wire is None:
        try:
            wire = codec.encode(
                {"p": int(msg.procedure), "c": int(msg.msg_class), "v": msg.to_value()}
            )
        except CodecError as exc:
            raise exc.with_context(message_type=type(msg).__name__)
    if start:
        request = getattr(msg, "request", None)
        corr = request.as_tuple() if request is not None else None
        tracer.note_corr(corr)
        tracer.record("encode", start, corr, procedure=msg.procedure.name.lower())
    return wire


def decode_message(data: bytes, codec: Codec) -> E2Message:
    """Deserialize into the concrete message dataclass.

    The codec's route lane builds the dataclass straight off the wire
    (``RicIndication`` from its row).  A frame that is not a
    well-formed E2AP message raises :class:`CodecError` and nothing
    else, whichever codec and lane read it: a body that does not fit
    its class names the class and wire field.  With tracing enabled a
    ``decode`` span is recorded, correlated the same way as
    :func:`encode_message`.
    """
    tracer = _TRACER
    start = time.perf_counter() if tracer.enabled else 0.0
    try:
        procedure, msg_class, body = codec.decode_route(data)
    except CodecError as exc:
        raise exc.with_context(message_type="E2AP envelope")
    if (procedure, msg_class) == _ROW_ROUTED:
        msg = _indication(body)
    elif isinstance(body, E2Message):
        msg = body
    else:
        raise CodecError(
            f"unknown E2AP message key {(procedure, msg_class)}",
            message_type="E2AP envelope",
            field="p/c",
        )
    if start:
        request = getattr(msg, "request", None)
        tracer.record(
            "decode",
            start,
            request.as_tuple() if request is not None else None,
            procedure=msg.procedure.name.lower(),
        )
    return msg


def _indication(row: tuple) -> "RicIndication":
    """The :class:`RicIndication` of a route row ``(r, i, f, a, s, k, h, m)``."""
    requestor, instance, function, action, sequence, kind, header, payload = row
    try:
        kind = INDICATION_KINDS[kind]
    except (KeyError, TypeError):
        raise CodecError(
            f"malformed RicIndication body: {kind!r} is not a RicIndicationKind",
            message_type="RicIndication",
            field="k",
        ) from None
    return RicIndication(
        RicRequestId(requestor, instance), function, action, sequence, kind, header, payload
    )


# ---------------------------------------------------------------------------
# Global procedures
# ---------------------------------------------------------------------------


@register_message("n f")
@dataclass(frozen=True)
class E2SetupRequest(E2Message):
    """Agent -> RIC: announce the node and its RAN functions."""

    procedure = ProcedureCode.E2_SETUP
    msg_class = MessageClass.INITIATING

    node_id: GlobalE2NodeId
    ran_functions: List[RanFunctionItem] = field(default_factory=list)


@register_message("r a j")
@dataclass(frozen=True)
class E2SetupResponse(E2Message):
    """RIC -> agent: setup accepted; lists accepted/rejected functions."""

    procedure = ProcedureCode.E2_SETUP
    msg_class = MessageClass.SUCCESSFUL

    ric_id: int
    accepted_functions: List[int] = field(default_factory=list)
    rejected_functions: List[int] = field(default_factory=list)


@register_message("c t")
@dataclass(frozen=True)
class E2SetupFailure(E2Message):
    """RIC -> agent: setup refused."""

    procedure = ProcedureCode.E2_SETUP
    msg_class = MessageClass.UNSUCCESSFUL

    cause: Cause
    time_to_wait_s: float = 0.0


@register_message("c")
@dataclass(frozen=True)
class ResetRequest(E2Message):
    """Either side: drop all transaction state."""

    procedure = ProcedureCode.RESET
    msg_class = MessageClass.INITIATING

    cause: Cause


@register_message()
@dataclass(frozen=True)
class ResetResponse(E2Message):
    """Acknowledge a reset."""

    procedure = ProcedureCode.RESET
    msg_class = MessageClass.SUCCESSFUL


@register_message("c f")
@dataclass(frozen=True)
class ErrorIndication(E2Message):
    """Either side: report a protocol-level problem."""

    procedure = ProcedureCode.ERROR_INDICATION
    msg_class = MessageClass.INITIATING

    cause: Cause
    ran_function_id: Optional[int] = None


@register_message("k")
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


@register_message("a m r")
@dataclass(frozen=True)
class RicServiceUpdate(E2Message):
    """Agent -> RIC: RAN functions added/modified/removed at runtime."""

    procedure = ProcedureCode.RIC_SERVICE_UPDATE
    msg_class = MessageClass.INITIATING

    added: List[RanFunctionItem] = field(default_factory=list)
    modified: List[RanFunctionItem] = field(default_factory=list)
    removed: List[int] = field(default_factory=list)


@register_message("a r")
@dataclass(frozen=True)
class RicServiceUpdateAcknowledge(E2Message):
    procedure = ProcedureCode.RIC_SERVICE_UPDATE
    msg_class = MessageClass.SUCCESSFUL

    accepted: List[int] = field(default_factory=list)
    rejected: List[int] = field(default_factory=list)


@register_message("c")
@dataclass(frozen=True)
class RicServiceUpdateFailure(E2Message):
    procedure = ProcedureCode.RIC_SERVICE_UPDATE
    msg_class = MessageClass.UNSUCCESSFUL

    cause: Cause


@register_message("n c")
@dataclass(frozen=True)
class E2NodeConfigurationUpdate(E2Message):
    """Agent -> RIC: node-level configuration changed."""

    procedure = ProcedureCode.E2_NODE_CONFIGURATION_UPDATE
    msg_class = MessageClass.INITIATING

    node_id: GlobalE2NodeId
    config: Dict[str, str] = field(default_factory=dict)


@register_message()
@dataclass(frozen=True)
class E2NodeConfigurationUpdateAcknowledge(E2Message):
    procedure = ProcedureCode.E2_NODE_CONFIGURATION_UPDATE
    msg_class = MessageClass.SUCCESSFUL


@register_message("c")
@dataclass(frozen=True)
class E2NodeConfigurationUpdateFailure(E2Message):
    procedure = ProcedureCode.E2_NODE_CONFIGURATION_UPDATE
    msg_class = MessageClass.UNSUCCESSFUL

    cause: Cause


@register_message("a r")
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


@register_message("c")
@dataclass(frozen=True)
class E2ConnectionUpdateAcknowledge(E2Message):
    procedure = ProcedureCode.E2_CONNECTION_UPDATE
    msg_class = MessageClass.SUCCESSFUL

    connected: List[TnlInformation] = field(default_factory=list)


@register_message("c")
@dataclass(frozen=True)
class E2ConnectionUpdateFailure(E2Message):
    procedure = ProcedureCode.E2_CONNECTION_UPDATE
    msg_class = MessageClass.UNSUCCESSFUL

    cause: Cause

# ---------------------------------------------------------------------------
# Functional procedures (subscription / indication / control)
# ---------------------------------------------------------------------------


@register_message("q f t a")
@dataclass(frozen=True)
class RicSubscriptionRequest(E2Message):
    """RIC -> agent: subscribe to a RAN function's event trigger."""

    procedure = ProcedureCode.RIC_SUBSCRIPTION
    msg_class = MessageClass.INITIATING

    request: RicRequestId
    ran_function_id: int
    event_trigger: bytes = b""
    actions: List[RicActionDefinition] = field(default_factory=list)


@register_message("q f a n")
@dataclass(frozen=True)
class RicSubscriptionResponse(E2Message):
    procedure = ProcedureCode.RIC_SUBSCRIPTION
    msg_class = MessageClass.SUCCESSFUL

    request: RicRequestId
    ran_function_id: int
    admitted: List[RicActionAdmitted] = field(default_factory=list)
    not_admitted: List[RicActionNotAdmitted] = field(default_factory=list)


@register_message("q f c")
@dataclass(frozen=True)
class RicSubscriptionFailure(E2Message):
    procedure = ProcedureCode.RIC_SUBSCRIPTION
    msg_class = MessageClass.UNSUCCESSFUL

    request: RicRequestId
    ran_function_id: int
    cause: Cause


@register_message("q f")
@dataclass(frozen=True)
class RicSubscriptionDeleteRequest(E2Message):
    procedure = ProcedureCode.RIC_SUBSCRIPTION_DELETE
    msg_class = MessageClass.INITIATING

    request: RicRequestId
    ran_function_id: int


@register_message("q f")
@dataclass(frozen=True)
class RicSubscriptionDeleteResponse(E2Message):
    procedure = ProcedureCode.RIC_SUBSCRIPTION_DELETE
    msg_class = MessageClass.SUCCESSFUL

    request: RicRequestId
    ran_function_id: int


@register_message("q f c")
@dataclass(frozen=True)
class RicSubscriptionDeleteFailure(E2Message):
    procedure = ProcedureCode.RIC_SUBSCRIPTION_DELETE
    msg_class = MessageClass.UNSUCCESSFUL

    request: RicRequestId
    ran_function_id: int
    cause: Cause


class RicIndicationKind(IntEnum):
    """Report vs insert indications (Appendix A.3)."""

    REPORT = 0
    INSERT = 1


#: wire value → kind; a dict, so a ``k`` outside the enum is a ``KeyError``.
INDICATION_KINDS = {int(kind): kind for kind in RicIndicationKind}


@register_message("q f a s k h m")
@dataclass(frozen=True)
class RicIndication(E2Message):
    """Agent -> RIC: SM payload produced by a subscribed action.

    ``payload`` (indication message) and ``header`` are SM-encoded
    bytes; the server dispatches on ``request``/``ran_function_id``
    without opening them.
    """

    procedure = ProcedureCode.RIC_INDICATION
    msg_class = MessageClass.INITIATING

    request: RicRequestId
    ran_function_id: int
    action_id: int
    sequence: int
    kind: RicIndicationKind = RicIndicationKind.REPORT
    header: bytes = b""
    payload: bytes = b""


@register_message("q f h m k")
@dataclass(frozen=True)
class RicControlRequest(E2Message):
    """RIC -> agent: execute an SM-defined control action."""

    procedure = ProcedureCode.RIC_CONTROL
    msg_class = MessageClass.INITIATING

    request: RicRequestId
    ran_function_id: int
    header: bytes = b""
    payload: bytes = b""
    ack_requested: bool = True


@register_message("q f o")
@dataclass(frozen=True)
class RicControlAcknowledge(E2Message):
    procedure = ProcedureCode.RIC_CONTROL
    msg_class = MessageClass.SUCCESSFUL

    request: RicRequestId
    ran_function_id: int
    outcome: bytes = b""


@register_message("q f c")
@dataclass(frozen=True)
class RicControlFailure(E2Message):
    procedure = ProcedureCode.RIC_CONTROL
    msg_class = MessageClass.UNSUCCESSFUL

    request: RicRequestId
    ran_function_id: int
    cause: Cause
