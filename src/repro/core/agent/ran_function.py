"""Generic RAN function API (§4.1.1).

A RAN function is "controllable functionality within an E2 node".  The
agent library defines three callbacks a RAN function must implement —
subscription request, subscription delete, and control — plus an
emission path for indications.  Pre-defined service models
(:mod:`repro.sm`) implement this interface; base stations may add
custom functions the same way.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.codec.base import CodecError
from repro.core.e2ap.ies import (
    RicActionAdmitted,
    RicActionDefinition,
    RicActionNotAdmitted,
    RicRequestId,
)
from repro.core.e2ap.messages import RicIndication, RicIndicationKind
from repro.core.e2ap.procedures import Cause
from repro.metrics.counters import get_counter

#: What a malformed SM payload can actually raise: codec rejections,
#: missing/mistyped fields in the decoded tree, and truncated packed
#: structs.  Containment handlers catch exactly these — a genuine bug
#: (AttributeError, RecursionError, ...) must still propagate.
DECODE_ERRORS = (CodecError, KeyError, TypeError, ValueError, struct.error)


def count_contained_decode() -> None:
    """Account one malformed payload rejected without harm."""
    get_counter("decode.contained").incr()


@dataclass(frozen=True)
class SubscriptionHandle:
    """Identity of one active subscription at the agent.

    ``origin`` is the controller connection index (0 = first
    controller) — RAN functions use it to expose only the UEs
    associated with that controller (§4.1.2).
    """

    origin: int
    request: RicRequestId
    ran_function_id: int

    def key(self) -> Tuple[int, int, int, int]:
        request = self.request
        return (self.origin, request.requestor_id, request.instance_id, self.ran_function_id)


@dataclass
class ControlOutcome:
    """Result of a control callback: ack with outcome bytes or failure."""

    success: bool
    outcome: bytes = b""
    cause: Optional[Cause] = None

    @classmethod
    def ok(cls, outcome: bytes = b"") -> "ControlOutcome":
        return cls(success=True, outcome=outcome)

    @classmethod
    def fail(cls, cause: Cause) -> "ControlOutcome":
        return cls(success=False, cause=cause)


class IndicationSink:
    """Where a RAN function hands completed indications.

    The agent implements this; the indirection keeps RAN functions
    free of any knowledge of transport or encoding (the E2AP
    abstraction boundary, §4.3).
    """

    def send_indication(self, origin: int, indication: RicIndication) -> None:
        raise NotImplementedError

    def send_indications(self, origin: int, indications: Sequence[RicIndication]) -> None:
        """Hand over a burst of indications for the same controller.

        Default falls back to one ``send_indication`` per item; the
        agent overrides it to coalesce the burst into one transport
        write.
        """
        for indication in indications:
            self.send_indication(origin, indication)


class RanFunction:
    """Base class for agent-side RAN functions.

    Lifecycle: the base station constructs the function, registers it
    with the agent, and the agent calls :meth:`bind` before the first
    message arrives.  Subclasses override the three ``on_*`` callbacks.
    """

    def __init__(self, ran_function_id: int, name: str, oid: str, revision: int = 1) -> None:
        self.ran_function_id = ran_function_id
        self.name = name
        self.oid = oid
        self.revision = revision
        self._sink: Optional[IndicationSink] = None
        self._sequences: Dict[Tuple, int] = {}
        self.subscriptions: Dict[Tuple, SubscriptionHandle] = {}

    # -- agent-facing ------------------------------------------------

    def bind(self, sink: IndicationSink) -> None:
        """Attach the indication sink (called once by the agent)."""
        self._sink = sink

    def definition_bytes(self) -> bytes:
        """Self-description advertised in the E2 setup request."""
        descriptor = f"{self.oid};{self.name};rev{self.revision}"
        return descriptor.encode("utf-8")

    # -- callbacks the SM implements (§4.1.1) ------------------------

    def on_subscription(
        self,
        handle: SubscriptionHandle,
        event_trigger: bytes,
        actions: List[RicActionDefinition],
    ) -> Tuple[List[RicActionAdmitted], List[RicActionNotAdmitted]]:
        """Handle a new subscription; admit or reject each action.

        The default rejects everything — a function that does not
        override this is control-only.
        """
        rejected = [
            RicActionNotAdmitted(
                action_id=action.action_id,
                cause_kind=0,
                cause_value=Cause.ACTION_NOT_SUPPORTED,
            )
            for action in actions
        ]
        return [], rejected

    def on_subscription_delete(self, handle: SubscriptionHandle) -> bool:
        """Remove a subscription; returns False if it was unknown."""
        return self.subscriptions.pop(handle.key(), None) is not None

    def on_control(self, origin: int, header: bytes, payload: bytes) -> ControlOutcome:
        """Execute a control action.  Default: unsupported."""
        return ControlOutcome.fail(
            Cause.ric_request(Cause.CONTROL_MESSAGE_INVALID, "control not supported")
        )

    # -- helpers for subclasses --------------------------------------

    def admit_all(
        self, handle: SubscriptionHandle, actions: List[RicActionDefinition]
    ) -> Tuple[List[RicActionAdmitted], List[RicActionNotAdmitted]]:
        """Record the subscription and admit every requested action."""
        self.subscriptions[handle.key()] = handle
        return [RicActionAdmitted(action.action_id) for action in actions], []

    def emit(
        self,
        handle: SubscriptionHandle,
        action_id: int,
        header: bytes,
        payload: bytes,
        kind: RicIndicationKind = RicIndicationKind.REPORT,
    ) -> None:
        """Send an indication for an active subscription."""
        if self._sink is None:
            raise RuntimeError(f"RAN function {self.name} not bound to an agent")
        key = handle.key()
        sequence = self._sequences.get(key, 0)
        self._sequences[key] = sequence + 1
        indication = RicIndication(
            request=handle.request,
            ran_function_id=self.ran_function_id,
            action_id=action_id,
            sequence=sequence,
            kind=kind,
            header=header,
            payload=payload,
        )
        self._sink.send_indication(handle.origin, indication)

    def emit_many(
        self,
        handle: SubscriptionHandle,
        entries: Sequence[Tuple[int, bytes, bytes]],
        kind: RicIndicationKind = RicIndicationKind.REPORT,
    ) -> None:
        """Send one indication per ``(action_id, header, payload)``.

        Sequence numbers stay consecutive per subscription exactly as
        repeated :meth:`emit` calls would produce; the burst reaches
        the transport as one coalesced write.
        """
        if self._sink is None:
            raise RuntimeError(f"RAN function {self.name} not bound to an agent")
        if not entries:
            return
        key = handle.key()
        sequence = self._sequences.get(key, 0)
        indications = []
        for action_id, header, payload in entries:
            indications.append(
                RicIndication(
                    request=handle.request,
                    ran_function_id=self.ran_function_id,
                    action_id=action_id,
                    sequence=sequence,
                    kind=kind,
                    header=header,
                    payload=payload,
                )
            )
            sequence += 1
        self._sequences[key] = sequence
        if len(indications) == 1:
            self._sink.send_indication(handle.origin, indications[0])
        else:
            self._sink.send_indications(handle.origin, indications)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.ran_function_id}, name={self.name!r})"
