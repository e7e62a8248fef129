"""Shared service-model machinery.

* :class:`SmInfo` — SM identity (name, OID, default RAN function id).
* :func:`encode_payload` / :func:`decode_payload` — the inner encoding
  of E2's double encoding; the codec is chosen per SM instance.
* :class:`PeriodicTrigger` — the common periodic event trigger used by
  all statistics SMs.
* :class:`PeriodicReportFunction` — generic agent-side RAN function for
  periodic statistics reporting, parameterized by a data provider; the
  concrete MAC/RLC/PDCP stats SMs are thin instantiations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.agent.ran_function import (
    DECODE_ERRORS,
    ControlOutcome,
    RanFunction,
    SubscriptionHandle,
    count_contained_decode,
)
from repro.core.codec import codegen as _codegen
from repro.core.codec.base import get_codec, materialize
from repro.core.codec.schema import F64, Schema, register_payload_schema
from repro.core.e2ap.ies import (
    RicActionAdmitted,
    RicActionDefinition,
    RicActionNotAdmitted,
    RicActionKind,
)
from repro.core.e2ap.procedures import Cause
from repro.core.simclock import PeriodicTask, SimClock


@dataclass(frozen=True)
class SmInfo:
    """Identity of a service model."""

    name: str
    oid: str
    default_function_id: int
    version: int = 1
    #: Name of the payload schema this SM's module registers for its
    #: report payloads (:func:`~repro.core.codec.schema.register_payload_schema`);
    #: lets the periodic reporter use the generated codec kernel for
    #: its hot encode.
    payload_schema: Optional[str] = None


def encode_payload(value: Any, codec_name: str, schema: Optional[str] = None) -> bytes:
    """Encode an SM payload tree with the SM's codec (inner encoding).

    ``schema`` names a registered payload schema; when given and a
    generated kernel exists for (codec, schema), the kernel encodes the
    tree directly (falling back to the interpretive walker on any shape
    mismatch, so callers may pass a best-guess schema).
    """
    if schema is not None and _codegen.ENABLED:
        out = _codegen.payload_encode(codec_name, schema, value)
        if out is not None:
            return out
    return get_codec(codec_name).encode(value)


def decode_payload(data: bytes, codec_name: str, schema: Optional[str] = None) -> Any:
    """Decode an SM payload; lazy codecs return lazy views.

    With ``schema`` the generated kernel is tried first and returns a
    plain materialized tree; a wire/schema mismatch falls back to the
    interpretive decoder, so the schema is a hint, not a contract.
    """
    if schema is not None and _codegen.ENABLED:
        out = _codegen.payload_decode(codec_name, schema, data)
        if out is not None:
            return out
    return get_codec(codec_name).decode(data)


register_payload_schema(Schema("periodic_trigger", [("period_ms", F64())]))


@dataclass(frozen=True)
class PeriodicTrigger:
    """Report every ``period_ms`` milliseconds (E2SM-KPM style)."""

    period_ms: float

    def to_bytes(self, codec_name: str) -> bytes:
        return encode_payload(
            {"period_ms": self.period_ms}, codec_name, schema="periodic_trigger"
        )

    @classmethod
    def from_bytes(cls, data: bytes, codec_name: str) -> "PeriodicTrigger":
        tree = decode_payload(data, codec_name, schema="periodic_trigger")
        return cls(period_ms=tree["period_ms"])


#: Provider signature: receives the set of UEs visible to the
#: subscribing controller (None = no restriction) and returns the
#: report payload as a value tree.
StatsProvider = Callable[[Optional[Set[int]]], Any]

#: Visibility resolver: controller origin -> visible UE ids, or None
#: for "all" (single-controller deployments).
VisibilityFn = Callable[[int], Optional[Set[int]]]


class PeriodicReportFunction(RanFunction):
    """Generic periodic-statistics RAN function.

    On subscription it decodes a :class:`PeriodicTrigger` and starts a
    periodic task on the node's simulation clock (when one is given);
    deployments driven by wall-clock experiments call :meth:`pump`
    instead to emit one report per active subscription.
    """

    def __init__(
        self,
        info: SmInfo,
        provider: StatsProvider,
        sm_codec: str = "fb",
        clock: Optional[SimClock] = None,
        visibility: Optional[VisibilityFn] = None,
        ran_function_id: Optional[int] = None,
    ) -> None:
        super().__init__(
            ran_function_id=info.default_function_id if ran_function_id is None else ran_function_id,
            name=info.name,
            oid=info.oid,
            revision=info.version,
        )
        self.info = info
        self.provider = provider
        self.sm_codec = sm_codec
        self.clock = clock
        self.visibility = visibility or (lambda origin: None)
        self._tasks: Dict[Tuple, PeriodicTask] = {}
        self._report_actions: Dict[Tuple, List[int]] = {}

    # -- subscription lifecycle ---------------------------------------

    def on_subscription(
        self,
        handle: SubscriptionHandle,
        event_trigger: bytes,
        actions: List[RicActionDefinition],
    ) -> Tuple[List[RicActionAdmitted], List[RicActionNotAdmitted]]:
        admitted: List[RicActionAdmitted] = []
        rejected: List[RicActionNotAdmitted] = []
        report_ids: List[int] = []
        for action in actions:
            if action.kind == RicActionKind.REPORT:
                admitted.append(RicActionAdmitted(action.action_id))
                report_ids.append(action.action_id)
            else:
                rejected.append(
                    RicActionNotAdmitted(
                        action_id=action.action_id,
                        cause_kind=0,
                        cause_value=Cause.ACTION_NOT_SUPPORTED,
                    )
                )
        if not report_ids:
            return admitted, rejected

        try:
            trigger = PeriodicTrigger.from_bytes(event_trigger, self.sm_codec)
        except DECODE_ERRORS:
            count_contained_decode()
            return [], [
                RicActionNotAdmitted(
                    action_id=action.action_id,
                    cause_kind=0,
                    cause_value=Cause.CONTROL_MESSAGE_INVALID,
                )
                for action in actions
            ]

        key = handle.key()
        self.subscriptions[key] = handle
        self._report_actions[key] = report_ids
        # Re-subscription (journal replay after reconnect, or the
        # server's resync) replaces the previous registration: stop a
        # still-armed task so the stream never doubles up.
        previous = self._tasks.pop(key, None)
        if previous is not None:
            previous.stop()
        if self.clock is not None:
            period_s = trigger.period_ms / 1000.0
            self._tasks[key] = self.clock.call_every(
                period_s, lambda: self._report(handle)
            )
        return admitted, rejected

    def on_subscription_delete(self, handle: SubscriptionHandle) -> bool:
        key = handle.key()
        task = self._tasks.pop(key, None)
        if task is not None:
            task.stop()
        self._report_actions.pop(key, None)
        return super().on_subscription_delete(handle)

    # -- emission -------------------------------------------------------

    def _report(self, handle: SubscriptionHandle) -> None:
        visible = self.visibility(handle.origin)
        payload_tree = self.provider(visible)
        payload = encode_payload(
            payload_tree, self.sm_codec, schema=self.info.payload_schema
        )
        # One coalesced transport write per tick, however many report
        # actions the subscription admitted.
        self.emit_many(
            handle,
            [
                (action_id, b"", payload)
                for action_id in self._report_actions.get(handle.key(), ())
            ],
        )

    def pump(self) -> int:
        """Emit one report for every active subscription.

        Wall-clock experiments (dummy agents of Fig. 8b/9b) call this
        at their own cadence instead of using a simulation clock.
        Returns the number of indications sent.
        """
        count = 0
        for handle in list(self.subscriptions.values()):
            self._report(handle)
            count += 1
        return count

    @property
    def active_subscriptions(self) -> int:
        return len(self.subscriptions)


def materialize_payload(payload: Any) -> Any:
    """Normalize a possibly-lazy SM payload into plain dict/list."""
    return materialize(payload)
