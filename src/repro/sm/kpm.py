"""E2SM-KPM: performance metrics service model (Appendix A.4).

One of the two SMs standardized by O-RAN at the time of the paper
(ORAN-WG3.E2SM-KPM-v01.00.00): "defines various report types on
periodic timer expires".  This implementation follows that structure:

* a *report style* selects which measurement group is produced
  (per-cell radio metrics, per-UE metrics, or cell load),
* the subscription's action definition names the style and an optional
  measurement filter (a list of metric names),
* reports fire on the standard periodic trigger.

Payload schema per report:
``{"style": int, "cell": {...}, "measurements": [{"name", "value"}],
"granularity_ms": float, "tstamp_ms": float}``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.agent.ran_function import RanFunction, SubscriptionHandle
from repro.core.codec.schema import (
    F64,
    Int,
    Nested,
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
from repro.core.e2ap.procedures import Cause
from repro.sm.base import (
    DECODE_ERRORS,
    PeriodicTrigger,
    SmInfo,
    count_contained_decode,
    decode_payload,
    encode_payload,
)

INFO = SmInfo(
    name="KPM",
    oid="1.3.6.1.4.1.53148.1.1.2.2",
    default_function_id=2,
    payload_schema="kpm_report",
)

#: Report styles, mirroring E2SM-KPM's style list.
STYLE_CELL_METRICS = 1   # DRB.UEThpDl, RRU.PrbTotDl, ...
STYLE_UE_METRICS = 2     # per-UE throughput/PRB usage
STYLE_CELL_LOAD = 3      # connected UEs, PRB utilization

#: Metric names per style (subset of 3GPP TS 28.552 counters).
STYLE_METRICS: Dict[int, Tuple[str, ...]] = {
    STYLE_CELL_METRICS: ("DRB.UEThpDl", "RRU.PrbTotDl", "DRB.PdcpSduVolumeDL"),
    STYLE_UE_METRICS: ("DRB.UEThpDl.UE", "RRU.PrbUsedDl.UE"),
    STYLE_CELL_LOAD: ("RRC.ConnMean", "RRU.PrbUtilDl"),
}


register_payload_schema(
    Schema("kpm_action", [("style", Int()), ("metrics", Seq(Str()))])
)


def build_action_definition(style: int, metrics: Optional[List[str]], codec_name: str) -> bytes:
    """Controller side: SM-encode the action definition."""
    if style not in STYLE_METRICS:
        raise ValueError(f"unknown KPM report style {style}")
    return encode_payload(
        {"style": style, "metrics": list(metrics or ())},
        codec_name,
        schema="kpm_action",
    )


def parse_action_definition(data: bytes, codec_name: str) -> Tuple[int, List[str]]:
    """Decode an action definition; empty bytes mean the default style
    (cell metrics, all counters) so generic subscribers need no KPM
    knowledge."""
    if not data:
        return STYLE_CELL_METRICS, []
    tree = decode_payload(data, codec_name, schema="kpm_action")
    return tree["style"], list(tree["metrics"])


@wire()
@dataclass(frozen=True)
class KpmMeasurement:
    """One metric sample inside a report."""

    name: str
    value: float


register_payload_schema(
    Schema(
        "kpm_report",
        [
            ("style", Int()),
            ("measurements", Seq(Nested(KpmMeasurement.wire_schema))),
            ("granularity_ms", F64()),
            ("tstamp_ms", F64()),
        ],
    )
)


def report_to_value(
    style: int, measurements: List[KpmMeasurement], granularity_ms: float, tstamp_ms: float
) -> dict:
    return {
        "style": style,
        "measurements": [m.to_value() for m in measurements],
        "granularity_ms": granularity_ms,
        "tstamp_ms": tstamp_ms,
    }


def report_from_value(value: Any) -> Tuple[int, List[KpmMeasurement], float]:
    return (
        value["style"],
        [KpmMeasurement.from_value(item) for item in value["measurements"]],
        value["tstamp_ms"],
    )


#: Metric provider: (style, wanted names, visible UEs) -> measurements.
KpmProvider = Callable[[int, List[str], Optional[Set[int]]], List[KpmMeasurement]]


class KpmFunction(RanFunction):
    """Agent-side E2SM-KPM with per-subscription report styles."""

    def __init__(
        self,
        provider: KpmProvider,
        sm_codec: str = "fb",
        clock=None,
        visibility=None,
        ran_function_id: Optional[int] = None,
    ) -> None:
        super().__init__(
            ran_function_id=INFO.default_function_id if ran_function_id is None else ran_function_id,
            name=INFO.name,
            oid=INFO.oid,
            revision=INFO.version,
        )
        self.provider = provider
        self.sm_codec = sm_codec
        self.clock = clock
        self.visibility = visibility or (lambda origin: None)
        self._styles: Dict[Tuple, List[Tuple[int, int, List[str]]]] = {}
        self._periods: Dict[Tuple, float] = {}
        self._tasks: Dict[Tuple, object] = {}

    def on_subscription(
        self,
        handle: SubscriptionHandle,
        event_trigger: bytes,
        actions: List[RicActionDefinition],
    ):
        try:
            trigger = PeriodicTrigger.from_bytes(event_trigger, self.sm_codec)
        except DECODE_ERRORS:
            count_contained_decode()
            return [], [
                RicActionNotAdmitted(a.action_id, 0, Cause.CONTROL_MESSAGE_INVALID)
                for a in actions
            ]
        admitted: List[RicActionAdmitted] = []
        rejected: List[RicActionNotAdmitted] = []
        styles: List[Tuple[int, int, List[str]]] = []
        for action in actions:
            if action.kind != RicActionKind.REPORT:
                rejected.append(
                    RicActionNotAdmitted(action.action_id, 0, Cause.ACTION_NOT_SUPPORTED)
                )
                continue
            try:
                style, metrics = parse_action_definition(action.definition, self.sm_codec)
            except DECODE_ERRORS:
                count_contained_decode()
                rejected.append(
                    RicActionNotAdmitted(action.action_id, 0, Cause.CONTROL_MESSAGE_INVALID)
                )
                continue
            if style not in STYLE_METRICS:
                rejected.append(
                    RicActionNotAdmitted(action.action_id, 0, Cause.ACTION_NOT_SUPPORTED)
                )
                continue
            admitted.append(RicActionAdmitted(action.action_id))
            styles.append((action.action_id, style, metrics))
        if not admitted:
            return admitted, rejected
        key = handle.key()
        self.subscriptions[key] = handle
        self._styles[key] = styles
        self._periods[key] = trigger.period_ms
        if self.clock is not None:
            self._tasks[key] = self.clock.call_every(
                trigger.period_ms / 1000.0, lambda: self._report(handle)
            )
        return admitted, rejected

    def on_subscription_delete(self, handle: SubscriptionHandle) -> bool:
        key = handle.key()
        task = self._tasks.pop(key, None)
        if task is not None:
            task.stop()
        self._styles.pop(key, None)
        self._periods.pop(key, None)
        return super().on_subscription_delete(handle)

    def _report(self, handle: SubscriptionHandle) -> None:
        key = handle.key()
        visible = self.visibility(handle.origin)
        period = self._periods.get(key, 0.0)
        for action_id, style, metrics in self._styles.get(key, ()):
            wanted = metrics or list(STYLE_METRICS[style])
            samples = self.provider(style, wanted, visible)
            payload = encode_payload(
                report_to_value(style, samples, period, 0.0),
                self.sm_codec,
                schema="kpm_report",
            )
            self.emit(handle, action_id, header=b"", payload=payload)

    def pump(self) -> int:
        count = 0
        for handle in list(self.subscriptions.values()):
            self._report(handle)
            count += 1
        return count


def base_station_provider(bs) -> KpmProvider:
    """Derive KPM metrics from a simulated base station's state."""

    def provide(style: int, wanted: List[str], visible: Optional[Set[int]]):
        ues = [
            ue for rnti, ue in sorted(bs.mac.ues.items())
            if visible is None or rnti in visible
        ]
        tti_s = bs.config.phy.tti_s
        samples: List[KpmMeasurement] = []
        for name in wanted:
            if name == "DRB.UEThpDl":
                total = sum(ue.total_bytes_dl for ue in ues)
                samples.append(KpmMeasurement(name, total * 8 / 1e6))
            elif name == "RRU.PrbTotDl":
                samples.append(KpmMeasurement(name, float(bs.config.phy.n_prbs)))
            elif name == "DRB.PdcpSduVolumeDL":
                total = sum(entity.tx_bytes for entity in bs.pdcp.values())
                samples.append(KpmMeasurement(name, total / 1000.0))
            elif name == "RRC.ConnMean":
                samples.append(KpmMeasurement(name, float(len(ues))))
            elif name == "RRU.PrbUtilDl":
                ttis = max(bs.mac.ttis_run, 1)
                used = sum(ue.total_bytes_dl for ue in ues)
                capacity = bs.mac.phy.n_prbs * ttis
                samples.append(KpmMeasurement(name, min(1.0, used / max(capacity, 1))))
            elif name.endswith(".UE"):
                for ue in ues:
                    samples.append(
                        KpmMeasurement(f"{name}.{ue.rnti}", float(ue.total_bytes_dl))
                    )
            else:
                samples.append(KpmMeasurement(name, 0.0))
        return samples

    return provide
