"""MAC statistics service model (§4.1.1, Fig. 3).

Reports per-UE MAC-layer counters — CQI, MCS, allocated resource
blocks, transported bytes — "excluding HARQ" exactly as the paper's
experiments configure it (§5.1, §5.3).  Payload schema:

``{"ues": [{"rnti", "cqi", "mcs_dl", "mcs_ul", "prbs_dl", "prbs_ul",
"bytes_dl", "bytes_ul", "slice_id"}], "tstamp_ms"}``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Set

from repro.core.codec.base import Rows
from repro.core.codec.schema import F64, Nested, Schema, Seq, register_payload_schema, wire
from repro.sm.base import PeriodicReportFunction, SmInfo, StatsProvider, VisibilityFn

INFO = SmInfo(
    name="MAC_STATS",
    oid="1.3.6.1.4.1.53148.1.1.2.142",
    default_function_id=142,
    payload_schema="mac_stats_report",
)


@wire()
@dataclass
class MacUeStats:
    """One UE's MAC counters over the last reporting period."""

    rnti: int
    cqi: int = 15
    mcs_dl: int = 28
    mcs_ul: int = 28
    prbs_dl: int = 0
    prbs_ul: int = 0
    bytes_dl: int = 0
    bytes_ul: int = 0
    slice_id: int = 0


register_payload_schema(
    Schema(
        "mac_stats_report",
        [("ues", Seq(Nested(MacUeStats.wire_schema))), ("tstamp_ms", F64())],
    )
)


def report_to_value(ues: List[MacUeStats], tstamp_ms: float) -> dict:
    return {"ues": [ue.to_value() for ue in ues], "tstamp_ms": tstamp_ms}


def report_from_value(value: Any) -> tuple:
    """Returns (list of MacUeStats, tstamp_ms)."""
    ues = [MacUeStats.from_value(item) for item in value["ues"]]
    return ues, value["tstamp_ms"]


class MacStatsFunction(PeriodicReportFunction):
    """Agent-side MAC statistics RAN function."""

    def __init__(
        self,
        provider: StatsProvider,
        sm_codec: str = "fb",
        clock=None,
        visibility: Optional[VisibilityFn] = None,
        ran_function_id: Optional[int] = None,
    ) -> None:
        super().__init__(
            info=INFO,
            provider=provider,
            sm_codec=sm_codec,
            clock=clock,
            visibility=visibility,
            ran_function_id=ran_function_id,
        )


def synthetic_provider(num_ues: int, bearer_bytes: int = 12_000) -> StatsProvider:
    """Provider for dummy test agents (§5.3): ``num_ues`` UEs with a
    unique default bearer each, deterministic counter patterns.

    Writes the UEs as :class:`Rows` of ``MacUeStats`` — one flat list,
    a row per UE in wire order, as the base station's providers do —
    so no per-UE object exists on the report path."""
    counters = {"t": 0}
    bytes_ul = bearer_bytes // 4

    def provide(visible: Optional[Set[int]]) -> dict:
        counters["t"] += 1
        tick = counters["t"]
        rntis = range(num_ues) if visible is None else [r for r in range(num_ues) if r in visible]
        values: List[int] = []
        row = values.extend
        for rnti in rntis:
            row((
                rnti,
                7 + (rnti + tick) % 9,
                10 + (rnti + tick) % 18,
                10 + (rnti * 3 + tick) % 18,
                (rnti * 7 + tick) % 106,
                (rnti * 5 + tick) % 106,
                bearer_bytes + rnti * 100 + tick,
                bytes_ul + rnti * 25 + tick,
                0,
            ))
        return {"ues": Rows(MacUeStats, values), "tstamp_ms": float(tick)}

    return provide
