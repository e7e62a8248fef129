"""PDCP statistics service model.

Per-bearer PDCP packet and byte counters — together with the RLC and
MAC SMs this covers "approximately the same data" FlexRAN's built-in
statistics export (§5.1).

Payload schema: ``{"bearers": [{"rnti", "bearer_id", "tx_pkts",
"tx_bytes", "rx_pkts", "rx_bytes"}], "tstamp_ms"}``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.core.codec.schema import F64, Nested, Schema, Seq, register_payload_schema, wire
from repro.sm.base import PeriodicReportFunction, SmInfo, StatsProvider, VisibilityFn

INFO = SmInfo(
    name="PDCP_STATS",
    oid="1.3.6.1.4.1.53148.1.1.2.144",
    default_function_id=144,
    payload_schema="pdcp_stats_report",
)


@wire()
@dataclass
class PdcpBearerStats:
    """One bearer's PDCP counters."""

    rnti: int
    bearer_id: int
    tx_pkts: int = 0
    tx_bytes: int = 0
    rx_pkts: int = 0
    rx_bytes: int = 0


register_payload_schema(
    Schema(
        "pdcp_stats_report",
        [("bearers", Seq(Nested(PdcpBearerStats.wire_schema))), ("tstamp_ms", F64())],
    )
)


def report_to_value(bearers: List[PdcpBearerStats], tstamp_ms: float) -> dict:
    return {"bearers": [b.to_value() for b in bearers], "tstamp_ms": tstamp_ms}


def report_from_value(value: Any) -> tuple:
    bearers = [PdcpBearerStats.from_value(item) for item in value["bearers"]]
    return bearers, value["tstamp_ms"]


class PdcpStatsFunction(PeriodicReportFunction):
    """Agent-side PDCP statistics RAN function."""

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
