"""RLC statistics service model.

Reports per-bearer RLC buffer state — the quantity the traffic-control
xApp of §6.1.1 watches to detect bufferbloat: occupancy in bytes and
packets, the sojourn time of the head-of-line packet, and PDU/SDU
counters.

Payload schema: ``{"bearers": [{"rnti", "bearer_id", "buffer_bytes",
"buffer_pkts", "sojourn_ms", "tx_pdus", "tx_bytes", "rx_pdus",
"rx_bytes", "dropped"}], "tstamp_ms"}``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.core.codec.schema import F64, Nested, Schema, Seq, register_payload_schema, wire
from repro.sm.base import PeriodicReportFunction, SmInfo, StatsProvider, VisibilityFn

INFO = SmInfo(
    name="RLC_STATS",
    oid="1.3.6.1.4.1.53148.1.1.2.143",
    default_function_id=143,
    payload_schema="rlc_stats_report",
)


@wire()
@dataclass
class RlcBearerStats:
    """One data radio bearer's RLC counters."""

    rnti: int
    bearer_id: int
    buffer_bytes: int = 0
    buffer_pkts: int = 0
    sojourn_ms: float = 0.0
    tx_pdus: int = 0
    tx_bytes: int = 0
    rx_pdus: int = 0
    rx_bytes: int = 0
    dropped: int = 0


register_payload_schema(
    Schema(
        "rlc_stats_report",
        [("bearers", Seq(Nested(RlcBearerStats.wire_schema))), ("tstamp_ms", F64())],
    )
)


def report_to_value(bearers: List[RlcBearerStats], tstamp_ms: float) -> dict:
    return {"bearers": [b.to_value() for b in bearers], "tstamp_ms": tstamp_ms}


def report_from_value(value: Any) -> tuple:
    bearers = [RlcBearerStats.from_value(item) for item in value["bearers"]]
    return bearers, value["tstamp_ms"]


class RlcStatsFunction(PeriodicReportFunction):
    """Agent-side RLC statistics RAN function."""

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
