"""Pre-defined E2 service models (§4.1.1, §6).

The SDK ships "a bundle of pre-defined RAN functions that implement a
set of SMs": monitoring (MAC/RLC/PDCP statistics, RRC configuration),
slicing control (SC SM, §6.1.2), traffic control (TC SM, §6.1.1) and
the HelloWorld SM used for the ping experiments (§5.2).

Each module declares every payload it puts on the wire — reports,
action definitions, control headers, command unions and their
acknowledgements — as one :class:`~repro.core.codec.schema.Schema`
literal, and defines the agent-side
:class:`~repro.core.agent.ran_function.RanFunction` implementation and
the controller-side helpers that build triggers and control payloads.
Every SM payload is encoded and decoded under its declaration
(:func:`~repro.sm.base.encode_payload`,
:func:`~repro.sm.base.decode_payload`), so a payload that does not fit
is a :class:`~repro.core.codec.base.CodecError` wherever it is read.
Every SM supports a per-SM codec choice — the inner half of E2's double
encoding (§5.2).
"""

from repro.sm.base import (
    PeriodicReportFunction,
    PeriodicTrigger,
    SmInfo,
    decode_payload,
    encode_payload,
)
from repro.sm import (
    hw,
    kpm,
    mac_stats,
    ni,
    pdcp_stats,
    rlc_stats,
    rrc_conf,
    slice_ctrl,
    traffic_ctrl,
)

#: SM OID → the payload schema its indications are declared by.
REPORT_SCHEMAS = {
    module.INFO.oid: module.INFO.payload_schema
    for module in (
        hw, kpm, mac_stats, ni, pdcp_stats, rlc_stats, rrc_conf, slice_ctrl, traffic_ctrl
    )
}

__all__ = [
    "REPORT_SCHEMAS",
    "PeriodicReportFunction",
    "PeriodicTrigger",
    "SmInfo",
    "decode_payload",
    "encode_payload",
    "hw",
    "kpm",
    "ni",
    "mac_stats",
    "rlc_stats",
    "pdcp_stats",
    "rrc_conf",
    "slice_ctrl",
    "traffic_ctrl",
]
