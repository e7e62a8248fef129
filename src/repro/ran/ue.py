"""UE context held by a base station."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple


@dataclass
class UeContext:
    """State of one attached UE.

    ``fixed_mcs`` pins the modulation-and-coding scheme as the paper's
    experiments do ("the modulation-and-coding scheme is fixed to 20
    for all UEs", §6.1.2); when None, link adaptation maps CQI to MCS.
    """

    rnti: int
    plmn: str = "00101"
    snssai: int = 1
    slice_id: int = 0
    fixed_mcs: int | None = None
    cqi: int = 12
    bearers: List[int] = field(default_factory=lambda: [1])

    # Rolling per-period MAC accounting, harvested by the stats SM.
    prbs_dl: int = 0
    prbs_ul: int = 0
    bytes_dl: int = 0
    bytes_ul: int = 0
    # Lifetime totals, for throughput series (Fig. 13/15).
    total_bytes_dl: int = 0

    def harvest_period_counters(self) -> Tuple[int, int, int, int]:
        """Return and reset the per-reporting-period counters:
        ``(prbs_dl, prbs_ul, bytes_dl, bytes_ul)``, the MAC stats wire
        order."""
        out = (self.prbs_dl, self.prbs_ul, self.bytes_dl, self.bytes_ul)
        self.prbs_dl = 0
        self.prbs_ul = 0
        self.bytes_dl = 0
        self.bytes_ul = 0
        return out
