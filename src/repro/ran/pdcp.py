"""PDCP sublayer: per-bearer counters and header handling.

Kept deliberately thin — ciphering and reordering do not affect any
measured quantity — but real in the data path so the PDCP stats SM has
true counters to export and the CU side of a split base station owns
actual state.
"""

from __future__ import annotations

from typing import Callable

from repro.traffic.flows import Packet

#: Bytes PDCP prepends per SDU (18-bit SN format rounded up).
PDCP_HEADER_BYTES = 3


class PdcpEntity:
    """Transmit-side PDCP entity of one bearer.

    ``downstream`` receives the packet after accounting (the RLC
    entity's ``enqueue`` in a monolithic node, the F1 interface towards
    the DU in a CU/DU split).
    """

    def __init__(
        self,
        rnti: int,
        bearer_id: int,
        downstream: Callable[[Packet, float], bool],
    ) -> None:
        self.rnti = rnti
        self.bearer_id = bearer_id
        self._downstream = downstream
        self.tx_pkts = 0
        self.tx_bytes = 0
        self.rx_pkts = 0
        self.rx_bytes = 0
        self.sn = 0

    def submit(self, packet: Packet, now: float) -> bool:
        """Process one SDU downlink; returns downstream acceptance."""
        self.sn += 1
        self.tx_pkts += 1
        self.tx_bytes += packet.size
        return self._downstream(packet, now)

    def uplink_delivered(self, size: int) -> None:
        """Account one uplink SDU (counters only in this model)."""
        self.rx_pkts += 1
        self.rx_bytes += size
