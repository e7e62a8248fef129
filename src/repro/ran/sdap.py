"""SDAP sublayer: flow-to-bearer mapping and the TC hook point.

Per Fig. 10 the traffic-control SM sits between SDAP and PDCP in the
downlink path.  The entity maps QoS flows onto data radio bearers and
hands each packet to the bearer's ingress — either the PDCP entity
directly (transparent) or a TC pipeline installed by the TC SM.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.traffic.flows import FiveTuple, Packet

#: Ingress signature: (packet, now) -> accepted.
BearerIngress = Callable[[Packet, float], bool]


class SdapEntity:
    """Downlink SDAP entity of one UE."""

    def __init__(self, rnti: int, default_bearer: int = 1) -> None:
        self.rnti = rnti
        self.default_bearer = default_bearer
        self._bearer_ingress: Dict[int, BearerIngress] = {}
        self._flow_to_bearer: Dict[FiveTuple, int] = {}
        self.pkts_in = 0
        self.bytes_in = 0

    def attach_bearer(self, bearer_id: int, ingress: BearerIngress) -> None:
        self._bearer_ingress[bearer_id] = ingress

    def replace_ingress(self, bearer_id: int, ingress: BearerIngress) -> BearerIngress:
        """Swap a bearer's ingress (TC SM installation); returns the
        previous ingress so a pipeline can chain to it."""
        previous = self._bearer_ingress[bearer_id]
        self._bearer_ingress[bearer_id] = ingress
        return previous

    def map_flow(self, flow: FiveTuple, bearer_id: int) -> None:
        """Pin a flow to a bearer (QFI->DRB mapping)."""
        if bearer_id not in self._bearer_ingress:
            raise KeyError(f"unknown bearer {bearer_id} on UE {self.rnti}")
        self._flow_to_bearer[flow] = bearer_id

    def deliver(self, packet: Packet, now: float) -> bool:
        """Entry point from the core network for one downlink packet."""
        self.pkts_in += 1
        self.bytes_in += packet.size
        bearer_id = self._flow_to_bearer.get(packet.flow, self.default_bearer)
        ingress = self._bearer_ingress.get(bearer_id)
        if ingress is None:
            raise KeyError(f"bearer {bearer_id} has no ingress on UE {self.rnti}")
        return ingress(packet, now)

    @property
    def bearers(self) -> list:
        return sorted(self._bearer_ingress)
