"""Assembled O-RAN near-RT RIC.

Bundles the E2 termination, the RMR router, the subscription manager
hop, the shared data layer, and the 15 platform components into one
deployable object with aggregate CPU and memory accounting (the
quantities ``docker stats`` reports in Fig. 9b).
"""

from __future__ import annotations

from typing import Dict, List

from repro.baselines.oran import rmr
from repro.baselines.oran.e2term import E2Termination
from repro.baselines.oran.platform import (
    PLATFORM_COMPONENTS,
    platform_baseline_ram_mb,
    platform_image_total_mb,
)
from repro.baselines.oran.rmr import RmrEndpoint, RmrMessage, RmrRouter
from repro.baselines.oran.xapp import OranXapp
from repro.core.transport.base import Transport
from repro.metrics.cpu import CpuMeter
from repro.metrics.memory import MemoryMeter


class _SubscriptionManager:
    """The submgr platform component: one more hop on the sub path.

    xApp subscription requests pass through here (bookkeeping + route
    to the E2 termination), mirroring the O-RAN subscription flow.
    """

    def __init__(self, router: RmrRouter) -> None:
        self.cpu = CpuMeter("oran-submgr")
        self.router = router
        self.subscriptions: Dict[str, dict] = {}
        self.endpoint = RmrEndpoint("submgr", self._on_rmr, cpu=self.cpu)
        router.register(self.endpoint)

    def _on_rmr(self, message: RmrMessage) -> None:
        with self.cpu.measure():
            key = f"{message.meid}:{len(self.subscriptions)}"
            self.subscriptions[key] = {"meid": message.meid, "bytes": len(message.payload)}
        # Forward towards the RAN through the E2 termination.
        self.router.send(
            self.cpu,
            RmrMessage(msg_type=_SUBMGR_TO_E2TERM, meid=message.meid, payload=message.payload),
        )


#: Internal route: submgr-forwarded subscription towards e2term.
_SUBMGR_TO_E2TERM = 12019


class OranRic:
    """The full near-RT RIC deployment model."""

    def __init__(self, e2ap_codec: str = "asn") -> None:
        self.router = RmrRouter()
        self.dbaas_store: Dict[str, object] = {}
        self.e2term = E2Termination(self.router, self.dbaas_store, e2ap_codec=e2ap_codec)
        self.submgr = _SubscriptionManager(self.router)
        self.xapps: List[OranXapp] = []
        self.memory = MemoryMeter(
            "oran-ric",
            baseline_bytes=int(platform_baseline_ram_mb() * 1024 * 1024),
        )
        self.memory.track("dbaas", lambda: self.dbaas_store)
        self.memory.track("submgr", lambda: self.submgr.subscriptions)
        # Subscription path: xApp -> submgr -> e2term (two RMR hops).
        self.router.add_route(rmr.RIC_SUB_REQ, "submgr")
        self.router.add_route(_SUBMGR_TO_E2TERM, "e2term")
        self.router.add_route(rmr.RIC_CONTROL_REQ, "e2term")

    def listen(self, transport: Transport, address: str) -> None:
        self.e2term.listen(transport, address)

    def deploy_xapp(self, xapp: OranXapp) -> None:
        """Attach an xApp and point RAN-originated routes at it.

        The default route table sends indications and responses to the
        most recently deployed xApp (single-tenant experiments).
        """
        self.xapps.append(xapp)
        self.memory.track(f"xapp-{xapp.name}", lambda x=xapp: getattr(x, "reports", {}))
        self.router.add_route(rmr.RIC_INDICATION, xapp.endpoint.name)
        self.router.add_route(rmr.RIC_SUB_RESP, xapp.endpoint.name)
        self.router.add_route(rmr.RIC_CONTROL_ACK, xapp.endpoint.name)

    # -- accounting ------------------------------------------------------------

    def total_cpu_busy_s(self) -> float:
        """CPU summed over platform components and xApps (Fig. 9b)."""
        meters = [self.e2term.cpu, self.submgr.cpu] + [xapp.cpu for xapp in self.xapps]
        return sum(meter.busy_s for meter in meters)

    def xapp_cpu_busy_s(self) -> float:
        return sum(xapp.cpu.busy_s for xapp in self.xapps)

    def platform_cpu_busy_s(self) -> float:
        return self.e2term.cpu.busy_s + self.submgr.cpu.busy_s

    def memory_mb(self) -> float:
        return self.memory.measure_mb()

    @staticmethod
    def image_sizes_mb() -> Dict[str, int]:
        """Docker image model for Table 2."""
        return {component.name: component.image_mb for component in PLATFORM_COMPONENTS}

    @staticmethod
    def platform_image_total_mb() -> int:
        return platform_image_total_mb()
