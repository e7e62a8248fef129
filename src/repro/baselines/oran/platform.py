"""O-RAN RIC platform component inventory.

The Cherry release deploys the near-RT RIC as 15 containerized platform
components orchestrated by Kubernetes (§2, §5.4).  Image sizes model
Table 2's 2469 MB platform total; baseline RAM models the ~1 GB
``docker stats`` reading of Fig. 9b (components are "partially written
in higher-level languages, such as Go", each carrying a runtime).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class PlatformComponent:
    """One platform micro-service (container) of the near-RT RIC."""

    name: str
    role: str
    image_mb: int
    baseline_ram_mb: float


#: The 15 platform components of a default Cherry deployment.
PLATFORM_COMPONENTS: Tuple[PlatformComponent, ...] = (
    PlatformComponent("e2term", "E2AP termination towards E2 nodes", 330, 110.0),
    PlatformComponent("e2mgr", "E2 node lifecycle management", 240, 90.0),
    PlatformComponent("submgr", "subscription merging/management", 180, 75.0),
    PlatformComponent("rtmgr", "RMR routing table manager", 150, 60.0),
    PlatformComponent("appmgr", "xApp deployment/management", 160, 70.0),
    PlatformComponent("dbaas", "Redis-backed shared data layer", 105, 95.0),
    PlatformComponent("a1mediator", "A1 policy mediation", 170, 65.0),
    PlatformComponent("o1mediator", "O1 management mediation", 165, 60.0),
    PlatformComponent("alarmmanager", "alarm collection/propagation", 130, 55.0),
    PlatformComponent("vespamgr", "VES event streaming", 120, 50.0),
    PlatformComponent("jaegeradapter", "distributed tracing", 115, 70.0),
    PlatformComponent("prometheus", "metrics collection", 190, 85.0),
    PlatformComponent("influxdb", "time-series storage", 185, 80.0),
    PlatformComponent("kong", "API gateway/ingress", 140, 45.0),
    PlatformComponent("chartmuseum", "helm chart repository", 89, 14.0),
)


def platform_image_total_mb() -> int:
    """Total image footprint of the platform (Table 2: 2469 MB)."""
    return sum(component.image_mb for component in PLATFORM_COMPONENTS)


def platform_baseline_ram_mb() -> float:
    """RAM the platform holds before any workload exists."""
    return sum(component.baseline_ram_mb for component in PLATFORM_COMPONENTS)
