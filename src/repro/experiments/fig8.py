"""Fig. 8: scalability of the controller (§5.3).

Fig. 8a — FlexRIC server + statistics iApp versus the FlexRAN
controller, one agent exporting 32-UE MAC(+RLC+PDCP-shaped) statistics
every 1 ms.  Shape: FlexRIC burns roughly an order of magnitude less
CPU (FB lazy dispatch versus Protobuf full decode) and several times
less memory (raw-bytes store versus the RIB's materialized trees and
history).

Fig. 8b — FlexRIC server CPU versus number of dummy test agents (each
emulating 32 UEs with a unique default bearer), with ASN.1 versus FB
E2AP encoding.  Shape: both grow linearly; ASN.1 costs ~4x more CPU
("since FB's design avoids an explicit decoding step, reading directly
from raw bytes").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.baselines.flexran import FlexRanAgent, FlexRanController
from repro.controllers.monitoring import StatsMonitorIApp
from repro.core.agent.agent import Agent, AgentConfig
from repro.core.e2ap.ies import GlobalE2NodeId, NodeKind
from repro.core.server.server import Server, ServerConfig
from repro.core.transport.inproc import InProcTransport
from repro.experiments.common import pin_cost_model
from repro.metrics.cpu import CpuMeter
from repro.sm import mac_stats
from repro.sm.mac_stats import MacStatsFunction, synthetic_provider

#: Normalization target of the paper's controller machine (12 cores).
CONTROLLER_CORES = 12


@dataclass
class ControllerResult:
    """One side of the Fig. 8a comparison."""

    label: str
    cpu_percent: float
    memory_mb: float
    messages: int


def _dummy_agent(
    transport: InProcTransport,
    address: str,
    nb_id: int,
    e2ap_codec: str,
    sm_codec: str,
    n_ues: int = 32,
) -> MacStatsFunction:
    """Dummy test agent (§5.3): no base station, synthetic stats."""
    agent = Agent(
        AgentConfig(
            node_id=GlobalE2NodeId("00101", nb_id, NodeKind.GNB), e2ap_codec=e2ap_codec
        ),
        transport=transport,
    )
    function = MacStatsFunction(provider=synthetic_provider(n_ues), sm_codec=sm_codec)
    agent.register_function(function)
    agent.connect(address)
    return function


@pin_cost_model
def run_flexric_controller(
    reports: int = 1000, period_ms: float = 1.0, n_ues: int = 32
) -> ControllerResult:
    """FlexRIC side of Fig. 8a: server + statistics iApp, FB codecs."""
    transport = InProcTransport()
    cpu = CpuMeter("flexric-controller", cores=CONTROLLER_CORES)
    server = Server(ServerConfig(e2ap_codec="fb"), cpu_meter=cpu)
    server.listen(transport, "ric")
    monitor = StatsMonitorIApp(oids=[mac_stats.INFO.oid], period_ms=period_ms, sm_codec="fb")
    server.add_iapp(monitor)
    function = _dummy_agent(transport, "ric", 1, "fb", "fb", n_ues)
    cpu.reset()
    for _ in range(reports):
        function.pump()
    duration_s = reports * period_ms / 1000.0
    return ControllerResult(
        label="FlexRIC",
        cpu_percent=cpu.sample(duration_s).normalized_percent,
        memory_mb=server.memory.measure_mb(),
        messages=monitor.indications_received,
    )


@pin_cost_model
def run_flexran_controller(
    reports: int = 1000, period_ms: float = 1.0, n_ues: int = 32
) -> ControllerResult:
    """FlexRAN side of Fig. 8a: full decode + RIB + 1 ms poll loop."""
    transport = InProcTransport()
    cpu = CpuMeter("flexran-controller", cores=CONTROLLER_CORES)
    controller = FlexRanController(cpu_meter=cpu)
    controller.listen(transport, "flexran")
    provider = synthetic_provider(n_ues)
    agent = FlexRanAgent(
        agent_id=1,
        transport=transport,
        mac_provider=lambda: provider(None),
        rlc_provider=lambda: {"bearers": [], "tstamp_ms": 0.0},
        pdcp_provider=lambda: {"bearers": [], "tstamp_ms": 0.0},
    )
    agent.connect("flexran")
    controller.configure_stats(1, 0.0)  # agent pumped manually below
    cpu.reset()
    for _ in range(reports):
        agent.pump()
        controller.poll_once()  # the application polls every period
    duration_s = reports * period_ms / 1000.0
    return ControllerResult(
        label="FlexRAN",
        cpu_percent=cpu.sample(duration_s).normalized_percent,
        memory_mb=controller.memory.measure_mb(),
        messages=controller.rib.reports_stored,
    )


def run_fig8a(reports: int = 1000) -> List[ControllerResult]:
    return [run_flexric_controller(reports), run_flexran_controller(reports)]


@dataclass
class ScalabilityPoint:
    """One point of the Fig. 8b curves."""

    e2ap_codec: str
    n_agents: int
    cpu_percent: float
    signaling_mbps: float


@pin_cost_model
def run_fig8b_point(
    e2ap_codec: str,
    n_agents: int,
    reports: int = 200,
    period_ms: float = 1.0,
    n_ues: int = 32,
) -> ScalabilityPoint:
    transport = InProcTransport()
    cpu = CpuMeter(f"server-{e2ap_codec}", cores=CONTROLLER_CORES)
    server = Server(ServerConfig(e2ap_codec=e2ap_codec), cpu_meter=cpu)
    server.listen(transport, "ric")
    monitor = StatsMonitorIApp(
        oids=[mac_stats.INFO.oid], period_ms=period_ms, sm_codec="fb"
    )
    server.add_iapp(monitor)
    functions = [
        _dummy_agent(transport, "ric", nb_id, e2ap_codec, "fb", n_ues)
        for nb_id in range(1, n_agents + 1)
    ]
    cpu.reset()
    for _ in range(reports):
        for function in functions:
            function.pump()
    duration_s = reports * period_ms / 1000.0
    # Signaling: one indication per agent per period.
    from repro.core.codec.base import get_codec
    from repro.core.e2ap.messages import RicIndication, encode_message
    from repro.core.e2ap.ies import RicRequestId
    from repro.sm.base import encode_payload

    # Only the sample's size enters the paper's signaling model; the
    # report's schema gives the same bytes as the agents' reports.
    payload = encode_payload(synthetic_provider(n_ues)(None), "fb", "mac_stats_report")
    sample = encode_message(
        RicIndication(
            request=RicRequestId(1, 1),
            ran_function_id=142,
            action_id=1,
            sequence=0,
            payload=payload,
        ),
        get_codec(e2ap_codec),
    )
    signaling_mbps = len(sample) * 8.0 * n_agents * (1000.0 / period_ms) / 1e6
    return ScalabilityPoint(
        e2ap_codec=e2ap_codec,
        n_agents=n_agents,
        cpu_percent=cpu.sample(duration_s).normalized_percent,
        signaling_mbps=signaling_mbps,
    )


def run_fig8b(
    agent_counts: Optional[List[int]] = None, reports: int = 200
) -> List[ScalabilityPoint]:
    counts = agent_counts if agent_counts is not None else [2, 6, 10, 14, 18]
    points: List[ScalabilityPoint] = []
    for codec in ("asn", "fb"):
        for count in counts:
            points.append(run_fig8b_point(codec, count, reports=reports))
    return points


def main() -> None:
    print("=== Fig. 8a: controller CPU and memory (1 agent, 32 UEs, 1 ms) ===")
    for result in run_fig8a():
        print(
            f"  {result.label:<8} cpu={result.cpu_percent:6.2f}%  "
            f"mem={result.memory_mb:8.2f} MB  msgs={result.messages}"
        )
    print("=== Fig. 8b: server CPU vs #agents (32 UEs each, 1 ms) ===")
    for point in run_fig8b():
        print(
            f"  {point.e2ap_codec:<4} agents={point.n_agents:>2}  "
            f"cpu={point.cpu_percent:6.2f}%  signaling={point.signaling_mbps:7.1f} Mbps"
        )


if __name__ == "__main__":
    main()
