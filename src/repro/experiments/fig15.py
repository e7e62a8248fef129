"""Fig. 15: recursive slicing over shared vs dedicated infrastructure
(§6.2).

Two operators (A and B), two UEs each, all with full-buffer downlink
except where the schedule idles them:

* **Dedicated** (Fig. 15a): two separate eNBs of 25 RBs (5 MHz), one
  per operator, each driven by its own slicing controller.
* **Shared** (Fig. 15b): one eNB of 50 RBs (10 MHz); the
  virtualization controller connects the *same* slicing controllers to
  the shared infrastructure, each holding a 50 % SLA.

Script (as in the paper): around t=8 s and t=11 s operator A creates
two sub-slices (66 % / 33 %) inside its virtual network and associates
its UEs; operator B never reconfigures.  UE 3 (op B) stops its traffic
mid-run, then UE 4 as well.  Shapes:

* A's re-slicing has **no impact** on operator B (isolation);
* when one of B's UEs idles, the other B UE takes over B's share;
* when B is fully idle, in the shared case A's sub-slices reclaim the
  whole cell (multiplexing gain up to 100 %) — in the dedicated case
  eNB B's resources are simply wasted.

Note the controllers run unchanged over a 4G cell here, demonstrating
the multi-RAT reach of the SC SM abstraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.controllers.slicing import SlicingControllerIApp
from repro.controllers.virtualization import TenantConfig, VirtualizationController
from repro.core.simclock import SimClock
from repro.core.server.server import Server, ServerConfig
from repro.core.transport.inproc import InProcTransport
from repro.ran.base_station import BaseStation, BaseStationConfig, attach_agent
from repro.ran.phy import LTE_CELL_5MHZ, LTE_CELL_10MHZ
from repro.sm.slice_ctrl import ALGO_NVS, KIND_CAPACITY, SliceConfig
from repro.traffic.flows import FiveTuple
from repro.traffic.iperf import FullBufferFlow, OnOffFlow

#: Traffic schedule: UE -> list of (start, stop) active intervals.
SCHEDULE = {
    1: [(0.0, 50.0)],
    2: [(0.0, 50.0)],
    3: [(0.0, 20.0), (42.0, 50.0)],   # op B's first UE idles mid-run
    4: [(0.0, 32.0), (42.0, 50.0)],   # then op B is fully idle 32-42 s
}
#: When operator A reconfigures its virtual network.
A_SLICE1_AT = 8.0
A_SLICE2_AT = 11.0


@dataclass
class UeSeries:
    rnti: int
    operator: str
    times_s: List[float] = field(default_factory=list)
    mbps: List[float] = field(default_factory=list)

    def mean_between(self, start: float, stop: float) -> float:
        values = [m for t, m in zip(self.times_s, self.mbps) if start <= t <= stop]
        return sum(values) / len(values) if values else 0.0


def _attach_scheduled_flow(clock: SimClock, bs: BaseStation, rnti: int) -> None:
    inner = FullBufferFlow(
        clock=clock,
        sink=lambda p, r=rnti: bs.deliver_downlink(r, p),
        backlog_probe=lambda r=rnti: bs.rlc_of(r).backlog_bytes,
        flow=FiveTuple("10.0.0.9", f"10.0.2.{rnti}", 5202, 5202, "udp"),
    )
    OnOffFlow(clock, inner, SCHEDULE[rnti]).arm()


def _sample_loop(
    clock: SimClock,
    stations: Dict[int, BaseStation],
    series: Dict[int, UeSeries],
    duration_s: float,
    sample_s: float,
) -> None:
    while clock.now < duration_s:
        before = {
            rnti: stations[rnti].mac.ues[rnti].total_bytes_dl for rnti in series
        }
        clock.run_until(clock.now + sample_s)
        for rnti, ue_series in series.items():
            delta = stations[rnti].mac.ues[rnti].total_bytes_dl - before[rnti]
            ue_series.times_s.append(clock.now)
            ue_series.mbps.append(delta * 8.0 / sample_s / 1e6)


def _schedule_operator_a(clock: SimClock, iapp: SlicingControllerIApp, conn_id_fn) -> None:
    """Operator A's xApp actions, on the paper's timeline."""

    def add_slice1() -> None:
        conn = conn_id_fn()
        iapp.set_algorithm(conn, ALGO_NVS)
        iapp.add_slice(
            conn, SliceConfig(slice_id=1, kind=KIND_CAPACITY, cap=0.66, label="A1")
        )
        iapp.associate_ue(conn, 1, 1)

    def add_slice2() -> None:
        conn = conn_id_fn()
        iapp.add_slice(
            conn, SliceConfig(slice_id=2, kind=KIND_CAPACITY, cap=0.33, label="A2")
        )
        iapp.associate_ue(conn, 2, 2)

    clock.call_at(A_SLICE1_AT, add_slice1)
    clock.call_at(A_SLICE2_AT, add_slice2)


def run_dedicated(duration_s: float = 50.0, sample_s: float = 1.0) -> Dict[int, UeSeries]:
    """Fig. 15a: two dedicated 25-RB eNBs, one per operator."""
    clock = SimClock()
    transport = InProcTransport()
    stations: Dict[int, BaseStation] = {}
    series: Dict[int, UeSeries] = {}

    iapps: Dict[str, SlicingControllerIApp] = {}
    conn_ids: Dict[str, int] = {}
    for operator, (nb_id, rntis) in {"A": (1, (1, 2)), "B": (2, (3, 4))}.items():
        bs = BaseStation(
            BaseStationConfig(plmn="00101", nb_id=nb_id, phy=LTE_CELL_5MHZ), clock
        )
        server = Server(ServerConfig(e2ap_codec="fb"))
        server.listen(transport, f"ric-{operator}")
        iapp = SlicingControllerIApp(sm_codec="fb")
        server.add_iapp(iapp)
        agent = attach_agent(bs, transport, e2ap_codec="fb", sm_codec="fb")
        agent.connect(f"ric-{operator}")
        conn_ids[operator] = server.agents()[0].conn_id
        iapps[operator] = iapp
        for rnti in rntis:
            bs.attach_ue(rnti, fixed_mcs=28)
            stations[rnti] = bs
            series[rnti] = UeSeries(rnti=rnti, operator=operator)
            _attach_scheduled_flow(clock, bs, rnti)
        bs.start()

    _schedule_operator_a(clock, iapps["A"], lambda: conn_ids["A"])
    _sample_loop(clock, stations, series, duration_s, sample_s)
    return series


def run_shared(duration_s: float = 50.0, sample_s: float = 1.0) -> Dict[int, UeSeries]:
    """Fig. 15b: one shared 50-RB eNB behind the virtualization layer."""
    clock = SimClock()
    transport = InProcTransport()

    # Tenant controllers (unchanged slicing controllers, §6.1.2).
    iapps: Dict[str, SlicingControllerIApp] = {}
    servers: Dict[str, Server] = {}
    for operator in ("A", "B"):
        server = Server(ServerConfig(e2ap_codec="fb"))
        server.listen(transport, f"tenant-{operator}")
        iapp = SlicingControllerIApp(sm_codec="fb")
        server.add_iapp(iapp)
        servers[operator] = server
        iapps[operator] = iapp

    virt = VirtualizationController(
        transport,
        "virt-south",
        tenants=[
            TenantConfig(name="A", share=0.5, subscribers={1, 2}),
            TenantConfig(name="B", share=0.5, subscribers={3, 4}),
        ],
        e2ap_codec="fb",
        sm_codec="fb",
    )

    bs = BaseStation(
        BaseStationConfig(plmn="00101", nb_id=1, phy=LTE_CELL_10MHZ), clock
    )
    agent = attach_agent(bs, transport, e2ap_codec="fb", sm_codec="fb")
    agent.connect("virt-south")

    # Recursion: the virtualization layer attaches northbound to the
    # tenant controllers through the agent library.
    virt.connect_tenant("A", "tenant-A")
    virt.connect_tenant("B", "tenant-B")

    stations: Dict[int, BaseStation] = {}
    series: Dict[int, UeSeries] = {}
    for rnti, operator in ((1, "A"), (2, "A"), (3, "B"), (4, "B")):
        bs.attach_ue(rnti, fixed_mcs=28)
        stations[rnti] = bs
        series[rnti] = UeSeries(rnti=rnti, operator=operator)
        _attach_scheduled_flow(clock, bs, rnti)
    bs.start()

    def tenant_conn(operator: str):
        agents = servers[operator].agents()
        if not agents:
            raise RuntimeError(f"tenant {operator} has no virtual agent")
        return agents[0].conn_id

    _schedule_operator_a(clock, iapps["A"], lambda: tenant_conn("A"))
    _sample_loop(clock, stations, series, duration_s, sample_s)
    return series


def isolation_check(series: Dict[int, UeSeries]) -> float:
    """Operator B's total before vs after A's re-slicing (expect ~1)."""
    before = series[3].mean_between(3, 7) + series[4].mean_between(3, 7)
    after = series[3].mean_between(13, 19) + series[4].mean_between(13, 19)
    return after / before if before else 0.0


def multiplexing_gain(shared: Dict[int, UeSeries]) -> float:
    """A's total while B is fully idle vs while B is busy (shared)."""
    busy = shared[1].mean_between(13, 19) + shared[2].mean_between(13, 19)
    idle = shared[1].mean_between(34, 41) + shared[2].mean_between(34, 41)
    return idle / busy if busy else 0.0


def main() -> None:
    print("=== Fig. 15a: dedicated infrastructures (2 x 25 RB) ===")
    dedicated = run_dedicated()
    _report(dedicated)
    print("=== Fig. 15b: shared infrastructure (1 x 50 RB, virtualized) ===")
    shared = run_shared()
    _report(shared)
    print(f"  isolation (B unchanged by A's re-slicing): {isolation_check(shared):.2f}")
    print(f"  multiplexing gain for A while B idle: {multiplexing_gain(shared):.2f}x")


def _report(series: Dict[int, UeSeries]) -> None:
    windows = [("t=3-7s", 3, 7), ("t=13-19s", 13, 19), ("t=22-30s", 22, 30), ("t=34-41s", 34, 41)]
    for rnti, ue_series in sorted(series.items()):
        row = "  ".join(
            f"{label}={ue_series.mean_between(a, b):5.1f}" for label, a, b in windows
        )
        print(f"  UE{rnti} (op {ue_series.operator}): {row}  Mbps")


if __name__ == "__main__":
    main()
