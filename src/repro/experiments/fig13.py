"""Fig. 13: RAT-unaware slicing controller (§6.1.2).

Setup: one NR cell (106 RB, MCS 20 fixed), full-buffer downlink so
"the radio resources of the cell are exhausted at all times", a
proportional-fair UE scheduler, and the NVS slice algorithm driven by
the slicing controller through the SC SM.

Fig. 13a — isolation: the objective is 50 % of resources (~30 Mbit/s)
for the "white" UE:
  t1: two UEs, no slicing    -> equal split satisfies it implicitly;
  t2: a third UE connects    -> equal thirds violate it;
  t3: xApp deploys NVS 50/50 and associates white to slice 1 -> restored;
  t4: slice 1 is reconfigured to 66 %                        -> enforced.

Fig. 13b — static attribution vs sharing: two UEs in slices of 66 %
(gray) and 34 % (black); the black slice's traffic toggles off/on.
Without sharing (static slot partition) black's idle slots are wasted;
with NVS, gray reclaims them (+50 % throughput while black is idle).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.controllers.slicing import SlicingControllerIApp
from repro.core.simclock import SimClock
from repro.core.server.server import Server, ServerConfig
from repro.core.transport.inproc import InProcTransport
from repro.ran.base_station import BaseStation, BaseStationConfig, attach_agent
from repro.ran.phy import NR_CELL_20MHZ
from repro.sm.slice_ctrl import ALGO_NVS, ALGO_STATIC, KIND_CAPACITY, SliceConfig
from repro.traffic.iperf import FullBufferFlow, OnOffFlow
from repro.traffic.flows import FiveTuple


@dataclass
class SlicedCell:
    """A base station + slicing controller, ready to script."""

    clock: SimClock
    bs: BaseStation
    iapp: SlicingControllerIApp
    conn_id: int
    flows: Dict[int, FullBufferFlow] = field(default_factory=dict)

    def add_full_buffer_ue(self, rnti: int, mcs: int = 20) -> FullBufferFlow:
        self.bs.attach_ue(rnti, fixed_mcs=mcs)
        flow = FullBufferFlow(
            clock=self.clock,
            sink=lambda p, r=rnti: self.bs.deliver_downlink(r, p),
            backlog_probe=lambda r=rnti: self.bs.rlc_of(r).backlog_bytes,
            flow=FiveTuple("10.0.0.9", f"10.0.1.{rnti}", 5202, 5202, "udp"),
        )
        flow.start()
        self.flows[rnti] = flow
        return flow

    def throughput_mbps(self, rnti: int, window_s: float, bytes_before: int) -> float:
        delta = self.bs.mac.ues[rnti].total_bytes_dl - bytes_before
        return delta * 8.0 / window_s / 1e6


def make_sliced_cell(n_prbs: int = 106, rat: str = "nr") -> SlicedCell:
    clock = SimClock()
    phy = NR_CELL_20MHZ if rat == "nr" else NR_CELL_20MHZ
    from dataclasses import replace

    bs = BaseStation(BaseStationConfig(phy=replace(phy, n_prbs=n_prbs)), clock)
    transport = InProcTransport()
    server = Server(ServerConfig(e2ap_codec="fb"))
    server.listen(transport, "ric")
    iapp = SlicingControllerIApp(sm_codec="fb")
    server.add_iapp(iapp)
    agent = attach_agent(bs, transport, e2ap_codec="fb", sm_codec="fb")
    agent.connect("ric")
    bs.start()
    conn_id = server.agents()[0].conn_id
    return SlicedCell(clock=clock, bs=bs, iapp=iapp, conn_id=conn_id)


@dataclass
class PhaseThroughput:
    """One time instance of Fig. 13a."""

    phase: str
    per_ue_mbps: Dict[int, float]

    @property
    def total_mbps(self) -> float:
        return sum(self.per_ue_mbps.values())


def run_fig13a(phase_s: float = 5.0) -> List[PhaseThroughput]:
    cell = make_sliced_cell()
    phases: List[PhaseThroughput] = []

    def measure(phase: str, rntis: List[int]) -> None:
        before = {r: cell.bs.mac.ues[r].total_bytes_dl for r in rntis}
        cell.clock.run_until(cell.clock.now + phase_s)
        phases.append(
            PhaseThroughput(
                phase=phase,
                per_ue_mbps={
                    r: cell.throughput_mbps(r, phase_s, before[r]) for r in rntis
                },
            )
        )

    # t1: two UEs, no slicing.
    cell.add_full_buffer_ue(1)  # the "white" UE
    cell.add_full_buffer_ue(2)
    measure("t1/None", [1, 2])

    # t2: a third UE connects; still no slicing.
    cell.add_full_buffer_ue(3)
    measure("t2/None", [1, 2, 3])

    # t3: deploy NVS with 50/50 and associate white to slice 1.
    cell.iapp.set_algorithm(cell.conn_id, ALGO_NVS)
    cell.iapp.add_slice(
        cell.conn_id, SliceConfig(slice_id=1, kind=KIND_CAPACITY, cap=0.5, label="white")
    )
    cell.iapp.add_slice(
        cell.conn_id, SliceConfig(slice_id=2, kind=KIND_CAPACITY, cap=0.5, label="rest")
    )
    cell.iapp.associate_ue(cell.conn_id, 1, 1)
    cell.iapp.associate_ue(cell.conn_id, 2, 2)
    cell.iapp.associate_ue(cell.conn_id, 3, 2)
    measure("t3/NVS", [1, 2, 3])

    # t4: 66 % for slice 1.  Admission control requires shrinking the
    # other slice before growing this one (total share <= 1 always).
    cell.iapp.add_slice(
        cell.conn_id, SliceConfig(slice_id=2, kind=KIND_CAPACITY, cap=0.34, label="rest")
    )
    cell.iapp.add_slice(
        cell.conn_id, SliceConfig(slice_id=1, kind=KIND_CAPACITY, cap=0.66, label="white")
    )
    assert cell.iapp.last_control_ok, "slice reconfiguration was refused"
    measure("t4/NVS", [1, 2, 3])
    return phases


@dataclass
class SharingSeries:
    """One Fig. 13b sub-plot: per-slice throughput over time."""

    mode: str
    times_s: List[float]
    gray_mbps: List[float]
    black_mbps: List[float]


def run_fig13b(mode: str, duration_s: float = 60.0, sample_s: float = 1.0) -> SharingSeries:
    """``mode``: "static" (no sharing) or "nvs" (sharing)."""
    if mode not in ("static", "nvs"):
        raise ValueError(f"unknown mode {mode!r}")
    cell = make_sliced_cell()
    gray = cell.add_full_buffer_ue(1)
    cell.bs.attach_ue(2, fixed_mcs=20)
    black_inner = FullBufferFlow(
        clock=cell.clock,
        sink=lambda p: cell.bs.deliver_downlink(2, p),
        backlog_probe=lambda: cell.bs.rlc_of(2).backlog_bytes,
        flow=FiveTuple("10.0.0.9", "10.0.1.2", 5202, 5202, "udp"),
    )
    # Black slice active only in the middle of the run.
    OnOffFlow(cell.clock, black_inner, [(0.0, 15.0), (35.0, duration_s)]).arm()

    cell.iapp.set_algorithm(cell.conn_id, ALGO_NVS if mode == "nvs" else ALGO_STATIC)
    cell.iapp.add_slice(
        cell.conn_id, SliceConfig(slice_id=1, kind=KIND_CAPACITY, cap=0.66, label="gray")
    )
    cell.iapp.add_slice(
        cell.conn_id, SliceConfig(slice_id=2, kind=KIND_CAPACITY, cap=0.34, label="black")
    )
    cell.iapp.associate_ue(cell.conn_id, 1, 1)
    cell.iapp.associate_ue(cell.conn_id, 2, 2)

    times: List[float] = []
    gray_series: List[float] = []
    black_series: List[float] = []
    last = {1: 0, 2: 0}
    while cell.clock.now < duration_s:
        before = {r: cell.bs.mac.ues[r].total_bytes_dl for r in (1, 2)}
        cell.clock.run_until(cell.clock.now + sample_s)
        times.append(cell.clock.now)
        gray_series.append(cell.throughput_mbps(1, sample_s, before[1]))
        black_series.append(cell.throughput_mbps(2, sample_s, before[2]))
    return SharingSeries(
        mode=mode, times_s=times, gray_mbps=gray_series, black_mbps=black_series
    )


def sharing_gain(static: SharingSeries, nvs: SharingSeries) -> float:
    """Gray slice's throughput gain while black is idle (NVS/static)."""

    def idle_mean(series: SharingSeries) -> float:
        values = [
            g for t, g in zip(series.times_s, series.gray_mbps) if 17.0 <= t <= 33.0
        ]
        return sum(values) / len(values)

    return idle_mean(nvs) / idle_mean(static)


def main() -> None:
    print("=== Fig. 13a: slicing isolation ===")
    for phase in run_fig13a():
        ues = ", ".join(f"ue{r}={m:5.1f}" for r, m in sorted(phase.per_ue_mbps.items()))
        print(f"  {phase.phase:<8} total={phase.total_mbps:5.1f} Mbps  [{ues}]")
    print("=== Fig. 13b: static attribution vs sharing ===")
    static = run_fig13b("static")
    nvs = run_fig13b("nvs")
    for series in (static, nvs):
        idle = [g for t, g in zip(series.times_s, series.gray_mbps) if 17 <= t <= 33]
        busy = [g for t, g in zip(series.times_s, series.gray_mbps) if t <= 14]
        print(
            f"  {series.mode:<7} gray: busy-black={sum(busy)/len(busy):5.1f} Mbps, "
            f"idle-black={sum(idle)/len(idle):5.1f} Mbps"
        )
    print(f"  sharing gain while black idle: {sharing_gain(static, nvs):.2f}x")


if __name__ == "__main__":
    main()
