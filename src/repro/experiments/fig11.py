"""Fig. 11: flow-based traffic control against bufferbloat (§6.1.1).

Scenario (the paper's "simple, yet complete and realistic example"):
one UE on an NR cell receives (i) a G.711 VoIP flow — 172 B UDP frames
every 20 ms — and (ii) a greedy TCP-Cubic flow started 5 s later.

* **Transparent mode** (Fig. 11a): both flows share the RLC bearer
  buffer; Cubic keeps it near-full, so VoIP frames inherit hundreds of
  milliseconds of sojourn.
* **xApp mode** (Fig. 11b): the traffic-control xApp watches the RLC
  sojourn through the monitoring SMs; when it crosses the limit it
  creates a second FIFO queue, installs a 5-tuple filter for the VoIP
  flow, loads the 5G-BDP pacer and a round-robin scheduler.  The
  backlog moves into the TC queue of the greedy flow; VoIP sojourn
  collapses.
* **Fig. 11c**: CDF of the VoIP RTT in both modes — the xApp case is
  about 4x faster.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.controllers.traffic import BufferbloatXapp, TrafficControllerIApp
from repro.core.simclock import SimClock
from repro.core.server.server import Server, ServerConfig
from repro.core.transport.inproc import InProcTransport
from repro.metrics.stats import percentile, summarize
from repro.northbound.broker import Broker
from repro.ran.base_station import BaseStation, BaseStationConfig, attach_agent
from repro.ran.phy import NR_CELL_20MHZ
from repro.traffic import CubicFlow, DeliveryHub, FiveTuple, VoipFlow


@dataclass
class SojournSample:
    """One delivered packet's per-stage delays (Fig. 11a/11b points)."""

    time_s: float
    flow: str           # "voip" or "cubic"
    rlc_sojourn_ms: float
    tc_sojourn_ms: float


@dataclass
class Fig11Result:
    mode: str
    sojourns: List[SojournSample]
    voip_rtts_ms: List[float]
    xapp_triggered_at_ms: Optional[float] = None
    cubic_delivered_mbps: float = 0.0


def run_fig11(mode: str, duration_s: float = 40.0, cubic_start_s: float = 5.0) -> Fig11Result:
    """Run one mode: ``"transparent"`` or ``"xapp"``."""
    if mode not in ("transparent", "xapp"):
        raise ValueError(f"unknown mode {mode!r}")
    clock = SimClock()
    bs = BaseStation(BaseStationConfig(phy=NR_CELL_20MHZ), clock)
    transport = InProcTransport()
    broker = Broker()

    xapp = None
    if mode == "xapp":
        server = Server(ServerConfig(e2ap_codec="fb"))
        server.listen(transport, "ric")
        iapp = TrafficControllerIApp(broker, sm_codec="fb", stats_period_ms=100.0)
        server.add_iapp(iapp)
        agent = attach_agent(bs, transport, e2ap_codec="fb", sm_codec="fb")
        agent.connect("ric")

    bs.attach_ue(1, fixed_mcs=20)
    bs.start()

    voip_flow = FiveTuple("10.0.0.1", "10.0.1.1", 2112, 2112, "udp")
    if mode == "xapp":
        xapp = BufferbloatXapp(iapp, low_latency_flow=voip_flow, threshold_ms=20.0)

    hub = DeliveryHub()
    bs.rlc_of(1).on_delivered = hub
    sojourns: List[SojournSample] = []

    voip = VoipFlow(clock, sink=lambda p: bs.deliver_downlink(1, p), flow=voip_flow)
    cubic = CubicFlow(clock, sink=lambda p: bs.deliver_downlink(1, p))

    def record(name: str, packet) -> None:
        sojourns.append(
            SojournSample(
                time_s=clock.now,
                flow=name,
                rlc_sojourn_ms=(packet.rlc_sojourn_s or 0.0) * 1000.0,
                tc_sojourn_ms=(packet.tc_sojourn_s or 0.0) * 1000.0,
            )
        )

    hub.register(voip.flow, lambda p: (voip.on_delivered(p), record("voip", p)))
    hub.register(cubic.flow, lambda p: (cubic.on_delivered(p), record("cubic", p)))

    voip.start()
    clock.call_at(cubic_start_s, cubic.start)
    clock.run_until(duration_s)

    return Fig11Result(
        mode=mode,
        sojourns=sojourns,
        voip_rtts_ms=list(voip.rtts_ms),
        xapp_triggered_at_ms=(xapp.actions.triggered_at_ms if xapp is not None else None),
        cubic_delivered_mbps=cubic.stats.delivered_bytes
        * 8.0
        / max(duration_s - cubic_start_s, 1e-9)
        / 1e6,
    )


def run_both(duration_s: float = 40.0) -> Tuple[Fig11Result, Fig11Result]:
    return run_fig11("transparent", duration_s), run_fig11("xapp", duration_s)


def rtt_speedup(transparent: Fig11Result, xapp: Fig11Result, q: float = 50.0) -> float:
    """The Fig. 11c headline: how much faster VoIP RTT is with the xApp.

    Computed over the congested window (after the Cubic flow started).
    """
    t_late = [r for r in transparent.voip_rtts_ms[len(transparent.voip_rtts_ms) // 3:]]
    x_late = [r for r in xapp.voip_rtts_ms[len(xapp.voip_rtts_ms) // 3:]]
    return percentile(t_late, q) / percentile(x_late, q)


def main() -> None:
    transparent, xapp = run_both()
    for result in (transparent, xapp):
        voip = [s for s in result.sojourns if s.flow == "voip"]
        cubic = [s for s in result.sojourns if s.flow == "cubic"]
        late_voip = [s.rlc_sojourn_ms + s.tc_sojourn_ms for s in voip if s.time_s > 10.0]
        late_cubic = [s.rlc_sojourn_ms + s.tc_sojourn_ms for s in cubic if s.time_s > 10.0]
        print(f"=== Fig. 11 ({result.mode}) ===")
        if late_voip:
            print(f"  VoIP sojourn (t>10s):  {summarize(late_voip).row('ms')}")
        if late_cubic:
            print(f"  Cubic sojourn (t>10s): {summarize(late_cubic).row('ms')}")
        print(f"  VoIP RTT: {summarize(result.voip_rtts_ms).row('ms')}")
        if result.xapp_triggered_at_ms is not None:
            print(f"  xApp triggered at {result.xapp_triggered_at_ms / 1000.0:.2f} s")
        print(f"  Cubic goodput: {result.cubic_delivered_mbps:.1f} Mbps")
    print(f"=== Fig. 11c: VoIP RTT speedup (median) = {rtt_speedup(transparent, xapp):.1f}x ===")


if __name__ == "__main__":
    main()
