#!/usr/bin/env python3
"""RAN sharing with the recursive virtualization controller (paper §6.2).

Two mobile operators share one physical base station.  The
virtualization controller:

* faces the real agent southbound like any FlexRIC server,
* re-exposes the E2 interface northbound *through the agent library*
  (the recursion of Fig. 14) to each operator's unchanged slicing
  controller,
* virtualizes NVS resources per Appendix B: each operator sees a
  private network of share 1.0 while physically holding its 50 % SLA,
* partitions MAC statistics and RRC events so each operator only sees
  its own subscribers.

Operator A re-slices its virtual network 66/34 — operator B never
notices; when B goes idle, A's slices reclaim the whole cell.

Run:  python examples/ran_sharing_tenants.py
"""

from repro.controllers.slicing import SlicingControllerIApp
from repro.controllers.virtualization import TenantConfig, VirtualizationController
from repro.core.server import Server, ServerConfig
from repro.core.simclock import SimClock
from repro.core.transport import InProcTransport
from repro.ran.base_station import BaseStation, BaseStationConfig, attach_agent
from repro.ran.phy import LTE_CELL_10MHZ
from repro.sm.slice_ctrl import SliceConfig
from repro.traffic.flows import FiveTuple
from repro.traffic.iperf import FullBufferFlow


def main() -> None:
    clock = SimClock()
    transport = InProcTransport()

    # Each operator runs the stock slicing controller of §6.1.2.
    tenant_servers, tenant_iapps = {}, {}
    for name in ("A", "B"):
        server = Server(ServerConfig(e2ap_codec="fb"))
        server.listen(transport, f"tenant-{name}")
        iapp = SlicingControllerIApp(sm_codec="fb")
        server.add_iapp(iapp)
        tenant_servers[name], tenant_iapps[name] = server, iapp

    virt = VirtualizationController(
        transport,
        "virt-south",
        tenants=[
            TenantConfig("A", share=0.5, subscribers={1, 2}),
            TenantConfig("B", share=0.5, subscribers={3, 4}),
        ],
    )

    bs = BaseStation(BaseStationConfig(phy=LTE_CELL_10MHZ), clock)
    attach_agent(bs, transport, e2ap_codec="fb", sm_codec="fb").connect("virt-south")
    virt.connect_tenant("A", "tenant-A")
    virt.connect_tenant("B", "tenant-B")
    print("virtualization layer up: NVS installed, per-tenant default slices created")

    flows = {}
    for rnti in (1, 2, 3, 4):
        bs.attach_ue(rnti, fixed_mcs=28)
        flow = FullBufferFlow(
            clock,
            sink=lambda p, r=rnti: bs.deliver_downlink(r, p),
            backlog_probe=lambda r=rnti: bs.rlc_of(r).backlog_bytes,
            flow=FiveTuple("10.0.0.9", f"10.0.2.{rnti}", 5202, 5202, "udp"),
        )
        flow.start()
        flows[rnti] = flow
    bs.start()

    def measure(label: str, seconds: float = 4.0) -> dict:
        before = {r: bs.mac.ues[r].total_bytes_dl for r in (1, 2, 3, 4)}
        clock.run_until(clock.now + seconds)
        mbps = {
            r: (bs.mac.ues[r].total_bytes_dl - before[r]) * 8 / seconds / 1e6
            for r in before
        }
        print(f"  {label:<34} "
              + "  ".join(f"ue{r}={v:5.1f}" for r, v in sorted(mbps.items()))
              + "  Mbps")
        return mbps

    measure("no sub-slices: all equal")

    # Operator A re-slices ITS OWN virtual network (66/34).  The
    # controller code is identical to the single-operator case — it
    # has no idea a virtualization layer sits below.
    iapp_a = tenant_iapps["A"]
    conn_a = tenant_servers["A"].agents()[0].conn_id
    iapp_a.add_slice(conn_a, SliceConfig(slice_id=1, cap=0.66, label="A-gold"))
    iapp_a.add_slice(conn_a, SliceConfig(slice_id=2, cap=0.33, label="A-silver"))
    iapp_a.associate_ue(conn_a, 1, 1)
    iapp_a.associate_ue(conn_a, 2, 2)
    split = measure("A re-slices 66/34 (B untouched)")
    assert abs(split[3] - split[4]) < 1.0, "operator B must be unaffected"

    # Operator B goes idle: in the shared cell, A reclaims everything.
    flows[3].stop()
    flows[4].stop()
    reclaimed = measure("B idle: A reclaims the cell")
    assert reclaimed[1] + reclaimed[2] > 1.8 * (split[1] + split[2])

    # Each operator's statistics are partitioned.
    for name, expected in (("A", [1, 2]), ("B", [3, 4])):
        conn = tenant_servers[name].agents()[0].conn_id
        stats = tenant_iapps[name].latest_mac_stats(conn)
        rntis = [ue["rnti"] for ue in stats["ues"]]
        print(f"  operator {name} sees UEs {rntis}")
        assert rntis == expected
    print("RAN sharing example OK (isolation + multiplexing gain)")


if __name__ == "__main__":
    main()
