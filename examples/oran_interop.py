#!/usr/bin/env python3
"""E2 interoperability: one agent, two very different controllers.

FlexRIC "is O-RAN compatible by means of E2AP control protocol" (§1).
This example attaches the *same* FlexRIC agent implementation to

1. the O-RAN RIC reference model (E2 termination + RMR + xApp,
   ASN.1-encoded E2AP), and
2. a native FlexRIC controller,

and round-trips a HW-SM ping through both, printing the per-path cost
(the two-hop, double-decode O-RAN path versus FlexRIC's direct one).

Run:  python examples/oran_interop.py
"""


from repro.baselines.oran import HwXapp, OranRic
from repro.core.agent import Agent, AgentConfig
from repro.core.e2ap.ies import GlobalE2NodeId, NodeKind
from repro.core.server import Server, ServerConfig
from repro.core.transport import InProcTransport
from repro.experiments.common import HwPingerIApp
from repro.sm import hw


def ping_via_oran() -> float:
    transport = InProcTransport()
    ric = OranRic()  # 15 platform components, E2T, submgr, dbaas
    ric.listen(transport, "oran")
    xapp = HwXapp(ric.router, ric.dbaas_store)
    ric.deploy_xapp(xapp)

    agent = Agent(
        AgentConfig(node_id=GlobalE2NodeId("00101", 1, NodeKind.GNB), e2ap_codec="asn"),
        transport=transport,
    )
    agent.register_function(hw.HwRanFunction(sm_codec="asn"))
    agent.connect("oran")

    meid = xapp.poll_rnib()[0]  # xApps discover agents by polling the RNIB
    print(f"  O-RAN xApp discovered agent {meid!r} in the RNIB")
    function_id = xapp.function_id_for(meid, hw.INFO.oid)
    xapp.subscribe(meid, function_id, 0)
    for _ in range(20):
        xapp.ping(meid, function_id, b"x" * 100)
    rtt = sorted(xapp.rtts_us)[len(xapp.rtts_us) // 2]
    print(f"  RIC memory footprint (platform + state): {ric.memory_mb():.0f} MB")
    return rtt


def ping_via_flexric() -> float:
    transport = InProcTransport()
    server = Server(ServerConfig(e2ap_codec="fb"))
    server.listen(transport, "ric")
    pinger = HwPingerIApp(sm_codec="fb")
    server.add_iapp(pinger)

    agent = Agent(
        AgentConfig(node_id=GlobalE2NodeId("00101", 1, NodeKind.GNB), e2ap_codec="fb"),
        transport=transport,
    )
    agent.register_function(hw.HwRanFunction(sm_codec="fb"))
    agent.connect("ric")
    pinger.subscribed.wait(1.0)
    for _ in range(20):
        pinger.ping(b"x" * 100)
    rtt = sorted(pinger.rtts_us)[len(pinger.rtts_us) // 2]
    print(f"  FlexRIC server memory footprint: {server.memory.measure_mb():.2f} MB")
    return rtt


def main() -> None:
    print("--- same agent, O-RAN RIC controller (ASN.1, 2 hops, 2 decodes) ---")
    oran_rtt = ping_via_oran()
    print(f"  ping p50: {oran_rtt:.0f} us")
    print("--- same agent, FlexRIC controller (FB, direct, lazy dispatch) ---")
    flexric_rtt = ping_via_flexric()
    print(f"  ping p50: {flexric_rtt:.0f} us")
    print(f"=> O-RAN path costs {oran_rtt / flexric_rtt:.1f}x the FlexRIC path "
          f"(paper Fig. 9a: at least 2-3x)")


if __name__ == "__main__":
    main()
