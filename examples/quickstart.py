#!/usr/bin/env python3
"""Quickstart: a minimal SD-RAN controller with the FlexRIC SDK.

Builds the smallest complete deployment (Fig. 1 of the paper):

1. a simulated 5G base station with one UE,
2. a FlexRIC *agent* attached to it, exposing the standard service
   models (MAC/RLC/PDCP statistics, RRC events, slice control,
   traffic control),
3. a FlexRIC *server* (controller) with one iApp that subscribes to
   MAC statistics and prints what arrives,
4. one control interaction: pin the cell to the NVS slice algorithm.

Run:  python examples/quickstart.py
"""

from repro.core.e2ap.ies import RicActionDefinition, RicActionKind
from repro.core.server import Server, ServerConfig, SubscriptionCallbacks
from repro.core.simclock import SimClock
from repro.core.transport import InProcTransport
from repro.ran.base_station import BaseStation, BaseStationConfig, attach_agent
from repro.sm import mac_stats, slice_ctrl
from repro.sm.base import PeriodicTrigger, decode_payload
from repro.traffic.flows import FiveTuple, Packet


def main() -> None:
    # --- RAN substrate: one NR cell on a simulation clock -------------
    clock = SimClock()
    bs = BaseStation(BaseStationConfig(plmn="00101", nb_id=1), clock)

    # --- controller: server library + an inline iApp ------------------
    transport = InProcTransport()
    server = Server(ServerConfig(ric_id=1, e2ap_codec="fb"))
    server.listen(transport, "ric")

    # --- agent: one call wires the standard RAN-function bundle -------
    agent = attach_agent(bs, transport, e2ap_codec="fb", sm_codec="fb")
    agent.connect("ric")
    record = server.agents()[0]
    print(f"agent connected: {record.node_id.label}, "
          f"functions={sorted(record.functions)}")

    # --- subscribe to MAC statistics every 100 ms ---------------------
    reports = []

    def on_stats(event) -> None:
        tree = decode_payload(event.payload, "fb", mac_stats.INFO.payload_schema)
        reports.append(tree)

    mac_item = record.function_by_oid(mac_stats.INFO.oid)
    server.subscribe(
        conn_id=record.conn_id,
        ran_function_id=mac_item.ran_function_id,
        event_trigger=PeriodicTrigger(100.0).to_bytes("fb"),
        actions=[RicActionDefinition(action_id=1, kind=RicActionKind.REPORT)],
        callbacks=SubscriptionCallbacks(on_indication=on_stats),
    )

    # --- a control message: select the NVS slice algorithm ------------
    sc_item = record.function_by_oid(slice_ctrl.INFO.oid)
    server.control(
        conn_id=record.conn_id,
        ran_function_id=sc_item.ran_function_id,
        header=b"",
        payload=slice_ctrl.build_set_algo(slice_ctrl.ALGO_NVS, "fb"),
        on_outcome=lambda outcome: print(f"control outcome: {type(outcome).__name__}"),
    )

    # --- traffic + run -------------------------------------------------
    ue = bs.attach_ue(rnti=1, fixed_mcs=20)
    flow = FiveTuple("10.0.0.1", "10.0.1.1", 5001, 5001, "udp")
    for _ in range(2000):
        bs.deliver_downlink(1, Packet(flow=flow, size=1400, created_at=clock.now))
    bs.start()
    clock.run_until(1.0)

    print(f"received {len(reports)} MAC reports over 1 simulated second")
    last = reports[-1]["ues"][0]
    print(f"UE {last['rnti']}: mcs={last['mcs_dl']} "
          f"slice={last['slice_id']} bytes_dl(last period)={last['bytes_dl']}")
    print(f"total downlink delivered: {ue.total_bytes_dl * 8 / 1e6:.1f} Mbit")
    assert reports, "expected at least one statistics report"
    print("quickstart OK")


if __name__ == "__main__":
    main()
