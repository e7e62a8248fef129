#!/usr/bin/env python3
"""Mobility load balancing through the RRC SM's handover control.

The paper's introduction lists "user associations and handovers" among
what xApps "control, coordinate, and optimize" through FlexRIC.  This
example builds that xApp: two neighbouring cells, five UEs all camped
on cell 1, and a load-balancing iApp that watches per-cell PRB load
through the MAC statistics SM and commands handovers (RRC SM control)
until the load evens out.  Queued downlink data is forwarded losslessly
during each handover.

Run:  python examples/mobility_load_balancing.py
"""

from repro.core.e2ap.ies import RicActionDefinition, RicActionKind
from repro.core.server import Server, ServerConfig, SubscriptionCallbacks
from repro.core.simclock import SimClock
from repro.core.transport import InProcTransport
from repro.ran.base_station import BaseStation, BaseStationConfig, attach_agent
from repro.ran.mobility import MobilityManager
from repro.sm import mac_stats, rrc_conf
from repro.sm.base import PeriodicTrigger, decode_payload
from repro.traffic.flows import FiveTuple
from repro.traffic.iperf import FullBufferFlow


class LoadBalancer:
    """The xApp: even out the number of active UEs across cells."""

    def __init__(self, server, sm_codec="fb"):
        self.server = server
        self.sm_codec = sm_codec
        self.load = {}        # conn_id -> number of active UEs
        self.nb_of = {}       # conn_id -> nb_id
        self.rrc_fid = {}     # conn_id -> RRC function id
        self.ues_at = {}      # conn_id -> [rnti, ...]
        self.handovers = 0

    def watch(self, record):
        self.nb_of[record.conn_id] = record.node_id.nb_id
        self.rrc_fid[record.conn_id] = record.function_by_oid(
            rrc_conf.INFO.oid
        ).ran_function_id
        mac_item = record.function_by_oid(mac_stats.INFO.oid)
        self.server.subscribe(
            conn_id=record.conn_id,
            ran_function_id=mac_item.ran_function_id,
            event_trigger=PeriodicTrigger(100.0).to_bytes(self.sm_codec),
            actions=[RicActionDefinition(action_id=1, kind=RicActionKind.REPORT)],
            callbacks=SubscriptionCallbacks(
                on_indication=lambda event, conn=record.conn_id: self._on_stats(conn, event)
            ),
        )

    def _on_stats(self, conn_id, event):
        tree = decode_payload(event.payload, self.sm_codec, mac_stats.INFO.payload_schema)
        rntis = [ue["rnti"] for ue in tree["ues"]]
        self.load[conn_id] = len(rntis)
        self.ues_at[conn_id] = rntis
        self._rebalance()

    def _rebalance(self):
        if len(self.load) < 2:
            return
        ranked = sorted(self.load.items(), key=lambda item: item[1])
        (low_conn, low), (high_conn, high) = ranked[0], ranked[-1]
        if high - low < 2 or not self.ues_at.get(high_conn):
            return
        rnti = self.ues_at[high_conn][0]
        self.server.control(
            conn_id=high_conn,
            ran_function_id=self.rrc_fid[high_conn],
            header=b"",
            payload=rrc_conf.build_handover(
                rnti, target_nb=self.nb_of[low_conn], codec_name=self.sm_codec
            ),
        )
        self.handovers += 1
        print(f"  xApp: handover UE {rnti} "
              f"cell {self.nb_of[high_conn]} -> cell {self.nb_of[low_conn]} "
              f"(load {high} vs {low})")


def main() -> None:
    clock = SimClock()
    transport = InProcTransport()
    server = Server(ServerConfig(e2ap_codec="fb"))
    server.listen(transport, "ric")

    manager = MobilityManager()
    cells = {}
    for nb_id in (1, 2):
        bs = BaseStation(BaseStationConfig(nb_id=nb_id), clock)
        manager.register(bs)
        attach_agent(bs, transport, e2ap_codec="fb", sm_codec="fb").connect("ric")
        bs.start()
        cells[nb_id] = bs

    balancer = LoadBalancer(server)
    for record in server.agents():
        balancer.watch(record)

    # Five UEs all camp on cell 1 (e.g. after an event lets out).
    for rnti in range(1, 6):
        cells[1].attach_ue(rnti, fixed_mcs=20)
        flow = FullBufferFlow(
            clock,
            sink=lambda p, r=rnti: manager.cell(manager.locate(r)).deliver_downlink(r, p),
            backlog_probe=lambda r=rnti: manager.cell(manager.locate(r)).rlc_of(r).backlog_bytes,
            flow=FiveTuple("10.0.0.9", f"10.0.1.{rnti}", 5202, 5202, "udp"),
        )
        flow.start()
    print(f"initial camping: cell1={len(cells[1].mac.ues)} UEs, "
          f"cell2={len(cells[2].mac.ues)} UEs")

    clock.run_until(3.0)

    print(f"after balancing:  cell1={len(cells[1].mac.ues)} UEs, "
          f"cell2={len(cells[2].mac.ues)} UEs "
          f"({balancer.handovers} handovers, {manager.handovers_done} executed)")
    per_ue = {
        rnti: manager.cell(manager.locate(rnti)).mac.ues[rnti].total_bytes_dl * 8 / 3.0 / 1e6
        for rnti in range(1, 6)
    }
    print("  per-UE throughput: "
          + "  ".join(f"ue{r}={v:5.1f}" for r, v in per_ue.items()) + "  Mbps")
    assert abs(len(cells[1].mac.ues) - len(cells[2].mac.ues)) <= 1
    # Two cells instead of one: every UE ends up faster than a 5-way split.
    single_cell_share = 50.0 / 5
    assert min(per_ue.values()) > single_cell_share
    print("mobility load balancing OK")


if __name__ == "__main__":
    main()
