#!/usr/bin/env python3
"""Hosting O-RAN-style xApps on a FlexRIC specialization (paper §6.3).

The paper argues that a "simple-to-use E2 controller, as opposed to
cluster-based implementations such as O-RAN RIC" can host standard
xApps with the five platform services — messaging, subscription
merging, xApp management, a shared database, and logging/fault
management — implemented as SM-independent iApps.

This example deploys three xApps on the host:

* ``kpm-monitor`` — collects E2SM-KPM cell metrics into the shared DB,
* ``load-alert``  — consumes the same (merged!) subscription and raises
  alerts on the message bus when PRB utilisation is high,
* ``crashy``      — an xApp that throws on every indication, showing
  the fault isolation boundary.

Run:  python examples/oran_xapp_hosting.py
"""

from repro.controllers.xapp_host import HostedXapp, XappHostIApp
from repro.core.server import Server, ServerConfig
from repro.core.simclock import SimClock
from repro.core.transport import InProcTransport
from repro.ran.base_station import BaseStation, BaseStationConfig, attach_agent
from repro.sm import kpm
from repro.sm.base import decode_payload
from repro.traffic.flows import FiveTuple
from repro.traffic.iperf import FullBufferFlow


class KpmMonitor(HostedXapp):
    name = "kpm-monitor"

    def on_start(self, api):
        super().on_start(api)
        for node in api.nodes():
            api.subscribe_sm(node.conn_id, kpm.INFO.oid, period_ms=100.0)
        api.log("subscribed to KPM on every node")

    def on_indication(self, conn_id, oid, event):
        style, samples, _ = kpm.report_from_value(
            decode_payload(event.payload, "fb", kpm.INFO.payload_schema)
        )
        for sample in samples:
            self.api.db_put(f"kpm/{conn_id}/{sample.name}", sample.value)


class LoadAlert(HostedXapp):
    name = "load-alert"

    def on_start(self, api):
        super().on_start(api)
        for node in api.nodes():
            # Identical parameters: the host MERGES this with
            # kpm-monitor's subscription - one E2 subscription total.
            api.subscribe_sm(node.conn_id, kpm.INFO.oid, period_ms=100.0)
        self.alerts = 0

    def on_indication(self, conn_id, oid, event):
        style, samples, _ = kpm.report_from_value(
            decode_payload(event.payload, "fb", kpm.INFO.payload_schema)
        )
        throughput = {s.name: s.value for s in samples}.get("DRB.UEThpDl", 0.0)
        if throughput > 1.0 and self.alerts == 0:  # > 1 Mbit moved
            self.alerts += 1
            self.api.publish("alerts/load", {"node": conn_id, "mbit": throughput})
            self.api.log(f"load alert on node {conn_id}: {throughput:.1f} Mbit")


class Crashy(HostedXapp):
    name = "crashy"

    def on_start(self, api):
        super().on_start(api)
        for node in api.nodes():
            api.subscribe_sm(node.conn_id, kpm.INFO.oid, period_ms=100.0)

    def on_indication(self, conn_id, oid, event):
        raise RuntimeError("I always crash")


def main() -> None:
    clock = SimClock()
    transport = InProcTransport()
    server = Server(ServerConfig(e2ap_codec="fb"))
    server.listen(transport, "ric")
    host = XappHostIApp(sm_codec="fb")
    server.add_iapp(host)

    bs = BaseStation(BaseStationConfig(), clock)
    agent = attach_agent(bs, transport, e2ap_codec="fb", sm_codec="fb")
    # Add the standardized E2SM-KPM alongside the FlexRIC bundle.
    kpm_function = kpm.KpmFunction(
        provider=kpm.base_station_provider(bs), sm_codec="fb", clock=clock
    )
    agent.register_function(kpm_function)
    agent.connect("ric")

    bs.attach_ue(1, fixed_mcs=20)
    flow = FullBufferFlow(
        clock,
        sink=lambda p: bs.deliver_downlink(1, p),
        backlog_probe=lambda: bs.rlc_of(1).backlog_bytes,
        flow=FiveTuple("10.0.0.9", "10.0.1.1", 5202, 5202, "udp"),
    )
    flow.start()
    bs.start()

    alerts = []
    host.bus.subscribe("alerts/*", lambda channel, payload: alerts.append(payload))

    host.deploy(KpmMonitor())
    host.deploy(LoadAlert())
    host.deploy(Crashy())
    print(f"deployed xApps: {host.deployed()}")
    print(f"E2 subscriptions at the agent: {host.merged_subscriptions} "
          f"(merges saved: {host.merges_saved})")

    clock.run_until(2.0)

    print(f"shared DB after 2 s: "
          f"{ {k: round(v, 2) for k, v in sorted(host.db.items()) if '/DRB' in k or 'Conn' in k} }")
    print(f"alerts on the bus: {alerts}")
    print(f"crashy's recorded faults: {host.faults.get('crashy', 0)} "
          f"(host and peers unaffected)")
    assert host.merged_subscriptions == 1, "all three xApps share ONE subscription"
    assert alerts, "the load alert should have fired"
    assert host.faults.get("crashy", 0) > 0
    healthy_logs = [e for e in host.logbook if e.level == "error"]
    print(f"error log entries: {len(healthy_logs)} (isolation boundary held)")
    print("xApp hosting example OK")


if __name__ == "__main__":
    main()
