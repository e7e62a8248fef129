"""Integration tests for the controller specializations."""


from repro.controllers.monitoring import StatsMonitorIApp, StatsStore, StoredIndication
from repro.controllers.relay import RelayController
from repro.controllers.slicing import SlicingControllerIApp
from repro.controllers.traffic import BufferbloatXapp, TrafficControllerIApp
from repro.core.agent import Agent, AgentConfig
from repro.core.codec.base import materialize
from repro.core.e2ap.ies import GlobalE2NodeId, NodeKind
from repro.core.server import Server, ServerConfig
from repro.core.simclock import SimClock
from repro.core.transport import InProcTransport
from repro.northbound.broker import Broker
from repro.ran.base_station import BaseStation, BaseStationConfig, attach_agent
from repro.sm import hw, mac_stats, rlc_stats
from repro.sm.slice_ctrl import ALGO_NVS, SliceConfig
from repro.traffic.flows import FiveTuple


def make_cell(transport, address, server=None, iapps=()):
    clock = SimClock()
    bs = BaseStation(BaseStationConfig(), clock)
    if server is None:
        server = Server(ServerConfig(e2ap_codec="fb"))
        server.listen(transport, address)
    for iapp in iapps:
        server.add_iapp(iapp)
    agent = attach_agent(bs, transport, e2ap_codec="fb", sm_codec="fb")
    agent.connect(address)
    return clock, bs, server, agent


class TestStatsStore:
    def test_bounded_history(self):
        store = StatsStore(history=3)
        for seq in range(5):
            store.put(1, "oid", StoredIndication(1, 142, seq, b"p"))
        assert len(store.series(1, "oid")) == 3
        assert store.latest(1, "oid").sequence == 4
        assert store.total_stored == 5

    def test_latest_missing(self):
        store = StatsStore()
        assert store.latest(9, "oid") is None
        assert store.latest_decoded(9, "oid", "fb") is None

    def test_keys(self):
        store = StatsStore()
        store.put(2, "b", StoredIndication(2, 1, 0, b""))
        store.put(1, "a", StoredIndication(1, 1, 0, b""))
        assert store.keys() == [(1, "a"), (2, "b")]


class TestMonitoringController:
    def test_subscribes_and_stores(self):
        transport = InProcTransport()
        monitor = StatsMonitorIApp(
            oids=[mac_stats.INFO.oid, rlc_stats.INFO.oid], period_ms=10.0, sm_codec="fb"
        )
        clock, bs, server, _agent = make_cell(transport, "ric", iapps=[monitor])
        bs.attach_ue(1, fixed_mcs=20)
        bs.start()
        clock.run_until(0.1)
        assert monitor.subscriptions_confirmed == 2
        assert monitor.indications_received >= 18
        conn = server.agents()[0].conn_id
        stats = materialize(monitor.store.latest_decoded(conn, mac_stats.INFO.oid, "fb"))
        assert [ue["rnti"] for ue in stats["ues"]] == [1]

    def test_ignores_agents_without_matching_sm(self):
        transport = InProcTransport()
        server = Server(ServerConfig(e2ap_codec="fb"))
        server.listen(transport, "ric")
        monitor = StatsMonitorIApp(oids=["oid.nothing"], period_ms=1.0)
        server.add_iapp(monitor)
        agent = Agent(
            AgentConfig(node_id=GlobalE2NodeId("00101", 1, NodeKind.GNB)), transport
        )
        agent.register_function(hw.HwRanFunction())
        agent.connect("ric")
        assert monitor.subscriptions_confirmed == 0


class TestSlicingController:
    def _wire(self):
        transport = InProcTransport()
        iapp = SlicingControllerIApp(sm_codec="fb", stats_period_ms=10.0)
        clock, bs, server, agent = make_cell(transport, "ric", iapps=[iapp])
        conn = server.agents()[0].conn_id
        return clock, bs, iapp, conn

    def test_ue_discovery_via_rrc(self):
        clock, bs, iapp, conn = self._wire()
        bs.attach_ue(1, plmn="00102", snssai=9)
        assert (conn, 1) in iapp.ues
        info = iapp.ues[(conn, 1)]
        assert info.plmn == "00102" and info.snssai == 9
        bs.detach_ue(1)
        assert (conn, 1) not in iapp.ues

    def test_on_ue_attach_hook(self):
        clock, bs, iapp, conn = self._wire()
        seen = []
        iapp.on_ue_attach = lambda c, info: seen.append((c, info.rnti))
        bs.attach_ue(5)
        assert seen == [(conn, 5)]

    def test_slice_commands_reach_mac(self):
        clock, bs, iapp, conn = self._wire()
        bs.attach_ue(1, fixed_mcs=20)
        iapp.set_algorithm(conn, ALGO_NVS)
        iapp.add_slice(conn, SliceConfig(slice_id=1, cap=0.4))
        iapp.associate_ue(conn, 1, 1)
        assert iapp.last_control_ok
        assert bs.mac.algo == ALGO_NVS
        snapshot = bs.mac.slice_snapshot()
        assert snapshot["slices"][0]["members"] == [1]

    def test_admission_failure_reported(self):
        clock, bs, iapp, conn = self._wire()
        iapp.add_slice(conn, SliceConfig(slice_id=1, cap=0.8))
        iapp.add_slice(conn, SliceConfig(slice_id=2, cap=0.8))
        assert iapp.control_outcomes == [True, False]

    def test_mac_db_fills_from_stats(self):
        clock, bs, iapp, conn = self._wire()
        bs.attach_ue(1, fixed_mcs=20)
        bs.start()
        clock.run_until(0.05)
        assert conn in iapp.mac_db
        stats = iapp.latest_mac_stats(conn)
        assert stats["ues"][0]["rnti"] == 1


class TestTrafficController:
    def test_stats_forwarded_to_broker(self):
        transport = InProcTransport()
        broker = Broker()
        iapp = TrafficControllerIApp(broker, sm_codec="fb", stats_period_ms=10.0)
        clock, bs, server, _agent = make_cell(transport, "ric", iapps=[iapp])
        channels = []
        broker.subscribe("ran/*", lambda channel, payload: channels.append(channel))
        bs.attach_ue(1)
        bs.start()
        clock.run_until(0.05)
        conn = server.agents()[0].conn_id
        assert f"ran/{conn}/rlc" in channels
        assert f"ran/{conn}/tc" in channels

    def test_tc_control_relay(self):
        transport = InProcTransport()
        broker = Broker()
        iapp = TrafficControllerIApp(broker, sm_codec="fb")
        clock, bs, server, _agent = make_cell(transport, "ric", iapps=[iapp])
        bs.attach_ue(1)
        conn = server.agents()[0].conn_id
        from repro.sm.traffic_ctrl import build_add_queue

        iapp.tc_control(conn, 1, 1, build_add_queue(2, "fb"))
        assert iapp.control_outcomes == [True]
        assert 2 in bs.tc[(1, 1)].queues

    def test_bufferbloat_xapp_triggers_once(self):
        transport = InProcTransport()
        broker = Broker()
        iapp = TrafficControllerIApp(broker, sm_codec="fb", stats_period_ms=10.0)
        clock, bs, server, _agent = make_cell(transport, "ric", iapps=[iapp])
        bs.attach_ue(1, fixed_mcs=20)
        voip_flow = FiveTuple("10.0.0.1", "10.0.1.1", 2112, 2112, "udp")
        xapp = BufferbloatXapp(iapp, low_latency_flow=voip_flow, threshold_ms=20.0)
        # Bloat the RLC buffer directly.
        from repro.traffic.flows import Packet

        entity = bs.rlc_of(1)
        for _ in range(2000):  # ~2.8 MB: several hundred ms of sojourn
            entity.enqueue(
                Packet(flow=FiveTuple("9", "9", 9, 9, "tcp"), size=1400, created_at=0.0),
                0.0,
            )
        bs.start()
        clock.run_until(0.2)
        assert xapp.triggered
        actions = xapp.actions
        assert actions.queue_added and actions.filter_installed
        assert actions.pacer_loaded and actions.scheduler_set
        pipeline = bs.tc[(1, 1)]
        assert 2 in pipeline.queues
        assert pipeline.pacer.name == "bdp"
        assert pipeline.scheduler.name == "rr"
        # Must not retrigger on further reports.
        first = actions.triggered_at_ms
        clock.run_until(0.4)
        assert actions.triggered_at_ms == first


class TestRelayController:
    def test_hw_forwarding_end_to_end(self):
        transport = InProcTransport()
        relay = RelayController(
            transport,
            "relay",
            forward=[(hw.INFO.oid, hw.INFO.name, hw.INFO.default_function_id)],
            e2ap_codec="fb",
        )
        # Southbound agent.
        agent = Agent(
            AgentConfig(node_id=GlobalE2NodeId("00101", 1, NodeKind.GNB)), transport
        )
        agent.register_function(hw.HwRanFunction(sm_codec="fb"))
        agent.connect("relay")
        # Upstream controller with a pinger.
        from repro.experiments.common import HwPingerIApp

        upstream = Server(ServerConfig(e2ap_codec="fb"))
        upstream.listen(transport, "upstream")
        pinger = HwPingerIApp(sm_codec="fb")
        upstream.add_iapp(pinger)
        relay.connect_upstream("upstream")
        assert pinger.subscribed.wait(1.0)
        rtt = pinger.ping(b"x" * 50)
        assert rtt > 0.0

    def test_subscription_refused_without_south_agent(self):
        transport = InProcTransport()
        relay = RelayController(
            transport,
            "relay2",
            forward=[(hw.INFO.oid, hw.INFO.name, hw.INFO.default_function_id)],
            e2ap_codec="fb",
        )
        from repro.core.e2ap.ies import RicActionDefinition, RicActionKind
        from repro.core.server.submgr import SubscriptionCallbacks

        upstream = Server(ServerConfig(e2ap_codec="fb"))
        upstream.listen(transport, "upstream2")
        relay.connect_upstream("upstream2")
        outcomes = []
        upstream.subscribe(
            conn_id=upstream.agents()[0].conn_id,
            ran_function_id=hw.INFO.default_function_id,
            event_trigger=b"",
            actions=[RicActionDefinition(1, RicActionKind.REPORT)],
            callbacks=SubscriptionCallbacks(on_success=outcomes.append),
        )
        # Admitted list must be empty: nothing southbound to serve it.
        assert outcomes[0].admitted == []
