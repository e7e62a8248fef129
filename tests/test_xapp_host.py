"""Tests for the xApp-hosting controller specialization (§6.3)."""

import pytest

from repro.controllers.xapp_host import HostedXapp, XappHostIApp
from repro.core.agent import Agent, AgentConfig
from repro.core.e2ap.ies import GlobalE2NodeId, NodeKind
from repro.core.server import Server, ServerConfig
from repro.core.transport import InProcTransport
from repro.sm import kpm, mac_stats
from repro.sm.mac_stats import MacStatsFunction, synthetic_provider


class CollectorXapp(HostedXapp):
    """Test xApp: subscribes to MAC stats and records indications."""

    def __init__(self, name="collector", oid=mac_stats.INFO.oid, period=1.0):
        super().__init__()
        self.name = name
        self.oid = oid
        self.period = period
        self.indications = []
        self.agents_seen = []

    def on_start(self, api):
        super().on_start(api)
        for node in api.nodes():
            api.subscribe_sm(node.conn_id, self.oid, self.period)

    def on_agent(self, agent):
        self.agents_seen.append(agent.node_id.label)

    def on_indication(self, conn_id, oid, event):
        self.indications.append((conn_id, oid, event.sequence))


class FaultyXapp(HostedXapp):
    name = "faulty"

    def on_start(self, api):
        super().on_start(api)
        raise RuntimeError("boom at start")

    def on_indication(self, conn_id, oid, event):
        raise RuntimeError("boom at indication")


def wire(n_ues=4):
    transport = InProcTransport()
    server = Server(ServerConfig(e2ap_codec="fb"))
    server.listen(transport, "ric")
    host = XappHostIApp(sm_codec="fb")
    server.add_iapp(host)
    agent = Agent(
        AgentConfig(node_id=GlobalE2NodeId("00101", 1, NodeKind.GNB)), transport
    )
    function = MacStatsFunction(provider=synthetic_provider(n_ues), sm_codec="fb")
    agent.register_function(function)
    agent.connect("ric")
    return server, host, agent, function


class TestDeployment:
    def test_deploy_and_list(self):
        _s, host, _a, _f = wire()
        host.deploy(CollectorXapp())
        assert host.deployed() == ["collector"]

    def test_duplicate_name_rejected(self):
        _s, host, _a, _f = wire()
        host.deploy(CollectorXapp())
        with pytest.raises(ValueError):
            host.deploy(CollectorXapp())

    def test_undeploy(self):
        _s, host, _a, _f = wire()
        host.deploy(CollectorXapp())
        host.undeploy("collector")
        assert host.deployed() == []
        with pytest.raises(KeyError):
            host.undeploy("collector")

    def test_xapp_sees_existing_agents_on_deploy(self):
        _s, host, _a, _f = wire()
        xapp = CollectorXapp()
        host.deploy(xapp)
        assert xapp.agents_seen == ["00101/1/GNB"]

    def test_xapp_notified_of_late_agents(self):
        transport = InProcTransport()
        server = Server(ServerConfig(e2ap_codec="fb"))
        server.listen(transport, "ric")
        host = XappHostIApp()
        server.add_iapp(host)
        xapp = CollectorXapp()
        host.deploy(xapp)
        agent = Agent(
            AgentConfig(node_id=GlobalE2NodeId("00101", 2, NodeKind.GNB)), transport
        )
        agent.register_function(MacStatsFunction(provider=synthetic_provider(1), sm_codec="fb"))
        agent.connect("ric")
        assert xapp.agents_seen == ["00101/2/GNB"]


class TestSubscriptionMerging:
    def test_identical_subscriptions_merged(self):
        _s, host, _a, function = wire()
        first = CollectorXapp("one")
        second = CollectorXapp("two")
        host.deploy(first)
        host.deploy(second)
        assert host.merged_subscriptions == 1
        assert host.merges_saved == 1
        # The agent holds ONE subscription, both xApps get the data.
        assert len(function.subscriptions) == 1
        function.pump()
        assert len(first.indications) == 1
        assert len(second.indications) == 1

    def test_different_periods_not_merged(self):
        _s, host, _a, function = wire()
        host.deploy(CollectorXapp("one", period=1.0))
        host.deploy(CollectorXapp("two", period=10.0))
        assert host.merged_subscriptions == 2
        assert len(function.subscriptions) == 2

    def test_undeployed_xapp_stops_receiving(self):
        _s, host, _a, function = wire()
        first = CollectorXapp("one")
        second = CollectorXapp("two")
        host.deploy(first)
        host.deploy(second)
        host.undeploy("one")
        function.pump()
        assert first.indications == []
        assert len(second.indications) == 1

    def test_subscribe_unknown_oid(self):
        _s, host, _a, _f = wire()
        xapp = CollectorXapp(oid="oid.missing")
        host.deploy(xapp)
        assert host.merged_subscriptions == 0

    def test_undeploying_the_last_xapp_deletes_the_subscription(self):
        server, host, _a, function = wire()
        host.deploy(CollectorXapp())
        assert len(function.subscriptions) == 1 and len(server.submgr) == 1
        host.undeploy("collector")
        assert len(function.subscriptions) == 0
        assert len(server.submgr) == 0
        assert host.merged_subscriptions == 0

    def test_the_wire_delete_waits_for_the_last_rider(self):
        server, host, _a, function = wire()
        host.deploy(CollectorXapp("one"))
        host.deploy(CollectorXapp("two"))
        host.undeploy("one")
        assert len(function.subscriptions) == 1
        assert host.merged_subscriptions == 1 and host.merges_saved == 1
        host.undeploy("two")
        assert len(function.subscriptions) == 0 and len(server.submgr) == 0

    def test_a_repeated_subscribe_delivers_once(self):
        _s, host, _a, function = wire()
        xapp = CollectorXapp()
        api = host.deploy(xapp)
        conn = api.nodes()[0].conn_id
        assert api.subscribe_sm(conn, mac_stats.INFO.oid, 1.0)
        assert host.merged_subscriptions == 1 and host.merges_saved == 0
        function.pump()
        assert len(xapp.indications) == 1

    def test_agent_disconnect_purges_merged(self):
        _s, host, agent, _f = wire()
        host.deploy(CollectorXapp())
        assert host.merged_subscriptions == 1
        agent.disconnect(0)
        assert host.merged_subscriptions == 0


class TestPlatformServices:
    def test_shared_db(self):
        _s, host, _a, _f = wire()
        xapp = CollectorXapp()
        api = host.deploy(xapp)
        api.db_put("cfg/threshold", 20)
        assert api.db_get("cfg/threshold") == 20
        assert api.db_get("missing", "dflt") == "dflt"
        api.db_put("cfg/other", 1)
        assert api.db_keys("cfg/") == ["cfg/other", "cfg/threshold"]

    def test_message_bus_between_xapps(self):
        _s, host, _a, _f = wire()
        sender = host.deploy(CollectorXapp("sender"))
        got = []
        receiver = host.deploy(CollectorXapp("receiver", oid="oid.none"))
        receiver.subscribe_channel("alerts/*", lambda channel, payload: got.append(payload))
        assert sender.publish("alerts/high-load", {"cell": 1}) == 1
        assert got == [{"cell": 1}]

    def test_control_relay(self):
        from repro.sm import slice_ctrl
        from repro.core.simclock import SimClock
        from repro.ran.base_station import BaseStation, BaseStationConfig, attach_agent

        transport = InProcTransport()
        server = Server(ServerConfig(e2ap_codec="fb"))
        server.listen(transport, "ric")
        host = XappHostIApp()
        server.add_iapp(host)
        bs = BaseStation(BaseStationConfig(), SimClock())
        attach_agent(bs, transport, e2ap_codec="fb", sm_codec="fb").connect("ric")
        api = host.deploy(CollectorXapp(oid="oid.none"))
        conn = server.agents()[0].conn_id
        api.control_sm(
            conn, slice_ctrl.INFO.oid, b"",
            slice_ctrl.build_set_algo(slice_ctrl.ALGO_NVS, "fb"),
        )
        assert bs.mac.algo == slice_ctrl.ALGO_NVS

    def test_control_unknown_target(self):
        _s, host, _a, _f = wire()
        api = host.deploy(CollectorXapp(oid="oid.none"))
        with pytest.raises(KeyError):
            api.control_sm(99, "oid.x", b"", b"")

    def test_logging(self):
        _s, host, _a, _f = wire()
        api = host.deploy(CollectorXapp())
        api.log("hello from xapp")
        messages = [entry.message for entry in host.logbook]
        assert "hello from xapp" in messages


class TestFaultIsolation:
    def test_faulty_start_does_not_break_host(self):
        _s, host, _a, _f = wire()
        host.deploy(FaultyXapp())
        assert host.faults["faulty"] == 1
        # Host keeps working: deploy a healthy xApp afterwards.
        healthy = CollectorXapp()
        host.deploy(healthy)
        assert "collector" in host.deployed()

    def test_faulty_indication_isolated_from_peers(self):
        _s, host, _a, function = wire()
        healthy = CollectorXapp("healthy")
        host.deploy(healthy)
        faulty = FaultyXapp()
        host.xapps["faulty"] = faulty  # skip the raising on_start
        conn = host.server.agents()[0].conn_id
        assert host.subscribe_sm("faulty", conn, mac_stats.INFO.oid, 1.0)
        assert host.merges_saved == 1  # rides the healthy xApp's subscription
        function.pump()
        assert len(healthy.indications) == 1
        assert host.faults["faulty"] >= 1
        errors = [entry for entry in host.logbook if entry.level == "error"]
        assert errors
