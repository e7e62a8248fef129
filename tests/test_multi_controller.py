"""Tests for multi-controller support and UE-to-controller association."""

import pytest

from repro.core.agent import Agent, AgentConfig
from repro.core.agent.multi_controller import ControllerRegistry, UeControllerMap
from repro.core.e2ap.ies import GlobalE2NodeId, NodeKind
from repro.core.server import Server, ServerConfig
from repro.core.transport import InProcTransport
from repro.sm.hw import HwRanFunction
from repro.sm.mac_stats import MacStatsFunction, synthetic_provider


class TestControllerRegistry:
    def test_origins_are_sequential_and_stable(self):
        registry = ControllerRegistry()
        first = registry.add("a")
        second = registry.add("b")
        assert (first.origin, second.origin) == (0, 1)
        registry.remove(0)
        third = registry.add("c")
        assert third.origin == 2  # indices never reused

    def test_primary(self):
        registry = ControllerRegistry()
        assert registry.primary is None
        registry.add("a")
        assert registry.primary.address == "a"

    def test_remove_marks_disconnected(self):
        registry = ControllerRegistry()
        link = registry.add("a")
        registry.remove(link.origin)
        assert not link.connected
        assert registry.get(link.origin) is None
        assert len(registry) == 0


class TestUeControllerMap:
    def test_first_controller_sees_everything(self):
        ue_map = UeControllerMap()
        ue_map.ue_attached(1)
        ue_map.ue_attached(2)
        assert ue_map.visible_ues(0) == {1, 2}

    def test_additional_controllers_see_nothing_by_default(self):
        """No automatic association (§4.1.2): the agent cannot infer it."""
        ue_map = UeControllerMap()
        ue_map.ue_attached(1)
        assert ue_map.visible_ues(1) == set()

    def test_explicit_association(self):
        ue_map = UeControllerMap()
        ue_map.ue_attached(1)
        ue_map.ue_attached(2)
        ue_map.associate(1, origin=1)
        assert ue_map.visible_ues(1) == {1}
        assert ue_map.controllers_for(1) == [1]

    def test_associate_unknown_ue_rejected(self):
        with pytest.raises(KeyError):
            UeControllerMap().associate(9, origin=1)

    def test_detach_cleans_all_views(self):
        ue_map = UeControllerMap()
        ue_map.ue_attached(1)
        ue_map.associate(1, origin=2)
        ue_map.ue_detached(1)
        assert ue_map.visible_ues(0) == set()
        assert ue_map.visible_ues(2) == set()

    def test_dissociate(self):
        ue_map = UeControllerMap()
        ue_map.ue_attached(1)
        ue_map.associate(1, origin=1)
        ue_map.dissociate(1, origin=1)
        assert ue_map.visible_ues(1) == set()


class TestAgentWithTwoControllers:
    def _make(self):
        transport = InProcTransport()
        servers = []
        for name in ("ric-a", "ric-b"):
            server = Server(ServerConfig(e2ap_codec="fb"))
            server.listen(transport, name)
            servers.append(server)
        agent = Agent(
            AgentConfig(node_id=GlobalE2NodeId("00101", 1, NodeKind.GNB)), transport
        )
        return transport, servers, agent

    def test_connects_to_both(self):
        _t, (server_a, server_b), agent = self._make()
        agent.register_function(HwRanFunction())
        assert agent.connect("ric-a") == 0
        assert agent.connect("ric-b") == 1
        assert len(server_a.agents()) == 1
        assert len(server_b.agents()) == 1

    def test_indications_partitioned_by_visibility(self):
        """The MAC stats function reveals only associated UEs to the
        second controller (the Fig. 4 exposure pattern)."""
        from repro.core.e2ap.ies import RicActionDefinition, RicActionKind
        from repro.core.server.submgr import SubscriptionCallbacks
        from repro.sm.base import PeriodicTrigger, decode_payload

        _t, (server_a, server_b), agent = self._make()
        function = MacStatsFunction(
            provider=synthetic_provider(4),
            sm_codec="fb",
            visibility=agent.ue_map.visible_ues,
        )
        agent.register_function(function)
        agent.connect("ric-a")
        agent.connect("ric-b")
        for rnti in range(4):
            agent.ue_map.ue_attached(rnti)
        agent.ue_map.associate(2, origin=1)

        payloads = {"a": [], "b": []}
        for server, key in ((server_a, "a"), (server_b, "b")):
            server.subscribe(
                conn_id=server.agents()[0].conn_id,
                ran_function_id=function.ran_function_id,
                event_trigger=PeriodicTrigger(1.0).to_bytes("fb"),
                actions=[RicActionDefinition(1, RicActionKind.REPORT)],
                callbacks=SubscriptionCallbacks(
                    on_indication=lambda e, k=key: payloads[k].append(bytes(e.payload))
                ),
            )
        function.pump()
        ues_a = decode_payload(payloads["a"][0], "fb", "mac_stats_report")["ues"]
        ues_b = decode_payload(payloads["b"][0], "fb", "mac_stats_report")["ues"]
        assert [ue["rnti"] for ue in ues_a] == [0, 1, 2, 3]
        assert [ue["rnti"] for ue in ues_b] == [2]

    def test_control_origin_isolated(self):
        """A ping from controller B must not echo to controller A."""
        from repro.core.e2ap.ies import RicActionDefinition, RicActionKind
        from repro.core.server.submgr import SubscriptionCallbacks
        from repro.sm.hw import build_ping, INFO as HW

        _t, (server_a, server_b), agent = self._make()
        agent.register_function(HwRanFunction(sm_codec="fb"))
        agent.connect("ric-a")
        agent.connect("ric-b")
        pongs = {"a": [], "b": []}
        for server, key in ((server_a, "a"), (server_b, "b")):
            server.subscribe(
                conn_id=server.agents()[0].conn_id,
                ran_function_id=HW.default_function_id,
                event_trigger=b"",
                actions=[RicActionDefinition(1, RicActionKind.REPORT)],
                callbacks=SubscriptionCallbacks(
                    on_indication=lambda e, k=key: pongs[k].append(e.sequence)
                ),
            )
        server_b.control(
            server_b.agents()[0].conn_id,
            HW.default_function_id,
            b"",
            build_ping(1, b"x", "fb"),
        )
        assert pongs["b"] and not pongs["a"]
