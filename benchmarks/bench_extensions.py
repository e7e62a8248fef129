"""Benchmark for the extension feature beyond the paper's core eval:
the §6.3 xApp host's subscription merging.
"""

from repro.controllers.xapp_host import HostedXapp, XappHostIApp
from repro.core.agent import Agent, AgentConfig
from repro.core.e2ap.ies import GlobalE2NodeId, NodeKind
from repro.core.server import Server, ServerConfig
from repro.core.transport import InProcTransport
from repro.sm.mac_stats import MacStatsFunction, synthetic_provider, INFO as MAC


class _Subscriber(HostedXapp):
    def __init__(self, name):
        super().__init__()
        self.name = name

    def on_start(self, api):
        super().on_start(api)
        for node in api.nodes():
            api.subscribe_sm(node.conn_id, MAC.oid, 1.0)


def test_ext_subscription_merging(once, benchmark):
    """10 xApps asking for the same data: 1 E2 subscription, local fan-out."""

    def deploy_fleet():
        transport = InProcTransport()
        server = Server(ServerConfig(e2ap_codec="fb"))
        server.listen(transport, "ric")
        host = XappHostIApp(sm_codec="fb")
        server.add_iapp(host)
        agent = Agent(
            AgentConfig(node_id=GlobalE2NodeId("00101", 1, NodeKind.GNB)), transport
        )
        function = MacStatsFunction(provider=synthetic_provider(32), sm_codec="fb")
        agent.register_function(function)
        agent.connect("ric")
        for index in range(10):
            host.deploy(_Subscriber(f"xapp-{index}"))
        return host, function

    host, function = once(deploy_fleet)
    benchmark.extra_info.update(
        {
            "extension": "xApp host subscription merging",
            "xapps": 10,
            "e2_subscriptions": host.merged_subscriptions,
            "merges_saved": host.merges_saved,
        }
    )
    assert host.merged_subscriptions == 1
    assert len(function.subscriptions) == 1
