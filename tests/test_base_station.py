"""Integration tests for the base station and its agent wiring."""

import pytest

from repro.core.simclock import SimClock
from repro.core.server import Server, ServerConfig
from repro.core.transport import InProcTransport
from repro.ran.base_station import (
    BaseStation,
    BaseStationConfig,
    attach_agent,
    split_base_station,
)
from repro.ran.l2sim import L2Simulator
from repro.ran.phy import transport_block_bytes
from repro.sm import mac_stats, pdcp_stats, rlc_stats, rrc_conf, slice_ctrl, traffic_ctrl
from repro.traffic.flows import FiveTuple, Packet

FLOW = FiveTuple("1.1.1.1", "2.2.2.2", 10, 20, "udp")


def make_bs():
    clock = SimClock()
    return BaseStation(BaseStationConfig(), clock), clock


class TestLifecycle:
    def test_double_start_rejected(self):
        bs, _ = make_bs()
        bs.start()
        with pytest.raises(RuntimeError):
            bs.start()

    def test_stop_halts_ttis(self):
        bs, clock = make_bs()
        bs.start()
        clock.run_until(0.01)
        ttis = bs.mac.ttis_run
        bs.stop()
        clock.run_until(0.1)
        assert bs.mac.ttis_run == ttis

    def test_phy_cpu_charged(self):
        bs, clock = make_bs()
        bs.start()
        clock.run_until(1.0)
        sample = bs.cpu.sample(1.0)
        assert sample.normalized_percent == pytest.approx(8.66, rel=0.01)

    def test_phy_cpu_disabled_in_l2sim(self):
        sim = L2Simulator()
        sim.start()
        sim.clock.run_until(0.5)
        assert sim.cpu.busy_s == 0.0


class TestUeManagement:
    def test_attach_builds_full_chain(self):
        bs, _ = make_bs()
        bs.attach_ue(1, bearers=(1, 2))
        assert 1 in bs.mac.ues
        assert (1, 1) in bs.pdcp and (1, 2) in bs.pdcp
        assert (1, 1) in bs.tc and (1, 2) in bs.tc
        assert bs.sdap[1].bearers == [1, 2]

    def test_detach_cleans_up(self):
        bs, _ = make_bs()
        bs.attach_ue(1)
        bs.detach_ue(1)
        assert 1 not in bs.mac.ues
        assert not bs.pdcp and not bs.tc and not bs.sdap

    def test_detach_unknown(self):
        bs, _ = make_bs()
        with pytest.raises(KeyError):
            bs.detach_ue(5)

    def test_rrc_events_fire(self):
        bs, _ = make_bs()
        events = []
        bs.on_rrc_event(lambda *args: events.append(args))
        bs.attach_ue(1, plmn="00102", snssai=7)
        bs.detach_ue(1)
        assert events == [("attach", 1, "00102", 7), ("detach", 1, "00102", 7)]

    def test_deliver_to_unknown_ue(self):
        bs, _ = make_bs()
        with pytest.raises(KeyError):
            bs.deliver_downlink(9, Packet(flow=FLOW, size=10, created_at=0.0))


class TestDataPath:
    def test_end_to_end_throughput(self):
        bs, clock = make_bs()
        bs.start()
        ue = bs.attach_ue(1, fixed_mcs=20)
        for _ in range(3000):
            bs.deliver_downlink(1, Packet(flow=FLOW, size=1400, created_at=clock.now))
        clock.run_until(1.0)
        per_tti = transport_block_bytes(20, 106)
        # Cell drains at most one TBS per TTI.
        assert 0 < ue.total_bytes_dl <= per_tti * 1000

    def test_rate_estimator_tracks_service(self):
        bs, clock = make_bs()
        bs.start()
        bs.attach_ue(1, fixed_mcs=20)
        for _ in range(5000):
            bs.deliver_downlink(1, Packet(flow=FLOW, size=1400, created_at=clock.now))
        clock.run_until(0.5)
        rate = bs.rate_estimate_bps(1, 1)
        expected = transport_block_bytes(20, 106) * 8 / 0.001
        assert rate == pytest.approx(expected, rel=0.15)

    def test_tc_pipeline_in_path(self):
        """Installing a pacer on the bearer pipeline throttles the RLC."""
        bs, clock = make_bs()
        bs.start()
        bs.attach_ue(1, fixed_mcs=20)
        pipeline = bs.tc[(1, 1)]
        pipeline.add_queue(2)
        pipeline.set_pacer("bdp", {"target_ms": 2.0, "min_bytes": 3000})
        clock.run_until(0.2)  # let the rate estimator settle at idle
        for _ in range(2000):
            bs.deliver_downlink(1, Packet(flow=FLOW, size=1400, created_at=clock.now))
        clock.run_until(0.3)
        # RLC backlog stays near the pacer target, rest waits in TC.
        assert bs.rlc_of(1).backlog_bytes < 60_000
        assert pipeline.backlog_bytes > 0


class TestAgentIntegration:
    def _wire(self, which=None):
        bs, clock = make_bs()
        transport = InProcTransport()
        server = Server(ServerConfig(e2ap_codec="fb"))
        server.listen(transport, "ric")
        kwargs = {"which": which} if which else {}
        agent = attach_agent(bs, transport, e2ap_codec="fb", sm_codec="fb", **kwargs)
        agent.connect("ric")
        return bs, clock, server, agent

    def test_standard_bundle_advertised(self):
        _bs, _clock, server, _agent = self._wire()
        record = server.agents()[0]
        oids = {item.oid for item in record.functions.values()}
        assert oids == {
            mac_stats.INFO.oid,
            rlc_stats.INFO.oid,
            pdcp_stats.INFO.oid,
            rrc_conf.INFO.oid,
            slice_ctrl.INFO.oid,
            traffic_ctrl.INFO.oid,
        }

    def test_ue_map_follows_attach(self):
        bs, _clock, _server, agent = self._wire()
        bs.attach_ue(4)
        assert agent.ue_map.visible_ues(0) == {4}
        bs.detach_ue(4)
        assert agent.ue_map.visible_ues(0) == set()

    def test_periodic_stats_flow_on_clock(self):
        from repro.controllers.monitoring import StatsMonitorIApp

        bs, clock, server, _agent = self._wire()
        # re-wire with a monitor: simpler to add iapp after the fact
        monitor = StatsMonitorIApp(oids=[mac_stats.INFO.oid], period_ms=10.0, sm_codec="fb")
        server.add_iapp(monitor)
        monitor.on_agent_connected(server.agents()[0])
        bs.attach_ue(1, fixed_mcs=20)
        bs.start()
        clock.run_until(0.1)
        assert monitor.indications_received == pytest.approx(10, abs=2)


class TestMacStatsForTwoControllers:
    """§4.1.2: two controllers subscribed to the MAC stats of one cell.

    The period counters are harvested once per reporting instant, so a
    second subscription reading at the same instant reports the same
    period (filtered by its visibility) instead of the zeros the first
    read left behind."""

    def test_every_subscription_reports_the_same_period(self):
        from repro.core.agent.ran_function import IndicationSink, SubscriptionHandle
        from repro.core.e2ap.ies import RicActionDefinition, RicActionKind, RicRequestId
        from repro.sm.base import PeriodicTrigger, decode_payload

        bs, clock = make_bs()
        bs.attach_ue(1, fixed_mcs=20)
        bs.attach_ue(2, fixed_mcs=20)
        reports = {0: [], 1: []}

        class Sink(IndicationSink):
            def send_indication(self, origin, indication):
                tree = decode_payload(indication.payload, "fb", schema=mac_stats.INFO.payload_schema)
                ues, tstamp_ms = mac_stats.report_from_value(tree)
                reports[origin].append(({ue.rnti: ue for ue in ues}, tstamp_ms))

        function = mac_stats.MacStatsFunction(
            bs.mac_stats_provider, visibility=lambda origin: None if origin == 0 else {1}
        )
        function.bind(Sink())
        for origin in (0, 1):
            handle = SubscriptionHandle(origin, RicRequestId(origin + 1, 1), function.ran_function_id)
            admitted, _ = function.on_subscription(
                handle, PeriodicTrigger(10.0).to_bytes("fb"), [RicActionDefinition(1, RicActionKind.REPORT)]
            )
            assert len(admitted) == 1
        bs.start()
        for instant in (0.1, 0.2):
            for _ in range(200):
                bs.deliver_downlink(1, Packet(flow=FLOW, size=1500, created_at=clock.now))
            clock.run_until(instant)
            assert function.pump() == 2

        ue = bs.mac.ues[1]
        for (everyone, t0), (own, t1) in zip(reports[0], reports[1]):
            assert t0 == t1
            assert sorted(everyone) == [1, 2] and sorted(own) == [1]
            assert own[1] == everyone[1]
            assert own[1].bytes_dl > 0 and own[1].prbs_dl > 0
            assert everyone[2].bytes_dl == 0
        # Each instant reports what accumulated since the previous one.
        assert sum(report[1].bytes_dl for report, _t in reports[1]) == ue.total_bytes_dl
        assert len(reports[0]) == len(reports[1]) == 2


class TestDisaggregation:
    def test_cu_du_expose_layer_functions(self):
        bs, _ = make_bs()
        cu, du = split_base_station(bs)
        transport = InProcTransport()
        server = Server(ServerConfig(e2ap_codec="fb"))
        server.listen(transport, "ric")
        cu_agent = cu.attach_agent(transport, e2ap_codec="fb", sm_codec="fb")
        du_agent = du.attach_agent(transport, e2ap_codec="fb", sm_codec="fb")
        cu_agent.connect("ric")
        du_agent.connect("ric")
        records = {record.node_id.kind.name: record for record in server.agents()}
        cu_oids = {item.oid for item in records["CU"].functions.values()}
        du_oids = {item.oid for item in records["DU"].functions.values()}
        assert mac_stats.INFO.oid in du_oids and mac_stats.INFO.oid not in cu_oids
        assert pdcp_stats.INFO.oid in cu_oids and pdcp_stats.INFO.oid not in du_oids
        assert slice_ctrl.INFO.oid in du_oids
        assert traffic_ctrl.INFO.oid in cu_oids

    def test_randb_merges_cu_du(self):
        from repro.core.server import events as topics

        bs, _ = make_bs()
        cu, du = split_base_station(bs)
        transport = InProcTransport()
        server = Server(ServerConfig(e2ap_codec="fb"))
        server.listen(transport, "ric")
        formed = []
        server.events.subscribe(topics.RAN_FORMED, formed.append)
        cu.attach_agent(transport, e2ap_codec="fb").connect("ric")
        assert formed == []  # CU alone is not a complete RAN
        du.attach_agent(transport, e2ap_codec="fb").connect("ric")
        assert len(formed) == 1
        entity = formed[0]
        assert entity.complete
        assert len(server.randb.entities()) == 1


class TestChannelVariation:
    def test_channel_model_drives_cqi(self):
        from repro.ran.phy import ChannelModel

        clock = SimClock()
        bs = BaseStation(
            BaseStationConfig(channel=ChannelModel(base_cqi=8, variation=3, seed=5)),
            clock,
        )
        ue = bs.attach_ue(1)  # no fixed MCS: link adaptation active
        bs.start()
        seen = set()
        for _ in range(50):
            clock.run_until(clock.now + 0.01)
            seen.add(ue.cqi)
        assert len(seen) > 1
        assert all(5 <= cqi <= 11 for cqi in seen)

    def test_varying_channel_varies_throughput(self):
        from repro.ran.phy import ChannelModel
        from repro.traffic.flows import FiveTuple, Packet

        clock = SimClock()
        bs = BaseStation(
            BaseStationConfig(channel=ChannelModel(base_cqi=8, variation=3, seed=9)),
            clock,
        )
        ue = bs.attach_ue(1)
        flow = FiveTuple("1.1.1.1", "2.2.2.2", 1, 2, "udp")

        def top_up():
            entity = bs.rlc_of(1)
            while entity.backlog_bytes < 100_000:
                entity.enqueue(Packet(flow=flow, size=1400, created_at=clock.now), clock.now)

        clock.call_every(0.001, top_up)
        bs.start()
        rates = []
        for _ in range(20):
            before = ue.total_bytes_dl
            clock.run_until(clock.now + 0.05)
            rates.append(ue.total_bytes_dl - before)
        assert len(set(rates)) > 1  # throughput tracks the channel
