"""Smoke tests: every experiment harness runs (scaled down) and its
headline shape from the paper holds.

These are the repository's end-to-end guarantees — each test pins one
qualitative claim of the evaluation section.
"""

import sys
import time
from collections import Counter

import pytest

from repro.baselines.oran import HwXapp, OranRic
from repro.controllers.monitoring import StatsMonitorIApp
from repro.controllers.relay import RelayController
from repro.core.agent import Agent, AgentConfig
from repro.core.e2ap.ies import GlobalE2NodeId, NodeKind
from repro.core.server import Server, ServerConfig
from repro.core.transport import InProcTransport, TcpTransport
from repro.experiments import fig6, fig7, fig8, fig9, fig11, fig13, fig15, table2
from repro.experiments.common import HwPingerIApp, pin_cost_model
from repro.sm import hw, mac_stats

_NODE = GlobalE2NodeId("00101", 1, NodeKind.GNB)


def _profile(fn, within=None) -> Counter:
    """The profiled events of ``fn()``: ``"calls"`` counts every
    ``call`` and ``c_call``, and each Python function's name counts its
    ``call``s.  With ``within`` (a code object), only the events raised
    while a frame of it runs are counted."""
    counts = Counter()
    depth = [0 if within is not None else 1]

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code is within:
            depth[0] += 1
        if depth[0] > 0 and event in ("call", "c_call"):
            counts["calls"] += 1
            if event == "call":
                counts[frame.f_code.co_name] += 1
        if event == "return" and frame.f_code is within:
            depth[0] -= 1

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return counts


def _pump_until(transport, done, what: str) -> None:
    deadline = time.monotonic() + 5.0
    while not done():
        transport.step(0.05)
        assert time.monotonic() < deadline, f"{what} did not complete"


def _least(ping) -> Counter:
    """The profile of the cheapest of five ``ping()``s, after ten
    warm-up pings (sockets, codec caches; a reply can take one more
    loop step)."""
    for _ in range(10):
        ping()
    return min((_profile(ping) for _ in range(5)), key=lambda counts: counts["calls"])


@pin_cost_model
def _calls_per_inline_ping(codec: str, payload: int) -> int:
    """Profiled calls of one ``codec``/``codec`` HW ping of ``payload``
    octets, both ends on one inline-stepped TCP loop as in
    ``fig7.run_flexric_rtt``."""
    transport = TcpTransport()
    try:
        server = Server(ServerConfig(e2ap_codec=codec))
        listener = server.listen(transport, "127.0.0.1:0")
        pinger = HwPingerIApp(sm_codec=codec)
        server.add_iapp(pinger)
        agent = Agent(AgentConfig(node_id=_NODE, e2ap_codec=codec), transport)
        agent.register_function(hw.HwRanFunction(sm_codec=codec))
        agent.connect_async(listener.address)
        _pump_until(transport, pinger.subscribed.is_set, "subscription")
        data = b"p" * payload
        return _least(lambda: pinger.ping(data, pump=lambda: transport.step(0.05)))["calls"]
    finally:
        transport.stop()


@pin_cost_model
def _flexric_two_hop_ping(payload: int) -> Counter:
    """The profile of one ``fb`` HW ping through the relaying controller, as in
    ``fig9.run_flexric_two_hop``: pinger, relay and agent on one
    inline-stepped TCP loop."""
    transport = TcpTransport()
    try:
        relay = RelayController(
            transport, "127.0.0.1:0",
            forward=[(hw.INFO.oid, hw.INFO.name, hw.INFO.default_function_id)],
            e2ap_codec="fb",
        )
        agent = Agent(AgentConfig(node_id=_NODE, e2ap_codec="fb"), transport)
        agent.register_function(hw.HwRanFunction(sm_codec="fb"))
        agent.connect_async(relay.server._listeners[0].address)
        _pump_until(transport, lambda: relay.south_function(hw.INFO.oid) is not None, "south setup")
        upstream = Server(ServerConfig(e2ap_codec="fb"))
        listener = upstream.listen(transport, "127.0.0.1:0")
        pinger = HwPingerIApp(sm_codec="fb")
        upstream.add_iapp(pinger)
        relay.connect_upstream_async(listener.address)
        _pump_until(transport, pinger.subscribed.is_set, "two-hop subscription")
        data = b"p" * payload
        return _least(lambda: pinger.ping(data, pump=lambda: transport.step(0.05)))
    finally:
        transport.stop()


@pin_cost_model
def _oran_two_hop_ping(payload: int) -> Counter:
    """The profile of one HW ping through the O-RAN RIC, as in
    ``fig9.run_oran_two_hop`` (E2 termination, RMR over real sockets,
    xApp, ``asn`` end to end), every hop on one inline-stepped TCP loop
    instead of a started one."""
    transport = TcpTransport()
    try:
        ric = OranRic()
        listener = ric.e2term.listen(transport, "127.0.0.1:0")
        xapp = HwXapp(ric.router, ric.dbaas_store)
        ric.deploy_xapp(xapp)
        ric.router.attach_all_sockets(transport)
        agent = Agent(AgentConfig(node_id=_NODE, e2ap_codec="asn"), transport)
        agent.register_function(hw.HwRanFunction(sm_codec="asn"))
        agent.connect_async(listener.address)
        _pump_until(transport, xapp.poll_rnib, "E2 setup")
        meid = xapp.poll_rnib()[0]
        function_id = xapp.function_id_for(meid, hw.INFO.oid)
        xapp.subscribe(meid, function_id, 0)
        _pump_until(transport, xapp.subscription_confirmed.is_set, "O-RAN subscription")
        data = b"p" * payload

        def ping():
            pongs = len(xapp.rtts_us) + 1
            xapp.ping(meid, function_id, data)
            _pump_until(transport, lambda: len(xapp.rtts_us) >= pongs, "O-RAN ping")

        return _least(ping)
    finally:
        transport.stop()


@pin_cost_model
def _server_calls_per_round(n_agents: int) -> int:
    """Profiled calls the Fig. 8b server (``fb`` E2AP, the statistics
    iApp) makes ingesting one 32-UE MAC report from each of ``n_agents``
    dummy agents; the least of five rounds after a warm-up one."""
    transport = InProcTransport()
    server = Server(ServerConfig(e2ap_codec="fb"))
    server.listen(transport, "ric")
    server.add_iapp(StatsMonitorIApp(oids=[mac_stats.INFO.oid], period_ms=1.0, sm_codec="fb"))
    functions = [
        fig8._dummy_agent(transport, "ric", nb_id, "fb", "fb") for nb_id in range(1, n_agents + 1)
    ]

    def one_round():
        for function in functions:
            function.pump()

    one_round()
    return min(
        _profile(one_round, within=Server._on_messages.__code__)["calls"] for _ in range(5)
    )


class TestFig6:
    def test_agent_overhead_small_vs_user_plane(self):
        result = fig6.run_flexric_radio(
            fig6.LTE_CELL_5MHZ, n_ues=3, mcs=28, duration_s=0.5
        )
        assert result.bs_cpu_percent == pytest.approx(6.55, rel=0.02)
        assert 0 < result.agent_cpu_percent < result.bs_cpu_percent

    def test_nr_relative_overhead_lower(self):
        lte = fig6.run_flexric_radio(fig6.LTE_CELL_5MHZ, n_ues=3, mcs=28, duration_s=0.5)
        nr = fig6.run_flexric_radio(fig6.NR_CELL_20MHZ, n_ues=3, mcs=20, duration_s=0.5)
        assert (nr.agent_cpu_percent / nr.bs_cpu_percent) < (
            lte.agent_cpu_percent / lte.bs_cpu_percent
        )

    def test_l2sim_flexric_at_or_below_flexran_for_many_ues(self):
        # Each point is a 0.3 s sample of process CPU time: a collection
        # or a busy sibling core landing in one sample can swap two
        # neighbouring variants.  The minimum across repetitions is
        # each variant's clean cost, as for the RTTs below.
        by_variant = {}
        for _ in range(2):
            for point in fig6.run_fig6b(ue_counts=[16], duration_s=0.3):
                by_variant[point.variant] = min(
                    point.cpu_percent, by_variant.get(point.variant, point.cpu_percent)
                )
        assert by_variant["flexric"] < by_variant["flexran"]
        assert by_variant["none"] < by_variant["flexric"]


class TestFig7:
    def test_fb_fb_fastest_rtt(self):
        results = {
            (r.label, r.payload): r.summary.p50
            for r in [
                fig7.run_flexric_rtt("asn", "asn", 1500, pings=15),
                fig7.run_flexric_rtt("fb", "fb", 1500, pings=15),
            ]
        }
        assert results[("fb/fb", 1500)] < results[("asn/asn", 1500)]

    def test_asn_gap_grows_with_payload(self):
        # The qualitative claim (the ASN.1 penalty grows with payload,
        # §5.2), decided on the interpreter work of one inline ping
        # under the paper's codec cost model: its RTT margin is tens of
        # microseconds, which one noisy repetition could flip.
        calls = {
            (codec, size): _calls_per_inline_ping(codec, size)
            for codec in ("asn", "fb")
            for size in (100, 1500)
        }
        asn_growth = calls["asn", 1500] - calls["asn", 100]
        fb_growth = calls["fb", 1500] - calls["fb", 100]
        assert asn_growth > 0, calls
        assert asn_growth > fb_growth, calls

    def test_signaling_shapes(self):
        rows = {
            (row["label"], row["payload"]): row["mbps"]
            for row in fig7.run_signaling_sweep()
        }
        # FB adds ~67 % at 100 B, nearly nothing at 1500 B.
        small_ratio = rows[("fb/fb", 100)] / rows[("asn/asn", 100)]
        large_ratio = rows[("fb/fb", 1500)] / rows[("asn/asn", 1500)]
        assert small_ratio > 1.3
        assert large_ratio < 1.15
        # FlexRAN smallest (no double encoding).
        assert rows[("FlexRAN", 100)] < rows[("asn/asn", 100)]
        # Paper's ballpark: ~12-13 Mbps at 1500 B per direction pair x2.
        assert 10.0 < rows[("asn/asn", 1500)] < 40.0


class TestFig8:
    def test_flexric_order_of_magnitude_less_cpu(self):
        flexric = fig8.run_flexric_controller(reports=200)
        flexran = fig8.run_flexran_controller(reports=200)
        assert flexran.cpu_percent > 5.0 * flexric.cpu_percent
        assert flexran.memory_mb > flexric.memory_mb

    def test_asn_vs_fb_scaling(self):
        # Best of three interleaved repetitions, as TestFig9: additive
        # scheduler noise inflates the ~4x smaller fb reading
        # proportionally more, and one run each read 3.5 once in five
        # (and failed once under a full-suite run).
        pairs = [
            (
                fig8.run_fig8b_point("asn", n_agents=4, reports=50).cpu_percent,
                fig8.run_fig8b_point("fb", n_agents=4, reports=50).cpu_percent,
            )
            for _ in range(3)
        ]
        asn = min(pair[0] for pair in pairs)
        fb = min(pair[1] for pair in pairs)
        assert asn > 3.0 * fb

    def test_cpu_grows_with_agents(self):
        # The server's work grows with the agents it serves, decided on
        # its profiled calls per reporting round under the paper's
        # codec cost model: the CPU-percent ratio of 50 reports flaked
        # on a loaded host.
        few = _server_calls_per_round(2)
        many = _server_calls_per_round(8)
        assert many > 2.0 * few, (few, many)

    def test_signaling_near_700mbps_at_18_agents(self):
        point = fig8.run_fig8b_point("fb", n_agents=18, reports=5)
        assert 400.0 < point.signaling_mbps < 1500.0


class TestTable2:
    def test_rows_match_paper(self):
        rows = {row.component: row for row in table2.run_table2()}
        for component, row in rows.items():
            assert row.modelled_mb == pytest.approx(row.paper_mb, rel=0.02), component

    def test_platform_ratio(self):
        assert table2.platform_to_flexric_ratio() > 20.0


class TestFig9:
    def test_oran_two_hop_ping_costs_more_than_flexric(self):
        # Fig. 9a decided on the interpreter work of one 1500 B two-hop
        # ping under the paper's codec cost model, every hop on one
        # inline loop: a wall-clock p50 ratio flaked on a loaded host.
        # The counts carry the direction, not the RTT's 2x factor
        # (O-RAN's thread wake-ups are not calls), and the mechanism
        # of §5.4: E2 termination and xApp each decode the pong, on top
        # of the control's decodes at the termination and the agent.
        flexric = _flexric_two_hop_ping(1500)
        oran = _oran_two_hop_ping(1500)
        assert oran["calls"] > flexric["calls"], (flexric["calls"], oran["calls"])
        assert oran["decode_message"] >= 4, oran["decode_message"]

    def test_monitoring_cpu_and_memory(self):
        flexric, oran = fig9.run_fig9b(n_agents=4, reports=50)
        # "83 % less CPU" -> at least 5x here.
        assert oran.cpu_percent > 5.0 * flexric.cpu_percent
        assert oran.memory_mb > 100.0 * max(flexric.memory_mb, 0.001)
        # The xApp alone costs at least as much as all of FlexRIC.
        assert oran.xapp_cpu_percent >= flexric.cpu_percent


class TestFig11:
    @pytest.fixture(scope="class")
    def runs(self):
        transparent = fig11.run_fig11("transparent", duration_s=15.0)
        xapp = fig11.run_fig11("xapp", duration_s=15.0)
        return transparent, xapp

    def test_transparent_bufferbloat(self, runs):
        transparent, _xapp = runs
        voip_late = [
            s.rlc_sojourn_ms for s in transparent.sojourns
            if s.flow == "voip" and s.time_s > 10.0
        ]
        assert sum(voip_late) / len(voip_late) > 100.0  # hundreds of ms

    def test_xapp_rescues_voip(self, runs):
        _transparent, xapp = runs
        assert xapp.xapp_triggered_at_ms is not None
        voip_late = [
            s.rlc_sojourn_ms + s.tc_sojourn_ms
            for s in xapp.sojourns
            if s.flow == "voip" and s.time_s > 10.0
        ]
        assert sum(voip_late) / len(voip_late) < 30.0

    def test_greedy_backlog_moves_to_tc(self, runs):
        _transparent, xapp = runs
        cubic_late = [
            s.tc_sojourn_ms for s in xapp.sojourns
            if s.flow == "cubic" and s.time_s > 10.0
        ]
        assert sum(cubic_late) / len(cubic_late) > 100.0

    def test_rtt_speedup_at_least_4x(self, runs):
        transparent, xapp = runs
        assert fig11.rtt_speedup(transparent, xapp) > 4.0

    def test_goodput_preserved(self, runs):
        transparent, xapp = runs
        assert xapp.cubic_delivered_mbps == pytest.approx(
            transparent.cubic_delivered_mbps, rel=0.1
        )


class TestFig13:
    def test_isolation_phases(self):
        phases = {p.phase: p for p in fig13.run_fig13a(phase_s=3.0)}
        t1 = phases["t1/None"]
        assert t1.per_ue_mbps[1] == pytest.approx(t1.per_ue_mbps[2], rel=0.05)
        t2 = phases["t2/None"]
        assert t2.per_ue_mbps[1] == pytest.approx(t2.total_mbps / 3, rel=0.1)
        t3 = phases["t3/NVS"]
        assert t3.per_ue_mbps[1] == pytest.approx(0.5 * t3.total_mbps, rel=0.05)
        t4 = phases["t4/NVS"]
        assert t4.per_ue_mbps[1] == pytest.approx(0.66 * t4.total_mbps, rel=0.05)

    def test_sharing_gain(self):
        static = fig13.run_fig13b("static", duration_s=40.0)
        nvs = fig13.run_fig13b("nvs", duration_s=40.0)
        assert fig13.sharing_gain(static, nvs) > 1.35


class TestFig15:
    @pytest.fixture(scope="class")
    def shared(self):
        return fig15.run_shared(duration_s=45.0)

    def test_isolation_between_operators(self, shared):
        assert fig15.isolation_check(shared) == pytest.approx(1.0, abs=0.05)

    def test_sub_slice_split_inside_a(self, shared):
        ue1 = shared[1].mean_between(13, 19)
        ue2 = shared[2].mean_between(13, 19)
        assert ue1 / (ue1 + ue2) == pytest.approx(0.66, abs=0.05)

    def test_intra_tenant_takeover(self, shared):
        # UE4 doubles when UE3 stops (within operator B's share).
        before = shared[4].mean_between(13, 19)
        after = shared[4].mean_between(22, 30)
        assert after == pytest.approx(2.0 * before, rel=0.1)

    def test_multiplexing_gain(self, shared):
        assert fig15.multiplexing_gain(shared) == pytest.approx(2.0, abs=0.15)

    def test_dedicated_wastes_idle_cell(self):
        dedicated = fig15.run_dedicated(duration_s=45.0)
        a_total_idle_b = dedicated[1].mean_between(34, 41) + dedicated[2].mean_between(34, 41)
        a_total_busy_b = dedicated[1].mean_between(13, 19) + dedicated[2].mean_between(13, 19)
        assert a_total_idle_b == pytest.approx(a_total_busy_b, rel=0.1)
