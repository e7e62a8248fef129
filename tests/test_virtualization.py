"""Integration tests for the recursive virtualization controller."""

import pytest

from repro.controllers.slicing import SlicingControllerIApp
from repro.controllers.virtualization import (
    TenantConfig,
    VirtualizationController,
    virtualize_slice,
    _TenantState,
)
from repro.core.simclock import SimClock
from repro.core.server import Server, ServerConfig
from repro.core.transport import InProcTransport
from repro.ran.base_station import BaseStation, BaseStationConfig, attach_agent
from repro.ran.phy import LTE_CELL_10MHZ
from repro.sm.slice_ctrl import ALGO_NVS, KIND_RATE, SliceConfig


def tenant_state(share=0.5, index=0, subscribers=(1, 2)):
    return _TenantState(
        config=TenantConfig(name="A", share=share, subscribers=set(subscribers)),
        index=index,
    )


class TestAppendixBMath:
    def test_capacity_scaling(self):
        """Appendix B: c_phys = q * c_virt."""
        state = tenant_state(share=0.5)
        physical = virtualize_slice(SliceConfig(slice_id=1, cap=0.66), state)
        assert physical.cap == pytest.approx(0.33)
        assert physical.slice_id == 11  # tenant 0 range is 10-19

    def test_rate_reference_scaling(self):
        """Appendix B example: 5 Mbps over 50 (10 %) at q=0.5 maps to
        5 Mbps over 100 (5 %)."""
        state = tenant_state(share=0.5)
        virtual = SliceConfig(
            slice_id=2, kind=KIND_RATE, rate_mbps=5.0, ref_mbps=50.0
        )
        physical = virtualize_slice(virtual, state)
        assert physical.rate_mbps == pytest.approx(5.0)
        assert physical.ref_mbps == pytest.approx(100.0)
        assert physical.resource_share == pytest.approx(0.05)

    def test_id_ranges_disjoint_per_tenant(self):
        first = tenant_state(index=0)
        second = tenant_state(index=1)
        ids_first = {first.to_physical_id(v) for v in range(10)}
        ids_second = {second.to_physical_id(v) for v in range(10)}
        assert not ids_first & ids_second

    def test_virtual_id_out_of_range(self):
        with pytest.raises(ValueError):
            tenant_state().to_physical_id(10)

    def test_to_virtual_id_inverse(self):
        state = tenant_state(index=2)
        assert state.to_virtual_id(state.to_physical_id(7)) == 7
        assert state.to_virtual_id(5) is None

    def test_guarantee_never_exceeds_sla(self):
        """For any admitted virtual config, the physical shares sum to
        at most the SLA (the Appendix B guarantee)."""
        state = tenant_state(share=0.4)
        configs = [
            SliceConfig(slice_id=0, cap=0.5),
            SliceConfig(slice_id=1, cap=0.3),
            SliceConfig(slice_id=2, kind=KIND_RATE, rate_mbps=2.0, ref_mbps=10.0),
        ]
        assert sum(c.resource_share for c in configs) <= 1.0
        physical_total = sum(
            virtualize_slice(c, state).resource_share for c in configs
        )
        assert physical_total <= state.config.share + 1e-9


def build_shared_setup():
    """One BS + virtualization controller + two tenant controllers."""
    clock = SimClock()
    transport = InProcTransport()
    tenant_servers = {}
    tenant_iapps = {}
    for name in ("A", "B"):
        server = Server(ServerConfig(e2ap_codec="fb"))
        server.listen(transport, f"tenant-{name}")
        iapp = SlicingControllerIApp(sm_codec="fb", stats_period_ms=10.0)
        server.add_iapp(iapp)
        tenant_servers[name] = server
        tenant_iapps[name] = iapp
    virt = VirtualizationController(
        transport,
        "virt",
        tenants=[
            TenantConfig("A", 0.5, {1, 2}),
            TenantConfig("B", 0.5, {3, 4}),
        ],
        e2ap_codec="fb",
        sm_codec="fb",
        stats_period_ms=10.0,
    )
    bs = BaseStation(BaseStationConfig(phy=LTE_CELL_10MHZ), clock)
    agent = attach_agent(bs, transport, e2ap_codec="fb", sm_codec="fb")
    agent.connect("virt")
    virt.connect_tenant("A", "tenant-A")
    virt.connect_tenant("B", "tenant-B")
    return clock, transport, bs, virt, tenant_servers, tenant_iapps


class TestVirtualizationController:
    def test_sla_admission_at_construction(self):
        with pytest.raises(ValueError):
            VirtualizationController(
                InProcTransport(),
                "v",
                tenants=[TenantConfig("A", 0.7), TenantConfig("B", 0.7)],
            )

    def test_bootstrap_installs_nvs_and_default_slices(self):
        clock, _t, bs, virt, _servers, _iapps = build_shared_setup()
        assert bs.mac.algo == ALGO_NVS
        snapshot = bs.mac.slice_snapshot()
        shares = {entry["slice_id"]: entry["share"] for entry in snapshot["slices"]}
        assert shares == {10: 0.5, 20: 0.5}

    def test_new_ue_lands_in_tenant_default_slice(self):
        clock, _t, bs, virt, _servers, _iapps = build_shared_setup()
        bs.attach_ue(1, fixed_mcs=28)   # subscriber of A
        bs.attach_ue(3, fixed_mcs=28)   # subscriber of B
        snapshot = bs.mac.slice_snapshot()
        members = {e["slice_id"]: e["members"] for e in snapshot["slices"]}
        assert members[10] == [1]
        assert members[20] == [3]

    def test_tenants_see_virtual_agent(self):
        _clock, _t, _bs, _virt, servers, _iapps = build_shared_setup()
        for name, server in servers.items():
            assert len(server.agents()) == 1

    def test_tenant_slice_mapping_end_to_end(self):
        clock, _t, bs, virt, servers, iapps = build_shared_setup()
        bs.attach_ue(1, fixed_mcs=28)
        bs.attach_ue(2, fixed_mcs=28)
        iapp = iapps["A"]
        conn = servers["A"].agents()[0].conn_id
        iapp.add_slice(conn, SliceConfig(slice_id=1, cap=0.66))
        iapp.add_slice(conn, SliceConfig(slice_id=2, cap=0.33))
        iapp.associate_ue(conn, 1, 1)
        iapp.associate_ue(conn, 2, 2)
        assert iapp.control_outcomes == [True, True, True, True]
        snapshot = bs.mac.slice_snapshot()
        shares = {e["slice_id"]: round(e["share"], 3) for e in snapshot["slices"]}
        # A's default gone (0.66+0.33 fill the SLA); 11/12 scaled by 0.5.
        assert 10 not in shares
        assert shares[11] == pytest.approx(0.33)
        assert shares[12] == pytest.approx(0.165)
        assert shares[20] == 0.5  # B untouched
        members = {e["slice_id"]: e["members"] for e in snapshot["slices"]}
        assert members[11] == [1] and members[12] == [2]

    def test_virtual_admission_control(self):
        _clock, _t, _bs, virt, servers, iapps = build_shared_setup()
        iapp = iapps["A"]
        conn = servers["A"].agents()[0].conn_id
        iapp.add_slice(conn, SliceConfig(slice_id=1, cap=0.8))
        iapp.add_slice(conn, SliceConfig(slice_id=2, cap=0.5))  # 1.3 > 1 virt
        assert iapp.control_outcomes == [True, False]

    def test_assoc_foreign_subscriber_refused(self):
        clock, _t, bs, virt, servers, iapps = build_shared_setup()
        bs.attach_ue(3, fixed_mcs=28)  # B's subscriber
        iapp = iapps["A"]
        conn = servers["A"].agents()[0].conn_id
        iapp.add_slice(conn, SliceConfig(slice_id=1, cap=0.5))
        iapp.associate_ue(conn, 3, 1)
        assert iapp.control_outcomes[-1] is False

    def test_mac_stats_partitioned_per_tenant(self):
        clock, _t, bs, virt, servers, iapps = build_shared_setup()
        for rnti in (1, 2, 3, 4):
            bs.attach_ue(rnti, fixed_mcs=28)
        bs.start()
        clock.run_until(0.05)
        for name, expected in (("A", [1, 2]), ("B", [3, 4])):
            iapp = iapps[name]
            conn = servers[name].agents()[0].conn_id
            stats = iapp.latest_mac_stats(conn)
            assert [ue["rnti"] for ue in stats["ues"]] == expected

    def test_rrc_events_partitioned(self):
        clock, _t, bs, virt, servers, iapps = build_shared_setup()
        bs.attach_ue(1, fixed_mcs=28)
        bs.attach_ue(3, fixed_mcs=28)
        conn_a = servers["A"].agents()[0].conn_id
        conn_b = servers["B"].agents()[0].conn_id
        assert (conn_a, 1) in iapps["A"].ues
        assert (conn_a, 3) not in iapps["A"].ues
        assert (conn_b, 3) in iapps["B"].ues
        assert (conn_b, 1) not in iapps["B"].ues

    def test_del_slice_restores_default(self):
        clock, _t, bs, virt, servers, iapps = build_shared_setup()
        iapp = iapps["A"]
        conn = servers["A"].agents()[0].conn_id
        iapp.add_slice(conn, SliceConfig(slice_id=1, cap=1.0))
        snapshot = bs.mac.slice_snapshot()
        ids = {e["slice_id"] for e in snapshot["slices"]}
        assert ids == {11, 20}
        iapp.delete_slice(conn, 1)
        snapshot = bs.mac.slice_snapshot()
        shares = {e["slice_id"]: e["share"] for e in snapshot["slices"]}
        assert shares == {10: 0.5, 20: 0.5}


def build_limited_setup(ind_capacity=0.0, ctrl_capacity=0.0):
    """build_shared_setup with the §13 per-tenant fair-share limiters."""
    clock = SimClock()
    transport = InProcTransport()
    tenant_servers = {}
    tenant_iapps = {}
    for name in ("A", "B"):
        server = Server(ServerConfig(e2ap_codec="fb"))
        server.listen(transport, f"tenant-{name}")
        iapp = SlicingControllerIApp(sm_codec="fb", stats_period_ms=10.0)
        server.add_iapp(iapp)
        tenant_servers[name] = server
        tenant_iapps[name] = iapp
    virt = VirtualizationController(
        transport,
        "virt",
        tenants=[
            TenantConfig("A", 0.5, {1, 2}),
            TenantConfig("B", 0.5, {3, 4}),
        ],
        e2ap_codec="fb",
        sm_codec="fb",
        stats_period_ms=10.0,
        controller_ind_capacity_s=ind_capacity,
        controller_ctrl_capacity_s=ctrl_capacity,
    )
    bs = BaseStation(BaseStationConfig(phy=LTE_CELL_10MHZ), clock)
    agent = attach_agent(bs, transport, e2ap_codec="fb", sm_codec="fb")
    agent.connect("virt")
    virt.connect_tenant("A", "tenant-A")
    virt.connect_tenant("B", "tenant-B")
    return clock, transport, bs, virt, tenant_servers, tenant_iapps


class TestControllerFairness:
    """NVS shares extended to controller capacity (DESIGN.md §13.4)."""

    def setup_method(self):
        from repro.metrics.counters import reset_all

        reset_all()

    def test_limiters_disabled_by_default(self):
        _c, _t, _bs, virt, _servers, _iapps = build_shared_setup()
        assert virt.ind_limiter is None and virt.ctrl_limiter is None
        tenant = virt.tenant("A")
        # Unlimited: a tight burst far beyond any plausible share passes.
        assert all(virt.acquire_indication(tenant) for _ in range(1000))

    def test_share_scales_tenant_rate(self):
        from repro.core.overload import FairShareLimiter

        limiter = FairShareLimiter(100.0, {"A": 0.7, "B": 0.3})
        assert limiter._buckets["A"].rate == pytest.approx(70.0)
        assert limiter._buckets["B"].rate == pytest.approx(30.0)

    def test_greedy_tenant_indications_capped_others_unaffected(self):
        from repro.metrics.counters import counter_values

        # share 0.5 of 40/s => rate 20/s, burst 5 (0.25 s window): a
        # tight loop exhausts A's burst before any meaningful refill.
        _c, _t, _bs, virt, _servers, _iapps = build_limited_setup(
            ind_capacity=40.0
        )
        a, b = virt.tenant("A"), virt.tenant("B")
        granted = sum(1 for _ in range(50) if virt.acquire_indication(a))
        assert 5 <= granted <= 10  # burst + a sliver of refill
        assert counter_values().get("overload.tenant.A.ind_drops", 0) >= 40
        # B's bucket is untouched by A's greed.
        assert virt.acquire_indication(b)
        assert counter_values().get("overload.tenant.B.ind_drops", 0) == 0

    def test_control_budget_refused_through_sm(self):
        from repro.metrics.counters import counter_values

        # share 0.5 of 8/s => rate 4/s, burst 1: the second back-to-back
        # control from the same tenant is refused with ADMISSION_REFUSED
        # through the normal xApp failure path.
        _c, _t, bs, virt, servers, iapps = build_limited_setup(
            ctrl_capacity=8.0
        )
        iapp = iapps["A"]
        conn = servers["A"].agents()[0].conn_id
        iapp.add_slice(conn, SliceConfig(slice_id=1, cap=0.4))
        iapp.add_slice(conn, SliceConfig(slice_id=2, cap=0.4))
        assert iapp.control_outcomes == [True, False]
        assert counter_values().get("overload.tenant.A.ctrl_rejects", 0) == 1
        # Only the admitted slice reached the radio.
        snapshot = bs.mac.slice_snapshot()
        ids = {e["slice_id"] for e in snapshot["slices"]}
        assert 11 in ids and 12 not in ids
        # B spends from its own bucket, unaffected by A's refusal.
        iapp_b = iapps["B"]
        conn_b = servers["B"].agents()[0].conn_id
        iapp_b.add_slice(conn_b, SliceConfig(slice_id=1, cap=0.4))
        assert iapp_b.control_outcomes == [True]

    def test_tenant_rate_state_snapshot(self):
        _c, _t, _bs, virt, _servers, _iapps = build_limited_setup(
            ind_capacity=100.0, ctrl_capacity=10.0
        )
        state = virt.tenant_rate_state()
        for key, capacity in (("indications", 100.0), ("controls", 10.0)):
            per_tenant = state[key]
            assert set(per_tenant) == {"A", "B"}
            for name in ("A", "B"):
                entry = per_tenant[name]
                assert entry["share"] == pytest.approx(0.5)
                assert entry["rate_per_s"] == pytest.approx(0.5 * capacity)
                assert entry["tokens"] >= 0
