"""Unit tests for the MAC layer: UE schedulers, slice algorithms."""

import pytest

from repro.ran.mac import MacLayer, ProportionalFairScheduler, RoundRobinScheduler
from repro.ran.phy import NR_CELL_20MHZ, transport_block_bytes
from repro.ran.rlc import RlcConfig, RlcEntity
from repro.ran.ue import UeContext
from repro.sm.slice_ctrl import ALGO_NVS, ALGO_STATIC, SliceConfig
from repro.traffic.flows import FiveTuple, Packet

FLOW = FiveTuple("1.1.1.1", "2.2.2.2", 10, 20, "udp")


def make_mac(n_ues=2, mcs=20):
    mac = MacLayer(NR_CELL_20MHZ)
    for rnti in range(1, n_ues + 1):
        mac.add_ue(UeContext(rnti=rnti, fixed_mcs=mcs))
        mac.attach_rlc(RlcEntity(rnti, 1, RlcConfig(capacity_bytes=10**9)))
    return mac


def fill(mac, rnti, n_bytes):
    entity = mac.rlc_of(rnti, 1)
    while entity.backlog_bytes < n_bytes:
        entity.enqueue(Packet(flow=FLOW, size=1400, created_at=0.0), 0.0)


class TestUeSchedulers:
    def test_rr_rotates(self):
        scheduler = RoundRobinScheduler()
        ues = [UeContext(rnti=r, fixed_mcs=20) for r in (1, 2, 3)]
        picks = [list(scheduler.allocate(ues, 106)) for _ in range(6)]
        assert picks == [[1], [2], [3], [1], [2], [3]]

    def test_rr_empty(self):
        assert RoundRobinScheduler().allocate([], 106) == {}

    def test_pf_equal_channels_equal_split(self):
        scheduler = ProportionalFairScheduler()
        ues = [UeContext(rnti=r, fixed_mcs=20) for r in (1, 2)]
        for _ in range(50):
            allocation = scheduler.allocate(ues, 106)
        assert allocation[1] == pytest.approx(allocation[2], abs=2)
        assert sum(allocation.values()) == 106

    def test_pf_unequal_channels_favors_better(self):
        scheduler = ProportionalFairScheduler()
        good = UeContext(rnti=1, fixed_mcs=28)
        bad = UeContext(rnti=2, fixed_mcs=5)
        total = {1: 0, 2: 0}
        for _ in range(100):
            allocation = scheduler.allocate([good, bad], 106)
            for rnti, prbs in allocation.items():
                total[rnti] += prbs
        # PF converges towards equal *time* share; bytes differ by MCS.
        assert total[1] == pytest.approx(total[2], rel=0.25)

    def test_pf_never_overallocates(self):
        scheduler = ProportionalFairScheduler()
        ues = [UeContext(rnti=r, fixed_mcs=10 + r) for r in range(1, 6)]
        for _ in range(20):
            allocation = scheduler.allocate(ues, 51)
            assert sum(allocation.values()) == 51


class TestMacNone:
    def test_serves_backlogged_only(self):
        mac = make_mac(2)
        fill(mac, 1, 50_000)
        served = mac.run_tti(0.001)
        assert served > 0
        assert mac.ues[1].bytes_dl > 0
        assert mac.ues[2].bytes_dl == 0

    def test_idle_cell(self):
        mac = make_mac(2)
        assert mac.run_tti(0.001) == 0

    def test_tbs_bounds_service(self):
        mac = make_mac(1)
        fill(mac, 1, 10**6)
        served = mac.run_tti(0.001)
        assert served <= transport_block_bytes(20, 106)

    def test_remove_ue(self):
        mac = make_mac(2)
        mac.remove_ue(1)
        assert 1 not in mac.ues
        assert mac.bearers_of(1) == []


class TestSliceControlApi:
    def test_set_unknown_algorithm(self):
        with pytest.raises(ValueError):
            make_mac().set_slice_algorithm("magic")

    def test_add_slice_admission(self):
        mac = make_mac()
        mac.add_slice(SliceConfig(slice_id=1, cap=0.7))
        with pytest.raises(ValueError):
            mac.add_slice(SliceConfig(slice_id=2, cap=0.5))

    def test_associate_requires_known_ue_and_slice(self):
        mac = make_mac()
        mac.add_slice(SliceConfig(slice_id=1, cap=0.5))
        with pytest.raises(ValueError):
            mac.associate_ue(99, 1)
        with pytest.raises(ValueError):
            mac.associate_ue(1, 9)

    def test_associate_moves_between_slices(self):
        mac = make_mac()
        mac.add_slice(SliceConfig(slice_id=1, cap=0.5))
        mac.add_slice(SliceConfig(slice_id=2, cap=0.5))
        mac.associate_ue(1, 1)
        mac.associate_ue(1, 2)
        snapshot = mac.slice_snapshot()
        members = {entry["slice_id"]: entry["members"] for entry in snapshot["slices"]}
        assert members[1] == [] and members[2] == [1]
        assert mac.ues[1].slice_id == 2

    def test_delete_slice_resets_members(self):
        mac = make_mac()
        mac.add_slice(SliceConfig(slice_id=1, cap=0.5))
        mac.associate_ue(1, 1)
        mac.delete_slice(1)
        assert mac.ues[1].slice_id == 0
        with pytest.raises(ValueError):
            mac.delete_slice(1)

    def test_snapshot_structure(self):
        mac = make_mac()
        mac.set_slice_algorithm(ALGO_NVS)
        mac.add_slice(SliceConfig(slice_id=1, cap=1.0, label="all"))
        snapshot = mac.slice_snapshot()
        assert snapshot["algo"] == ALGO_NVS
        assert snapshot["slices"][0]["label"] == "all"


class TestSliceScheduling:
    def _run(self, mac, ttis=4000):
        for tti in range(ttis):
            for rnti in mac.ues:
                if mac.rlc_of(rnti, 1).backlog_bytes < 100_000:
                    fill(mac, rnti, 200_000)
            mac.run_tti(tti * 0.001)

    def test_nvs_shares_honored(self):
        mac = make_mac(2)
        mac.set_slice_algorithm(ALGO_NVS)
        mac.add_slice(SliceConfig(slice_id=1, cap=0.75))
        mac.add_slice(SliceConfig(slice_id=2, cap=0.25))
        mac.associate_ue(1, 1)
        mac.associate_ue(2, 2)
        self._run(mac)
        total = mac.ues[1].total_bytes_dl + mac.ues[2].total_bytes_dl
        assert mac.ues[1].total_bytes_dl / total == pytest.approx(0.75, abs=0.03)

    def test_nvs_work_conserving(self):
        mac = make_mac(2)
        mac.set_slice_algorithm(ALGO_NVS)
        mac.add_slice(SliceConfig(slice_id=1, cap=0.5))
        mac.add_slice(SliceConfig(slice_id=2, cap=0.5))
        mac.associate_ue(1, 1)
        mac.associate_ue(2, 2)
        # Only UE 1 has traffic: it must get everything.
        for tti in range(1000):
            fill(mac, 1, 200_000)
            mac.run_tti(tti * 0.001)
        assert mac.ues[2].total_bytes_dl == 0
        full_rate = transport_block_bytes(20, 106) * 1000
        assert mac.ues[1].total_bytes_dl >= 0.95 * full_rate

    def test_static_wastes_idle_slots(self):
        mac = make_mac(2)
        mac.set_slice_algorithm(ALGO_STATIC)
        mac.add_slice(SliceConfig(slice_id=1, cap=0.5))
        mac.add_slice(SliceConfig(slice_id=2, cap=0.5))
        mac.associate_ue(1, 1)
        mac.associate_ue(2, 2)
        for tti in range(1000):
            fill(mac, 1, 200_000)
            mac.run_tti(tti * 0.001)
        half_rate = transport_block_bytes(20, 106) * 500
        assert mac.ues[1].total_bytes_dl == pytest.approx(half_rate, rel=0.05)

    def test_unassociated_ue_unscheduled_under_slicing(self):
        mac = make_mac(2)
        mac.set_slice_algorithm(ALGO_NVS)
        mac.add_slice(SliceConfig(slice_id=1, cap=1.0))
        mac.associate_ue(1, 1)
        for tti in range(100):
            fill(mac, 1, 100_000)
            fill(mac, 2, 100_000)
            mac.run_tti(tti * 0.001)
        assert mac.ues[2].total_bytes_dl == 0

    def test_stats_trees(self):
        mac = make_mac(2)
        fill(mac, 1, 50_000)
        mac.run_tti(0.001)
        tree = mac.mac_stats_tree(None, 1.0)
        assert len(tree["ues"]) == 2
        assert tree["ues"][0]["bytes_dl"] > 0
        # Harvest resets the period counters.
        tree2 = mac.mac_stats_tree(None, 2.0)
        assert tree2["ues"][0]["bytes_dl"] == 0
        rlc_tree = mac.rlc_stats_tree({1}, 0.001)
        assert [b["rnti"] for b in rlc_tree["bearers"]] == [1]
