"""MAC layer: UE schedulers, slice scheduling, and the SC SM backend.

Per Fig. 12 the MAC scheduling phase is two-tier: "first the slice
scheduler distributes resources among slices, and for each selected
slice, the corresponding UE scheduler distributes resources among the
UEs."  The :class:`MacLayer` implements that split and exposes the
:class:`~repro.sm.slice_ctrl.SliceControlApi` so the SC SM can drive it
RAT-independently.

Slice algorithms (selected via the SC SM ``set_algo`` command):

* ``none``   — no slicing; all UEs share one proportional-fair pool,
* ``static`` — fixed slot partition, **no sharing** (idle slots are
  wasted; the upper plot of Fig. 13b),
* ``nvs``    — the NVS scheduler: isolation plus work-conserving
  sharing (lower plot of Fig. 13b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.codec.base import Rows
from repro.ran.nvs import NvsScheduler, NvsSliceConfig, SliceKind
from repro.ran.phy import PhyConfig, cqi_to_mcs, transport_block_bytes
from repro.ran.rlc import RlcEntity
from repro.ran.ue import UeContext
from repro.sm.mac_stats import MacUeStats
from repro.sm.rlc_stats import RlcBearerStats
from repro.sm.slice_ctrl import (
    ALGO_NONE,
    ALGO_NVS,
    ALGO_STATIC,
    KIND_CAPACITY,
    SliceConfig,
)


class UeScheduler:
    """Distributes one TTI's PRBs among a slice's backlogged UEs."""

    name = "base"

    def allocate(self, ues: List[UeContext], n_prbs: int) -> Dict[int, int]:
        """Return {rnti: allocated PRBs}; must not exceed ``n_prbs``."""
        raise NotImplementedError


class RoundRobinScheduler(UeScheduler):
    """Strict rotation: the whole TTI goes to one UE at a time."""

    name = "rr"

    def __init__(self) -> None:
        self._next = 0

    def allocate(self, ues: List[UeContext], n_prbs: int) -> Dict[int, int]:
        if not ues:
            return {}
        ordered = sorted(ues, key=lambda ue: ue.rnti)
        chosen = ordered[self._next % len(ordered)]
        self._next += 1
        return {chosen.rnti: n_prbs}


class ProportionalFairScheduler(UeScheduler):
    """PF: PRBs split proportionally to achievable/average throughput.

    With equal channel conditions this "equally distributes resources
    between UEs" (§6.1.2); under unequal channels UEs with momentarily
    better conditions get proportionally more.
    """

    name = "pf"

    def __init__(self, ewma: float = 0.05) -> None:
        self.ewma = ewma
        self._avg_rate: Dict[int, float] = {}

    def allocate(self, ues: List[UeContext], n_prbs: int) -> Dict[int, int]:
        if not ues:
            return {}
        weights: Dict[int, float] = {}
        for ue in ues:
            mcs = ue.fixed_mcs if ue.fixed_mcs is not None else cqi_to_mcs(ue.cqi)
            achievable = float(transport_block_bytes(mcs, n_prbs))
            average = self._avg_rate.get(ue.rnti, 0.0)
            weights[ue.rnti] = achievable / max(average, 1.0)
        total = sum(weights.values())
        allocation: Dict[int, int] = {}
        assigned = 0
        ordered = sorted(ues, key=lambda ue: ue.rnti)
        for index, ue in enumerate(ordered):
            if index == len(ordered) - 1:
                prbs = n_prbs - assigned  # remainder to the last UE
            else:
                prbs = int(n_prbs * weights[ue.rnti] / total)
            allocation[ue.rnti] = prbs
            assigned += prbs
        # Update averages with the served amounts.
        for ue in ordered:
            mcs = ue.fixed_mcs if ue.fixed_mcs is not None else cqi_to_mcs(ue.cqi)
            served = float(transport_block_bytes(mcs, allocation[ue.rnti]))
            previous = self._avg_rate.get(ue.rnti, 0.0)
            self._avg_rate[ue.rnti] = (1.0 - self.ewma) * previous + self.ewma * served
        return allocation


def _make_ue_scheduler(name: str) -> UeScheduler:
    if name == "rr":
        return RoundRobinScheduler()
    if name == "pf":
        return ProportionalFairScheduler()
    raise ValueError(f"unknown UE scheduler {name!r}")


@dataclass
class _Slice:
    config: NvsSliceConfig
    scheduler: UeScheduler
    members: set = field(default_factory=set)
    bytes_served: int = 0
    slots_served: int = 0


class MacLayer:
    """Two-tier MAC scheduler; backend for the SC SM and MAC stats SM."""

    def __init__(self, phy: PhyConfig) -> None:
        self.phy = phy
        self.ues: Dict[int, UeContext] = {}
        self.rlc: Dict[Tuple[int, int], RlcEntity] = {}
        self.algo = ALGO_NONE
        self.nvs = NvsScheduler()
        self._slices: Dict[int, _Slice] = {}
        self._default_scheduler: UeScheduler = ProportionalFairScheduler()
        self._static_cursor = 0
        self.ttis_run = 0
        self.total_bytes = 0
        # Per-UE period counters of the last reporting instant, shared
        # by every subscription that reads at that instant.
        self._harvest_ms: Optional[float] = None
        self._harvest: Dict[int, Tuple[int, int, int, int]] = {}

    # -- topology ---------------------------------------------------------

    def add_ue(self, ue: UeContext) -> None:
        if ue.rnti in self.ues:
            raise ValueError(f"duplicate RNTI {ue.rnti}")
        self.ues[ue.rnti] = ue

    def remove_ue(self, rnti: int) -> None:
        self.ues.pop(rnti, None)
        for key in [key for key in self.rlc if key[0] == rnti]:
            del self.rlc[key]
        for slice_state in self._slices.values():
            slice_state.members.discard(rnti)

    def attach_rlc(self, entity: RlcEntity) -> None:
        self.rlc[(entity.rnti, entity.bearer_id)] = entity

    def rlc_of(self, rnti: int, bearer_id: int) -> RlcEntity:
        return self.rlc[(rnti, bearer_id)]

    def bearers_of(self, rnti: int) -> List[RlcEntity]:
        return [entity for (ue, _b), entity in sorted(self.rlc.items()) if ue == rnti]

    # -- SliceControlApi ---------------------------------------------------

    def set_slice_algorithm(self, algo: str) -> None:
        if algo not in (ALGO_NONE, ALGO_STATIC, ALGO_NVS):
            raise ValueError(f"unknown slice algorithm {algo!r}")
        self.algo = algo

    def add_slice(self, config: SliceConfig) -> None:
        """Admit/reconfigure a slice (SC SM ``add_slice``)."""
        nvs_config = NvsSliceConfig(
            slice_id=config.slice_id,
            kind=SliceKind.CAPACITY if config.kind == KIND_CAPACITY else SliceKind.RATE,
            cap=config.cap,
            rate_mbps=config.rate_mbps,
            ref_mbps=config.ref_mbps,
            label=config.label,
            ue_scheduler=config.ue_scheduler,
        )
        self.nvs.add_slice(nvs_config)  # raises on admission failure
        existing = self._slices.get(config.slice_id)
        if existing is not None:
            existing.config = nvs_config
            if existing.scheduler.name != config.ue_scheduler:
                existing.scheduler = _make_ue_scheduler(config.ue_scheduler)
        else:
            self._slices[config.slice_id] = _Slice(
                config=nvs_config, scheduler=_make_ue_scheduler(config.ue_scheduler)
            )

    def delete_slice(self, slice_id: int) -> None:
        if slice_id not in self._slices:
            raise ValueError(f"unknown slice {slice_id}")
        self.nvs.remove_slice(slice_id)
        removed = self._slices.pop(slice_id)
        for rnti in removed.members:
            self.ues[rnti].slice_id = 0

    def associate_ue(self, rnti: int, slice_id: int) -> None:
        if rnti not in self.ues:
            raise ValueError(f"unknown RNTI {rnti}")
        if slice_id not in self._slices:
            raise ValueError(f"unknown slice {slice_id}")
        for slice_state in self._slices.values():
            slice_state.members.discard(rnti)
        self._slices[slice_id].members.add(rnti)
        self.ues[rnti].slice_id = slice_id

    def slice_snapshot(self) -> dict:
        return {
            "algo": self.algo,
            "slices": [
                {
                    **entry,
                    "members": sorted(self._slices[entry["slice_id"]].members),
                    "bytes_served": self._slices[entry["slice_id"]].bytes_served,
                }
                for entry in self.nvs.snapshot()
            ],
        }

    # -- scheduling ---------------------------------------------------------

    def run_tti(self, now: float) -> int:
        """Run one scheduling slot; returns bytes transported downlink."""
        self.ttis_run += 1
        if self.algo == ALGO_NONE or not self._slices:
            served = self._serve_ues(
                self._backlogged_ues(self.ues.keys()), self._default_scheduler, now
            )
            self.total_bytes += served
            return served

        if self.algo == ALGO_NVS:
            backlogged = [
                slice_id
                for slice_id, slice_state in self._slices.items()
                if self._backlogged_ues(slice_state.members)
            ]
            chosen = self.nvs.pick(backlogged)
            served = 0
            if chosen is not None:
                slice_state = self._slices[chosen]
                served = self._serve_ues(
                    self._backlogged_ues(slice_state.members), slice_state.scheduler, now
                )
                slice_state.bytes_served += served
                slice_state.slots_served += 1
            served_mbps = served * 8 / self.phy.tti_s / 1e6
            self.nvs.account(chosen, served_mbps)
            self.total_bytes += served
            return served

        # ALGO_STATIC: deterministic weighted slot pattern, no sharing.
        chosen_id = self._static_pick()
        served = 0
        if chosen_id is not None:
            slice_state = self._slices[chosen_id]
            ues = self._backlogged_ues(slice_state.members)
            if ues:  # an idle slice wastes its slot
                served = self._serve_ues(ues, slice_state.scheduler, now)
                slice_state.bytes_served += served
            slice_state.slots_served += 1
        self.total_bytes += served
        return served

    def _static_pick(self) -> Optional[int]:
        """Weighted round-robin over slots by configured share."""
        if not self._slices:
            return None
        ordered = sorted(self._slices)
        # Spread shares over a 100-slot pattern.
        pattern: List[int] = []
        for slice_id in ordered:
            count = int(round(self._slices[slice_id].config.share * 100))
            pattern.extend([slice_id] * max(count, 1))
        if not pattern:
            return None
        chosen = pattern[self._static_cursor % len(pattern)]
        self._static_cursor += 1
        return chosen

    def _backlogged_ues(self, rntis) -> List[UeContext]:
        active = []
        for rnti in sorted(rntis):
            ue = self.ues.get(rnti)
            if ue is None:
                continue
            if any(entity.has_data() for entity in self.bearers_of(rnti)):
                active.append(ue)
        return active

    def _serve_ues(self, ues: List[UeContext], scheduler: UeScheduler, now: float) -> int:
        if not ues:
            return 0
        allocation = scheduler.allocate(ues, self.phy.n_prbs)
        total_served = 0
        for ue in ues:
            prbs = allocation.get(ue.rnti, 0)
            if prbs <= 0:
                continue
            mcs = ue.fixed_mcs if ue.fixed_mcs is not None else cqi_to_mcs(ue.cqi)
            budget = transport_block_bytes(mcs, prbs)
            served = 0
            for entity in self.bearers_of(ue.rnti):
                if served >= budget:
                    break
                taken, _delivered = entity.pull(budget - served, now)
                served += taken
            if served > 0:
                ue.prbs_dl += prbs
                ue.bytes_dl += served
                ue.total_bytes_dl += served
                total_served += served
        return total_served

    # -- stats SM providers ---------------------------------------------------

    def mac_stats_tree(self, visible: Optional[set], now_ms: float) -> dict:
        """MAC stats SM payload: the per-UE counters of the period
        ending at ``now_ms``.

        The counters are harvested (read and reset) once per reporting
        instant, so every subscription reading at ``now_ms`` — each
        controller of §4.1.2, filtered by its ``visible`` UEs — reports
        the same period, and a read at a later instant gets what has
        accumulated since."""
        if now_ms != self._harvest_ms:
            self._harvest_ms = now_ms
            self._harvest = {rnti: ue.harvest_period_counters() for rnti, ue in self.ues.items()}
        harvest = self._harvest
        values: List[int] = []
        row = values.extend
        for rnti in sorted(self.ues):
            if visible is not None and rnti not in visible:
                continue
            ue = self.ues[rnti]
            counters = harvest.get(rnti)
            if counters is None:  # attached since this instant's harvest
                counters = harvest[rnti] = ue.harvest_period_counters()
            mcs = ue.fixed_mcs if ue.fixed_mcs is not None else cqi_to_mcs(ue.cqi)
            row((rnti, ue.cqi, mcs, mcs, *counters, ue.slice_id))
        return {"ues": Rows(MacUeStats, values), "tstamp_ms": now_ms}

    def rlc_stats_tree(self, visible: Optional[set], now: float) -> dict:
        """RLC stats SM payload."""
        values: list = []
        row = values.extend
        for (rnti, bearer_id), entity in sorted(self.rlc.items()):
            if visible is not None and rnti not in visible:
                continue
            row((
                rnti,
                bearer_id,
                entity.buffer_bytes,
                entity.backlog_pkts,
                entity.head_sojourn_s(now) * 1000.0,
                entity.tx_pdus,
                entity.tx_bytes,
                entity.rx_pdus,
                entity.rx_bytes,
                entity.dropped,
            ))
        return {"bearers": Rows(RlcBearerStats, values), "tstamp_ms": now * 1000.0}
