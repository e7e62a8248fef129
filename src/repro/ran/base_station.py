"""Base station user plane and its FlexRIC integration.

Composes the sublayer stack of Fig. 3 — SDAP -> (TC) -> PDCP -> RLC ->
MAC -> PHY — around a discrete-event clock, and provides:

* UE attach/detach with RRC event callbacks (PLMN / S-NSSAI),
* a per-TTI loop that drains TC pipelines, runs the MAC scheduler, and
  charges modelled PHY CPU cost (the Fig. 6a baseline),
* statistics providers for the MAC/RLC/PDCP SMs and the live API
  objects the SC and TC SMs drive,
* :func:`attach_agent` — one-call wiring of a FlexRIC agent with the
  standard RAN-function bundle,
* CU/DU disaggregation views (:class:`CuNode` / :class:`DuNode`) that
  expose the same logical base station as two E2 nodes with the
  layer-appropriate function subsets (§4.1.1: "not all RAN layers are
  present in every node ... FlexRIC natively supports such
  disaggregation through the selection of appropriate RAN functions").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.agent.agent import Agent, AgentConfig
from repro.core.codec.base import Rows
from repro.core.e2ap.ies import GlobalE2NodeId, NodeKind
from repro.core.simclock import PeriodicTask, SimClock
from repro.core.transport.base import Transport
from repro.metrics.cpu import CpuMeter
from repro.ran.mac import MacLayer
from repro.ran.pdcp import PdcpEntity
from repro.ran.phy import ChannelModel, PhyConfig, NR_CELL_20MHZ
from repro.ran.rlc import RlcConfig, RlcEntity
from repro.ran.sdap import SdapEntity
from repro.ran.ue import UeContext
from repro.sm.mac_stats import MacStatsFunction
from repro.sm.pdcp_stats import PdcpBearerStats, PdcpStatsFunction
from repro.sm.rlc_stats import RlcStatsFunction
from repro.sm.rrc_conf import RrcConfFunction
from repro.sm.slice_ctrl import SliceCtrlFunction
from repro.sm.traffic_ctrl import TrafficCtrlFunction
from repro.tc.pipeline import TcPipeline
from repro.traffic.flows import Packet

#: RRC event listener: (event, rnti, plmn, snssai).
RrcListener = Callable[[str, int, str, int], None]


@dataclass
class BaseStationConfig:
    """Static base-station parameters."""

    plmn: str = "00101"
    nb_id: int = 1
    phy: PhyConfig = field(default_factory=lambda: NR_CELL_20MHZ)
    rlc: RlcConfig = field(default_factory=RlcConfig)
    kind: NodeKind = NodeKind.GNB
    #: charge the modelled PHY/user-plane CPU cost per TTI (disabled by
    #: the L2 simulator, §5.1).
    model_phy_cpu: bool = True
    #: optional channel-quality process: when set, each UE's CQI is
    #: refreshed from it every ``channel_period_s`` (UEs with a fixed
    #: MCS — as in the paper's experiments — are unaffected).
    channel: Optional["ChannelModel"] = None
    channel_period_s: float = 0.01

    @property
    def node_id(self) -> GlobalE2NodeId:
        return GlobalE2NodeId(plmn=self.plmn, nb_id=self.nb_id, kind=self.kind)


class BaseStation:
    """One cell's user plane on a simulation clock."""

    def __init__(
        self,
        config: BaseStationConfig,
        clock: SimClock,
        cpu_meter: Optional[CpuMeter] = None,
    ) -> None:
        self.config = config
        self.clock = clock
        self.cpu = cpu_meter or CpuMeter(f"bs-{config.nb_id}", cores=config.phy.cores)
        self.mac = MacLayer(config.phy)
        self.sdap: Dict[int, SdapEntity] = {}
        self.pdcp: Dict[Tuple[int, int], PdcpEntity] = {}
        self.tc: Dict[Tuple[int, int], TcPipeline] = {}
        self._rrc_listeners: List[RrcListener] = []
        self._rate_state: Dict[Tuple[int, int], Tuple[int, float]] = {}
        self._tti_task: Optional[PeriodicTask] = None
        #: set by a MobilityManager on register; enables handovers.
        self.mobility = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Begin the TTI loop on the clock."""
        if self._tti_task is not None:
            raise RuntimeError("base station already started")
        self._tti_task = self.clock.call_every(self.config.phy.tti_s, self._tti)
        if self.config.channel is not None:
            self.clock.call_every(self.config.channel_period_s, self._update_channel)

    def _update_channel(self) -> None:
        channel = self.config.channel
        for rnti, ue in self.mac.ues.items():
            ue.cqi = channel.cqi_at(rnti, self.clock.now)

    def stop(self) -> None:
        if self._tti_task is not None:
            self._tti_task.stop()
            self._tti_task = None

    def _tti(self) -> None:
        now = self.clock.now
        if self.config.model_phy_cpu:
            self.cpu.charge(self.config.phy.phy_cpu_cost_per_tti())
        for pipeline in self.tc.values():
            pipeline.drain(now)
        self.mac.run_tti(now)
        self._update_rate_estimates()

    def _update_rate_estimates(self) -> None:
        tti = self.config.phy.tti_s
        for key, entity in self.mac.rlc.items():
            last_bytes, ewma = self._rate_state.get(key, (entity.tx_bytes, 0.0))
            delta = entity.tx_bytes - last_bytes
            instant_bps = delta * 8.0 / tti
            # Only adapt while the bearer is active, so an idle pause
            # does not erase the capacity estimate the pacer relies on.
            if delta > 0 or entity.has_data():
                ewma = 0.9 * ewma + 0.1 * instant_bps
            self._rate_state[key] = (entity.tx_bytes, ewma)

    def rate_estimate_bps(self, rnti: int, bearer_id: int) -> float:
        return self._rate_state.get((rnti, bearer_id), (0, 0.0))[1]

    # -- RRC / UE management ----------------------------------------------

    def on_rrc_event(self, listener: RrcListener) -> None:
        self._rrc_listeners.append(listener)

    def attach_ue(
        self,
        rnti: int,
        plmn: Optional[str] = None,
        snssai: int = 1,
        cqi: int = 12,
        fixed_mcs: Optional[int] = None,
        bearers: Tuple[int, ...] = (1,),
    ) -> UeContext:
        """Admit a UE and build its full downlink chain per bearer."""
        ue = UeContext(
            rnti=rnti,
            plmn=plmn or self.config.plmn,
            snssai=snssai,
            cqi=cqi,
            fixed_mcs=fixed_mcs,
            bearers=list(bearers),
        )
        self.mac.add_ue(ue)
        sdap = SdapEntity(rnti=rnti, default_bearer=bearers[0])
        self.sdap[rnti] = sdap
        for bearer_id in bearers:
            rlc = RlcEntity(rnti=rnti, bearer_id=bearer_id, config=self.config.rlc)
            self.mac.attach_rlc(rlc)
            pdcp = PdcpEntity(rnti=rnti, bearer_id=bearer_id, downstream=rlc.enqueue)
            self.pdcp[(rnti, bearer_id)] = pdcp
            pipeline = TcPipeline(
                downstream=pdcp.submit,
                rlc_backlog=lambda entity=rlc: entity.backlog_bytes,
                rate_estimate_bps=lambda key=(rnti, bearer_id): self.rate_estimate_bps(*key),
            )
            self.tc[(rnti, bearer_id)] = pipeline
            sdap.attach_bearer(bearer_id, pipeline.ingress)
        for listener in self._rrc_listeners:
            listener("attach", rnti, ue.plmn, snssai)
        return ue

    def detach_ue(self, rnti: int) -> None:
        ue = self.mac.ues.get(rnti)
        if ue is None:
            raise KeyError(f"unknown RNTI {rnti}")
        self.mac.remove_ue(rnti)
        self.sdap.pop(rnti, None)
        for key in [key for key in self.pdcp if key[0] == rnti]:
            del self.pdcp[key]
        for key in [key for key in self.tc if key[0] == rnti]:
            del self.tc[key]
        for listener in self._rrc_listeners:
            listener("detach", rnti, ue.plmn, ue.snssai)

    # -- mobility --------------------------------------------------------

    def extract_ue(self, rnti: int):
        """Remove ``rnti`` and return its handover context.

        Queued downlink data (TC queues first, then RLC, preserving
        order) is collected for forwarding to the target cell.
        """
        from repro.ran.mobility import UeHandoverContext

        ue = self.mac.ues.get(rnti)
        if ue is None:
            raise KeyError(f"unknown RNTI {rnti}")
        forwarded: Dict[int, List[Packet]] = {}
        for bearer_id in ue.bearers:
            # Arrival order: the RLC backlog is older (it already passed
            # the TC pipeline), so drain it first, then the TC queues.
            entity = self.mac.rlc_of(rnti, bearer_id)
            packets: List[Packet] = entity.drain()
            pipeline = self.tc.get((rnti, bearer_id))
            if pipeline is not None:
                for _qid, queue in sorted(pipeline.queues.items()):
                    while queue:
                        packets.append(queue.pop(self.clock.now))
            forwarded[bearer_id] = packets
        context = UeHandoverContext(
            rnti=rnti,
            plmn=ue.plmn,
            snssai=ue.snssai,
            cqi=ue.cqi,
            fixed_mcs=ue.fixed_mcs,
            bearers=tuple(ue.bearers),
            forwarded=forwarded,
        )
        self.detach_ue(rnti)
        return context

    def request_handover(self, rnti: int, target_nb: int) -> None:
        """RRC-side entry point used by the RRC SM's handover control."""
        if self.mobility is None:
            raise ValueError("cell is not registered with a MobilityManager")
        self.mobility.handover(rnti, self.config.nb_id, target_nb)

    # -- traffic entry ------------------------------------------------------

    def deliver_downlink(self, rnti: int, packet: Packet) -> bool:
        """Inject one downlink IP packet for ``rnti`` (core-network side)."""
        sdap = self.sdap.get(rnti)
        if sdap is None:
            raise KeyError(f"unknown RNTI {rnti}")
        return sdap.deliver(packet, self.clock.now)

    def rlc_of(self, rnti: int, bearer_id: int = 1) -> RlcEntity:
        return self.mac.rlc_of(rnti, bearer_id)

    # -- SM providers --------------------------------------------------------

    def mac_stats_provider(self, visible) -> dict:
        return self.mac.mac_stats_tree(visible, self.clock.now * 1000.0)

    def rlc_stats_provider(self, visible) -> dict:
        return self.mac.rlc_stats_tree(visible, self.clock.now)

    def pdcp_stats_provider(self, visible) -> dict:
        values: List[int] = []
        row = values.extend
        for (rnti, bearer_id), entity in sorted(self.pdcp.items()):
            if visible is not None and rnti not in visible:
                continue
            row((rnti, bearer_id, entity.tx_pkts, entity.tx_bytes, entity.rx_pkts, entity.rx_bytes))
        return {"bearers": Rows(PdcpBearerStats, values), "tstamp_ms": self.clock.now * 1000.0}


# ---------------------------------------------------------------------------
# Agent integration
# ---------------------------------------------------------------------------

#: Standard function bundles per node kind (Fig. 3 vs disaggregation).
_MONOLITHIC_FUNCTIONS = ("mac", "rlc", "pdcp", "rrc", "slice", "tc")
_DU_FUNCTIONS = ("mac", "rlc", "slice")
_CU_FUNCTIONS = ("pdcp", "rrc", "tc")


def build_functions(
    bs: BaseStation,
    which: Tuple[str, ...],
    sm_codec: str = "fb",
    use_clock: bool = True,
) -> list:
    """Instantiate the requested standard RAN functions wired to ``bs``."""
    clock = bs.clock if use_clock else None
    functions = []
    for name in which:
        if name == "mac":
            functions.append(
                MacStatsFunction(provider=bs.mac_stats_provider, sm_codec=sm_codec, clock=clock)
            )
        elif name == "rlc":
            functions.append(
                RlcStatsFunction(provider=bs.rlc_stats_provider, sm_codec=sm_codec, clock=clock)
            )
        elif name == "pdcp":
            functions.append(
                PdcpStatsFunction(provider=bs.pdcp_stats_provider, sm_codec=sm_codec, clock=clock)
            )
        elif name == "rrc":
            rrc = RrcConfFunction(sm_codec=sm_codec)
            rrc.mobility = bs.request_handover
            bs.on_rrc_event(
                lambda event, rnti, plmn, snssai, fn=rrc: (
                    fn.notify_attach(rnti, plmn, snssai, bs.clock.now * 1000.0)
                    if event == "attach"
                    else fn.notify_detach(rnti, plmn, snssai, bs.clock.now * 1000.0)
                )
            )
            functions.append(rrc)
        elif name == "slice":
            functions.append(SliceCtrlFunction(api=bs.mac, sm_codec=sm_codec, clock=clock))
        elif name == "tc":
            functions.append(
                TrafficCtrlFunction(pipelines=lambda: bs.tc, sm_codec=sm_codec, clock=clock)
            )
        else:
            raise ValueError(f"unknown standard function {name!r}")
    return functions


def attach_agent(
    bs: BaseStation,
    transport: Transport,
    node_id: Optional[GlobalE2NodeId] = None,
    which: Tuple[str, ...] = _MONOLITHIC_FUNCTIONS,
    e2ap_codec: str = "fb",
    sm_codec: str = "fb",
    cpu_meter: Optional[CpuMeter] = None,
) -> Agent:
    """Create an agent for ``bs`` with the standard function bundle.

    UE attach/detach events keep the agent's UE-to-controller map in
    sync; additional-controller association stays manual (§4.1.2).
    """
    agent = Agent(
        AgentConfig(node_id=node_id or bs.config.node_id, e2ap_codec=e2ap_codec),
        transport=transport,
        cpu_meter=cpu_meter,
    )
    for function in build_functions(bs, which, sm_codec=sm_codec):
        agent.register_function(function)
        function.visibility = agent.ue_map.visible_ues

    def track_ue(event: str, rnti: int, plmn: str, snssai: int) -> None:
        if event == "attach":
            agent.ue_map.ue_attached(rnti)
        else:
            agent.ue_map.ue_detached(rnti)

    bs.on_rrc_event(track_ue)
    for rnti in bs.mac.ues:
        agent.ue_map.ue_attached(rnti)
    return agent


# ---------------------------------------------------------------------------
# Disaggregation views
# ---------------------------------------------------------------------------


@dataclass
class CuNode:
    """CU view of a split base station (PDCP/SDAP/RRC side)."""

    bs: BaseStation

    @property
    def node_id(self) -> GlobalE2NodeId:
        return GlobalE2NodeId(
            plmn=self.bs.config.plmn, nb_id=self.bs.config.nb_id, kind=NodeKind.CU
        )

    def attach_agent(self, transport: Transport, **kwargs) -> Agent:
        return attach_agent(
            self.bs, transport, node_id=self.node_id, which=_CU_FUNCTIONS, **kwargs
        )


@dataclass
class DuNode:
    """DU view of a split base station (MAC/RLC/PHY side)."""

    bs: BaseStation

    @property
    def node_id(self) -> GlobalE2NodeId:
        return GlobalE2NodeId(
            plmn=self.bs.config.plmn, nb_id=self.bs.config.nb_id, kind=NodeKind.DU
        )

    def attach_agent(self, transport: Transport, **kwargs) -> Agent:
        return attach_agent(
            self.bs, transport, node_id=self.node_id, which=_DU_FUNCTIONS, **kwargs
        )


def split_base_station(bs: BaseStation) -> Tuple[CuNode, DuNode]:
    """Expose one base station as separate CU and DU E2 nodes.

    The user plane stays shared (the F1 interface is a function call in
    this model); what splits is the E2 exposure: each node advertises
    only the RAN functions of its layers, and the server's RANDB merges
    the two agents back into one RAN entity (§4.2.2).
    """
    return CuNode(bs), DuNode(bs)
