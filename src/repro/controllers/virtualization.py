"""Recursive virtualization controller (§6.2, Fig. 14, Appendix B).

Shares one physical RAN between multiple tenant ("guest") controllers:

* **southbound** it is a normal FlexRIC server facing the real agents;
* **northbound** it *reuses the agent library* as its communication
  interface (the recursion of Fig. 14a), connecting as an E2 agent to
  each tenant's controller via the multi-controller machinery;
* between the two sits a virtualization layer of iApps acting as RAN
  functions towards the agent library: MAC statistics are partitioned
  per tenant (only the tenant's subscribers are revealed, physical
  slice ids are translated back to virtual ids), and the SC SM is
  virtualized with the NVS scaling of Appendix B.

NVS virtualization (Appendix B): a tenant with SLA share ``q`` sees a
virtual network of share 1.  Its virtual capacity slices scale by ``q``
(``c_phys = q * c_virt``); its virtual rate slices keep their reserved
rate but scale the reference rate (``r_ref_phys = r_ref_virt / q``).
Admission control at the virtual level (``sum of virtual shares <= 1``)
then guarantees the tenant can never exceed ``q`` physically — no
coordination between tenants is needed and conflicts are impossible.
Virtual slice ids 0-9 map into disjoint physical ranges per tenant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.core.agent.agent import Agent, AgentConfig
from repro.core.agent.ran_function import ControlOutcome, RanFunction
from repro.core.agent.reconnect import ReconnectPolicy
from repro.core.e2ap.ies import (
    GlobalE2NodeId,
    NodeKind,
    RicActionAdmitted,
    RicActionDefinition,
    RicActionKind,
    RicActionNotAdmitted,
)
from repro.core.e2ap.procedures import Cause
from repro.core.overload import FairShareLimiter
from repro.core.server.randb import AgentRecord
from repro.core.server.server import Server, ServerConfig
from repro.core.server.submgr import SubscriptionCallbacks
from repro.core.transport.base import Transport
from repro.metrics.counters import get_counter
from repro.sm import mac_stats, rrc_conf, slice_ctrl
from repro.sm.base import PeriodicTrigger, decode_payload, encode_payload
from repro.sm.slice_ctrl import KIND_CAPACITY, KIND_RATE, SliceConfig

#: Width of each tenant's physical slice-id range; virtual ids 0-9.
_SLICE_RANGE = 10


@dataclass
class TenantConfig:
    """One guest operator sharing the infrastructure."""

    name: str
    share: float                      # SLA: fraction of physical resources
    subscribers: Set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        if not 0.0 < self.share <= 1.0:
            raise ValueError(f"tenant share out of (0,1]: {self.share}")


@dataclass
class _TenantState:
    config: TenantConfig
    index: int
    origin: Optional[int] = None          # northbound controller origin
    virtual_slices: Dict[int, SliceConfig] = field(default_factory=dict)
    default_slice_active: bool = True

    @property
    def physical_base(self) -> int:
        return (self.index + 1) * _SLICE_RANGE

    @property
    def default_physical_id(self) -> int:
        return self.physical_base  # virtual "no slice" bucket

    def to_physical_id(self, virtual_id: int) -> int:
        if not 0 <= virtual_id < _SLICE_RANGE:
            raise ValueError(f"virtual slice id out of 0-9: {virtual_id}")
        return self.physical_base + virtual_id

    def to_virtual_id(self, physical_id: int) -> Optional[int]:
        if self.physical_base <= physical_id < self.physical_base + _SLICE_RANGE:
            return physical_id - self.physical_base
        return None

    def virtual_total_share(self, excluding: Optional[int] = None) -> float:
        return sum(
            config.resource_share
            for slice_id, config in self.virtual_slices.items()
            if slice_id != excluding
        )


def virtualize_slice(config: SliceConfig, tenant: _TenantState) -> SliceConfig:
    """Map a tenant's virtual slice into its physical representation.

    Appendix B: capacity shares scale by the SLA ``q``; rate slices
    keep the reserved rate and scale the reference rate down by ``q``
    (i.e. the physical reference grows: ``r_ref_phys = r_ref_virt/q``).
    """
    q = tenant.config.share
    if config.kind == KIND_CAPACITY:
        return SliceConfig(
            slice_id=tenant.to_physical_id(config.slice_id),
            label=f"{tenant.config.name}/{config.label or config.slice_id}",
            kind=KIND_CAPACITY,
            cap=config.cap * q,
            ue_scheduler=config.ue_scheduler,
        )
    return SliceConfig(
        slice_id=tenant.to_physical_id(config.slice_id),
        label=f"{tenant.config.name}/{config.label or config.slice_id}",
        kind=KIND_RATE,
        rate_mbps=config.rate_mbps,
        ref_mbps=config.ref_mbps / q,
        ue_scheduler=config.ue_scheduler,
    )


class _VirtualMacStats(RanFunction):
    """Northbound MAC stats function: per-tenant partitioned reports."""

    def __init__(self, controller: "VirtualizationController", sm_codec: str) -> None:
        info = mac_stats.INFO
        super().__init__(info.default_function_id, info.name, info.oid, info.version)
        self._controller = controller
        self._sm_codec = sm_codec

    def on_subscription(self, handle, event_trigger, actions):
        report = [a for a in actions if a.kind == RicActionKind.REPORT]
        if not report:
            return [], [
                RicActionNotAdmitted(a.action_id, 0, Cause.ACTION_NOT_SUPPORTED)
                for a in actions
            ]
        self.subscriptions[handle.key()] = handle
        return [RicActionAdmitted(a.action_id) for a in report], []

    def push_south_stats(self, tree: Any) -> None:
        """Partition a southbound MAC report and emit per subscription."""
        for handle in list(self.subscriptions.values()):
            tenant = self._controller.tenant_by_origin(handle.origin)
            if tenant is None:
                continue
            if not self._controller.acquire_indication(tenant):
                continue
            ues = []
            for entry in tree["ues"]:
                rnti = entry["rnti"]
                if rnti not in tenant.config.subscribers:
                    continue
                virtual_id = tenant.to_virtual_id(entry["slice_id"])
                rewritten = dict(entry)
                rewritten["slice_id"] = virtual_id if virtual_id is not None else 0
                ues.append(rewritten)
            payload = encode_payload(
                {"ues": ues, "tstamp_ms": tree["tstamp_ms"]},
                self._sm_codec,
                mac_stats.INFO.payload_schema,
            )
            self.emit(handle, action_id=1, header=b"", payload=payload)


class _VirtualRrc(RanFunction):
    """Northbound RRC conf function: tenant-filtered UE events."""

    def __init__(self, controller: "VirtualizationController", sm_codec: str) -> None:
        info = rrc_conf.INFO
        super().__init__(info.default_function_id, info.name, info.oid, info.version)
        self._controller = controller
        self._sm_codec = sm_codec

    def on_subscription(self, handle, event_trigger, actions):
        report = [a for a in actions if a.kind == RicActionKind.REPORT]
        if not report:
            return [], [
                RicActionNotAdmitted(a.action_id, 0, Cause.ACTION_NOT_SUPPORTED)
                for a in actions
            ]
        self.subscriptions[handle.key()] = handle
        return [RicActionAdmitted(a.action_id) for a in report], []

    def push_event(self, payload: bytes) -> None:
        event = rrc_conf.parse_event(payload, self._sm_codec)
        for handle in list(self.subscriptions.values()):
            tenant = self._controller.tenant_by_origin(handle.origin)
            if tenant is None or event.rnti not in tenant.config.subscribers:
                continue
            if not self._controller.acquire_indication(tenant):
                continue
            self.emit(handle, action_id=1, header=b"", payload=payload)


class _VirtualSliceCtrl(RanFunction):
    """Northbound SC SM: Appendix-B virtualization of slice control."""

    def __init__(self, controller: "VirtualizationController", sm_codec: str) -> None:
        info = slice_ctrl.INFO
        super().__init__(info.default_function_id, info.name, info.oid, info.version)
        self._controller = controller
        self._sm_codec = sm_codec

    def on_control(self, origin: int, header: bytes, payload: bytes) -> ControlOutcome:
        tenant = self._controller.tenant_by_origin(origin)
        if tenant is None:
            return ControlOutcome.fail(Cause.ric_request(Cause.ADMISSION_REFUSED, "unknown tenant"))
        if not self._controller.acquire_control(tenant):
            return ControlOutcome.fail(
                Cause.ric_request(
                    Cause.ADMISSION_REFUSED,
                    f"tenant {tenant.config.name!r} control budget exhausted",
                )
            )
        command = decode_payload(payload, self._sm_codec, "sc_command")
        cmd = command["cmd"]
        try:
            if cmd == "set_algo":
                # The physical algorithm is owned by the virtualization
                # layer (always NVS); the tenant's choice is virtual-only.
                return ControlOutcome.ok()
            if cmd == "add_slice":
                config = SliceConfig.from_value(command["slice"])
                return self._controller.tenant_add_slice(tenant, config)
            if cmd == "del_slice":
                return self._controller.tenant_del_slice(tenant, command["slice_id"])
            return self._controller.tenant_assoc_ue(  # "assoc_ue", the union's last case
                tenant, command["rnti"], command["slice_id"]
            )
        except ValueError as exc:
            return ControlOutcome.fail(Cause.ric_request(Cause.ADMISSION_REFUSED, str(exc)))


class VirtualizationController:
    """Server southbound, agent-library northbound, NVS virtualization."""

    def __init__(
        self,
        transport: Transport,
        listen_address: str,
        tenants: List[TenantConfig],
        e2ap_codec: str = "fb",
        sm_codec: str = "fb",
        stats_period_ms: float = 100.0,
        node_id: Optional[GlobalE2NodeId] = None,
        stale_grace_s: float = 0.0,
        reconnect: Optional[ReconnectPolicy] = None,
        controller_ind_capacity_s: float = 0.0,
        controller_ctrl_capacity_s: float = 0.0,
    ) -> None:
        total = sum(tenant.share for tenant in tenants)
        if total > 1.0 + 1e-9:
            raise ValueError(f"tenant SLAs exceed the infrastructure: {total:.3f} > 1")
        # The NVS share math extended from radio resources to this
        # controller's own capacity (DESIGN.md §13): tenant ``i`` may
        # draw at most ``q_i * C`` indication emissions / control
        # executions per second.  0 (default) disables the limiters.
        shares = {tenant.name: tenant.share for tenant in tenants}
        self.ind_limiter = (
            FairShareLimiter(controller_ind_capacity_s, shares)
            if controller_ind_capacity_s > 0
            else None
        )
        self.ctrl_limiter = (
            FairShareLimiter(controller_ctrl_capacity_s, shares)
            if controller_ctrl_capacity_s > 0
            else None
        )
        self.sm_codec = sm_codec
        self.stats_period_ms = stats_period_ms
        self.transport = transport
        # ``stale_grace_s`` lets a flapping base station keep its NVS
        # slice state and tenant subscriptions across short outages
        # instead of re-bootstrapping the whole virtualization layer.
        self.server = Server(
            ServerConfig(
                ric_id=90, e2ap_codec=e2ap_codec, stale_grace_s=stale_grace_s
            )
        )
        self.server.listen(transport, listen_address)
        self._tenants: Dict[str, _TenantState] = {
            tenant.name: _TenantState(config=tenant, index=index)
            for index, tenant in enumerate(tenants)
        }
        self._by_origin: Dict[int, _TenantState] = {}
        self.agent = Agent(
            AgentConfig(
                node_id=node_id or GlobalE2NodeId("00199", 900, NodeKind.GNB),
                e2ap_codec=e2ap_codec,
            ),
            transport=transport,
        )
        if reconnect is not None:
            # Northbound legs to tenant controllers self-heal: the
            # agent journal replays each tenant's virtual subscriptions
            # after re-attachment.
            self.agent.enable_reconnect(reconnect)
        self.virt_mac = _VirtualMacStats(self, sm_codec)
        self.virt_rrc = _VirtualRrc(self, sm_codec)
        self.virt_sc = _VirtualSliceCtrl(self, sm_codec)
        for function in (self.virt_mac, self.virt_rrc, self.virt_sc):
            self.agent.register_function(function)
        self._south_conn: Optional[int] = None
        self._ue_tenant_assoc: Dict[int, int] = {}  # rnti -> physical slice id
        self.server.events.subscribe("agent_connected", self._on_south_agent)

    # -- tenant lookups -------------------------------------------------

    def tenant_by_origin(self, origin: int) -> Optional[_TenantState]:
        return self._by_origin.get(origin)

    def tenant(self, name: str) -> _TenantState:
        return self._tenants[name]

    # -- per-tenant fair shares over controller capacity ---------------

    def acquire_indication(self, tenant: _TenantState) -> bool:
        """Charge one indication emission to the tenant's fair share."""
        limiter = self.ind_limiter
        if limiter is None or limiter.try_acquire(tenant.config.name):
            return True
        get_counter(f"overload.tenant.{tenant.config.name}.ind_drops").incr()
        return False

    def acquire_control(self, tenant: _TenantState) -> bool:
        """Charge one control execution to the tenant's fair share."""
        limiter = self.ctrl_limiter
        if limiter is None or limiter.try_acquire(tenant.config.name):
            return True
        get_counter(f"overload.tenant.{tenant.config.name}.ctrl_rejects").incr()
        return False

    def tenant_rate_state(self) -> Dict[str, Any]:
        """Per-tenant rate-limit snapshot for the northbound routes."""
        return {
            "indications": self.ind_limiter.state() if self.ind_limiter else None,
            "controls": self.ctrl_limiter.state() if self.ctrl_limiter else None,
        }

    def connect_tenant(self, name: str, controller_address: str) -> int:
        """Attach northbound to one tenant's controller (E2 recursion)."""
        state = self._tenants[name]
        origin = self.agent.connect(controller_address)
        state.origin = origin
        self._by_origin[origin] = state
        return origin

    # -- southbound bootstrap ----------------------------------------------

    def _on_south_agent(self, record: AgentRecord) -> None:
        """A real base station connected: install NVS + default slices,
        and subscribe to its MAC stats and RRC events."""
        if self._south_conn is not None:
            return  # single southbound entity per controller instance
        self._south_conn = record.conn_id
        sc_item = record.function_by_oid(slice_ctrl.INFO.oid)
        if sc_item is None:
            raise RuntimeError("southbound node lacks the SC SM")
        self._sc_fid = sc_item.ran_function_id
        self._south_control(slice_ctrl.build_set_algo(slice_ctrl.ALGO_NVS, self.sm_codec))
        # Install every tenant's default slice in one coalesced burst.
        self.server.control_many(
            conn_id=self._south_conn,
            ran_function_id=self._sc_fid,
            payloads=[
                slice_ctrl.build_add_slice(
                    SliceConfig(
                        slice_id=state.default_physical_id,
                        label=f"{state.config.name}/default",
                        kind=KIND_CAPACITY,
                        cap=state.config.share,
                    ),
                    self.sm_codec,
                )
                for state in self._tenants.values()
            ],
        )
        mac_item = record.function_by_oid(mac_stats.INFO.oid)
        if mac_item is not None:
            self.server.subscribe(
                conn_id=record.conn_id,
                ran_function_id=mac_item.ran_function_id,
                event_trigger=PeriodicTrigger(self.stats_period_ms).to_bytes(self.sm_codec),
                actions=[RicActionDefinition(action_id=1, kind=RicActionKind.REPORT)],
                callbacks=SubscriptionCallbacks(on_indication=self._on_south_mac),
            )
        rrc_item = record.function_by_oid(rrc_conf.INFO.oid)
        if rrc_item is not None:
            self.server.subscribe(
                conn_id=record.conn_id,
                ran_function_id=rrc_item.ran_function_id,
                event_trigger=PeriodicTrigger(0.0).to_bytes(self.sm_codec),
                actions=[RicActionDefinition(action_id=1, kind=RicActionKind.REPORT)],
                callbacks=SubscriptionCallbacks(on_indication=self._on_south_rrc),
            )

    def _south_control(self, payload: bytes) -> None:
        if self._south_conn is None:
            raise RuntimeError("no southbound agent connected")
        self.server.control(
            conn_id=self._south_conn,
            ran_function_id=self._sc_fid,
            header=b"",
            payload=payload,
        )

    def _on_south_mac(self, event) -> None:
        tree = decode_payload(event.payload, self.sm_codec, mac_stats.INFO.payload_schema)
        self.virt_mac.push_south_stats(tree)

    def _on_south_rrc(self, event) -> None:
        ue_event = rrc_conf.parse_event(event.payload, self.sm_codec)
        if ue_event.event == rrc_conf.EVENT_ATTACH:
            self._place_new_ue(ue_event.rnti)
        self.virt_rrc.push_event(bytes(event.payload))

    def _place_new_ue(self, rnti: int) -> None:
        """Associate an arriving subscriber with its tenant's default
        physical slice (until the tenant dictates otherwise)."""
        for state in self._tenants.values():
            if rnti in state.config.subscribers and state.default_slice_active:
                self._south_control(
                    slice_ctrl.build_assoc_ue(
                        rnti, state.default_physical_id, self.sm_codec
                    )
                )
                self._ue_tenant_assoc[rnti] = state.default_physical_id
                return

    def register_existing_ue(self, rnti: int) -> None:
        """Place a UE that attached before the controller connected."""
        self._place_new_ue(rnti)

    # -- tenant operations (invoked by the virtual SC SM) --------------------

    def tenant_add_slice(self, tenant: _TenantState, config: SliceConfig) -> ControlOutcome:
        # Virtual admission control: the tenant's own network is share 1.
        new_total = tenant.virtual_total_share(excluding=config.slice_id) + config.resource_share
        if new_total > 1.0 + 1e-9:
            return ControlOutcome.fail(
                Cause.ric_request(
                    Cause.ADMISSION_REFUSED,
                    f"virtual shares {new_total:.3f} exceed the tenant network",
                )
            )
        tenant.virtual_slices[config.slice_id] = config
        # Shrink the default slice *first* so the physical admission
        # check (sum of shares <= 1) holds at every step.
        self._resize_default_slice(tenant)
        self._south_control(
            slice_ctrl.build_add_slice(virtualize_slice(config, tenant), self.sm_codec)
        )
        return ControlOutcome.ok()

    def tenant_del_slice(self, tenant: _TenantState, virtual_id: int) -> ControlOutcome:
        if virtual_id not in tenant.virtual_slices:
            return ControlOutcome.fail(
                Cause.ric_request(Cause.CONTROL_MESSAGE_INVALID, f"unknown slice {virtual_id}")
            )
        del tenant.virtual_slices[virtual_id]
        self._south_control(
            slice_ctrl.build_del_slice(tenant.to_physical_id(virtual_id), self.sm_codec)
        )
        self._resize_default_slice(tenant)
        return ControlOutcome.ok()

    def tenant_assoc_ue(
        self, tenant: _TenantState, rnti: int, virtual_id: int
    ) -> ControlOutcome:
        if rnti not in tenant.config.subscribers:
            return ControlOutcome.fail(
                Cause.ric_request(Cause.ADMISSION_REFUSED, f"UE {rnti} is not a subscriber")
            )
        physical_id = tenant.to_physical_id(virtual_id)
        self._south_control(slice_ctrl.build_assoc_ue(rnti, physical_id, self.sm_codec))
        self._ue_tenant_assoc[rnti] = physical_id
        return ControlOutcome.ok()

    def _resize_default_slice(self, tenant: _TenantState) -> None:
        """Shrink/grow the tenant's default slice so its sub-slices plus
        the default never exceed the SLA share."""
        q = tenant.config.share
        used = tenant.virtual_total_share() * q
        remaining = q - used
        if remaining <= 0.01:  # sub-1 % leftovers are not worth a slice
            if tenant.default_slice_active:
                self._south_control(
                    slice_ctrl.build_del_slice(tenant.default_physical_id, self.sm_codec)
                )
                tenant.default_slice_active = False
        else:
            config = SliceConfig(
                slice_id=tenant.default_physical_id,
                label=f"{tenant.config.name}/default",
                kind=KIND_CAPACITY,
                cap=remaining,
            )
            if tenant.default_slice_active:
                self._south_control(slice_ctrl.build_add_slice(config, self.sm_codec))
            else:
                self._south_control(slice_ctrl.build_add_slice(config, self.sm_codec))
                tenant.default_slice_active = True
