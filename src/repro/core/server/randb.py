"""RAN database: node inventory and disaggregation merging (§4.2.2).

The RAN management stores information about connected agents and
"merges agents that belong to the same base station (e.g., CU agent and
DU agent) into the same RAN entity, facilitating base station control
across agents"; it also signals when a complete RAN forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.e2ap.ies import GlobalE2NodeId, NodeKind, RanFunctionItem


@dataclass
class AgentRecord:
    """One connected agent (one E2 node)."""

    conn_id: int
    node_id: GlobalE2NodeId
    functions: Dict[int, RanFunctionItem] = field(default_factory=dict)
    #: node-level configuration reported via E2 node config updates.
    config: Dict[str, str] = field(default_factory=dict)
    #: True while the agent's link is down but the node sits inside
    #: its grace window awaiting re-attachment (lifecycle resilience).
    stale: bool = False
    #: monotonic timestamp of the disconnect that marked it stale.
    stale_since: Optional[float] = None

    @property
    def kind(self) -> NodeKind:
        return self.node_id.kind

    def function_by_oid(self, oid: str) -> Optional[RanFunctionItem]:
        """First function whose service-model OID matches."""
        for item in self.functions.values():
            if item.oid == oid:
                return item
        return None


#: Node kinds that form a complete base station on their own.
_MONOLITHIC = {NodeKind.ENB, NodeKind.GNB}
#: Kind sets that together complete a disaggregated base station.
_SPLIT_COMPLETE = (
    {NodeKind.CU, NodeKind.DU},
    {NodeKind.CU_CP, NodeKind.CU_UP, NodeKind.DU},
)


@dataclass
class RanEntity:
    """A logical base station, possibly spread over several agents."""

    plmn: str
    nb_id: int
    agents: Dict[NodeKind, AgentRecord] = field(default_factory=dict)

    @property
    def key(self) -> Tuple[str, int]:
        return (self.plmn, self.nb_id)

    @property
    def complete(self) -> bool:
        """True when every part of the base station is connected."""
        kinds = set(self.agents)
        if kinds & _MONOLITHIC:
            return True
        return any(required <= kinds for required in _SPLIT_COMPLETE)

    def all_functions(self) -> List[Tuple[AgentRecord, RanFunctionItem]]:
        """Every (agent, function) pair across the entity's agents."""
        pairs = []
        for agent in self.agents.values():
            for item in agent.functions.values():
                pairs.append((agent, item))
        return pairs

    def find_function(self, oid: str) -> Optional[Tuple[AgentRecord, RanFunctionItem]]:
        """Locate a service model within the entity, whichever agent
        hosts it — base-station control across agents."""
        for agent, item in self.all_functions():
            if item.oid == oid:
                return agent, item
        return None


class RanDatabase:
    """Queryable store of agents and merged RAN entities.

    Indexed by connection id and by (plmn, nb_id); lookups are O(1)
    dict accesses — the "organizes its internal data structure more
    efficiently" property behind Fig. 8a's memory numbers.
    """

    def __init__(self) -> None:
        self._agents: Dict[int, AgentRecord] = {}
        self._entities: Dict[Tuple[str, int], RanEntity] = {}

    # -- mutation (driven by the server core) -------------------------

    def add_agent(self, record: AgentRecord) -> Tuple[RanEntity, bool]:
        """Insert an agent; returns (entity, became_complete_now)."""
        if record.conn_id in self._agents:
            raise ValueError(f"duplicate connection id {record.conn_id}")
        self._agents[record.conn_id] = record
        key = (record.node_id.plmn, record.node_id.nb_id)
        entity = self._entities.get(key)
        if entity is None:
            entity = RanEntity(plmn=key[0], nb_id=key[1])
            self._entities[key] = entity
        was_complete = entity.complete
        if record.kind in entity.agents:
            raise ValueError(
                f"entity {key} already has a {record.kind.name} agent; "
                f"duplicate node identity"
            )
        entity.agents[record.kind] = record
        return entity, entity.complete and not was_complete

    def remove_agent(self, conn_id: int) -> Optional[AgentRecord]:
        record = self._agents.pop(conn_id, None)
        if record is None:
            return None
        key = (record.node_id.plmn, record.node_id.nb_id)
        entity = self._entities.get(key)
        if entity is not None:
            entity.agents.pop(record.kind, None)
            if not entity.agents:
                del self._entities[key]
        return record

    def update_functions(
        self,
        conn_id: int,
        added: List[RanFunctionItem],
        removed: List[int],
    ) -> AgentRecord:
        """Apply a RIC service update to an agent's function table."""
        record = self._agents[conn_id]
        for item in added:
            record.functions[item.ran_function_id] = item
        for function_id in removed:
            record.functions.pop(function_id, None)
        return record

    def mark_stale(self, conn_id: int, now: float) -> Optional[AgentRecord]:
        """Flag an agent as stale (link down, grace window running).

        The record stays in the database — its entity keeps the agent,
        so a CU/DU pair does not flap through RAN_FORMED on every
        reconnect — until :meth:`remove_agent` garbage-collects it.
        """
        record = self._agents.get(conn_id)
        if record is not None:
            record.stale = True
            record.stale_since = now
        return record

    def revive(self, record: AgentRecord, new_conn_id: int) -> AgentRecord:
        """Re-home a stale record onto a fresh connection id."""
        self._agents.pop(record.conn_id, None)
        record.conn_id = new_conn_id
        record.stale = False
        record.stale_since = None
        self._agents[new_conn_id] = record
        return record

    # -- queries -------------------------------------------------------

    def agent(self, conn_id: int) -> Optional[AgentRecord]:
        return self._agents.get(conn_id)

    def agents(self, include_stale: bool = True) -> List[AgentRecord]:
        if include_stale:
            return list(self._agents.values())
        return [record for record in self._agents.values() if not record.stale]

    def stale_agents(self) -> List[AgentRecord]:
        return [record for record in self._agents.values() if record.stale]

    def find_node(self, node_id: GlobalE2NodeId) -> Optional[AgentRecord]:
        """Locate the record carrying exactly this E2 node identity.

        Used on E2 setup to detect a re-attachment (same node, new
        connection) so the stale-recovery path can fire.
        """
        entity = self._entities.get((node_id.plmn, node_id.nb_id))
        if entity is None:
            return None
        record = entity.agents.get(node_id.kind)
        if record is not None and record.node_id == node_id:
            return record
        return None

    def entity(self, plmn: str, nb_id: int) -> Optional[RanEntity]:
        return self._entities.get((plmn, nb_id))

    def entities(self) -> List[RanEntity]:
        return list(self._entities.values())

    def complete_entities(self) -> List[RanEntity]:
        return [entity for entity in self._entities.values() if entity.complete]

    def agents_with_oid(self, oid: str) -> List[Tuple[AgentRecord, RanFunctionItem]]:
        """All (agent, function) pairs exposing service model ``oid``."""
        matches = []
        for record in self._agents.values():
            item = record.function_by_oid(oid)
            if item is not None:
                matches.append((record, item))
        return matches

    def __len__(self) -> int:
        return len(self._agents)
