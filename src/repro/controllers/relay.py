"""Relaying controller: two-hop message path (§5.4, Fig. 9a).

"In FlexRIC, we use a relaying controller to emulate two hops, which,
unlike O-RAN RIC, is not imposed by FlexRIC but added to carry out a
fair comparison."  The relay is the simplest instance of the recursive
pattern: a server towards the real agent and an agent towards the
upstream controller, with a forwarding RAN function that proxies one
service model 1:1 (subscriptions down, indications up, controls down).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.agent.agent import Agent, AgentConfig
from repro.core.agent.ran_function import ControlOutcome, RanFunction, SubscriptionHandle
from repro.core.agent.reconnect import ReconnectPolicy
from repro.core.e2ap.ies import (
    GlobalE2NodeId,
    NodeKind,
    RicActionAdmitted,
    RicActionDefinition,
    RicActionNotAdmitted,
)
from repro.core.e2ap.procedures import Cause
from repro.core.server.server import Server, ServerConfig
from repro.core.server.submgr import SubscriptionCallbacks
from repro.core.transport.base import Transport


class ForwardingFunction(RanFunction):
    """Proxies one service model between upstream and southbound."""

    def __init__(self, relay: "RelayController", oid: str, name: str, function_id: int) -> None:
        super().__init__(function_id, name, oid)
        self._relay = relay

    def on_subscription(
        self,
        handle: SubscriptionHandle,
        event_trigger: bytes,
        actions: List[RicActionDefinition],
    ):
        south = self._relay.south_function(self.oid)
        if south is None:
            return [], [
                RicActionNotAdmitted(a.action_id, 0, Cause.FUNCTION_RESOURCE_LIMIT)
                for a in actions
            ]
        conn_id, function_id = south
        self._relay.server.subscribe(
            conn_id=conn_id,
            ran_function_id=function_id,
            event_trigger=bytes(event_trigger),
            actions=list(actions),
            callbacks=SubscriptionCallbacks(
                on_indication=lambda event, h=handle: self._relay_indication(h, event)
            ),
        )
        self.subscriptions[handle.key()] = handle
        return [RicActionAdmitted(a.action_id) for a in actions], []

    def _relay_indication(self, handle: SubscriptionHandle, event) -> None:
        self.emit(
            handle,
            action_id=event.action_id,
            header=bytes(event.header),
            payload=bytes(event.payload),
            kind=event.kind,
        )

    def on_control(self, origin: int, header: bytes, payload: bytes) -> ControlOutcome:
        south = self._relay.south_function(self.oid)
        if south is None:
            return ControlOutcome.fail(
                Cause.ric_service(Cause.FUNCTION_RESOURCE_LIMIT, "no southbound function")
            )
        conn_id, function_id = south
        self._relay.server.control(
            conn_id=conn_id,
            ran_function_id=function_id,
            header=bytes(header),
            payload=bytes(payload),
        )
        return ControlOutcome.ok()


class RelayController:
    """Server southbound + agent northbound, forwarding listed SMs."""

    def __init__(
        self,
        transport: Transport,
        listen_address: str,
        forward: List[Tuple[str, str, int]],
        e2ap_codec: str = "fb",
        node_id: Optional[GlobalE2NodeId] = None,
        stale_grace_s: float = 0.0,
        reconnect: Optional[ReconnectPolicy] = None,
    ) -> None:
        """``forward`` lists (oid, name, function_id) triples to proxy.

        ``stale_grace_s`` keeps southbound nodes (and their relayed
        subscriptions) parked across short outages; ``reconnect`` arms
        the northbound agent leg with automatic backoff re-attachment,
        so a mid-chain controller heals both of its hops.
        """
        self.server = Server(
            ServerConfig(
                ric_id=80, e2ap_codec=e2ap_codec, stale_grace_s=stale_grace_s
            )
        )
        self.server.listen(transport, listen_address)
        self.agent = Agent(
            AgentConfig(
                node_id=node_id or GlobalE2NodeId("00198", 800, NodeKind.GNB),
                e2ap_codec=e2ap_codec,
            ),
            transport=transport,
        )
        if reconnect is not None:
            self.agent.enable_reconnect(reconnect)
        self.functions: Dict[str, ForwardingFunction] = {}
        for oid, name, function_id in forward:
            function = ForwardingFunction(self, oid, name, function_id)
            self.agent.register_function(function)
            self.functions[oid] = function

    def connect_upstream(self, address: str) -> int:
        """Attach to the upstream controller (hop 2)."""
        return self.agent.connect(address)

    def connect_upstream_async(self, address: str) -> int:
        """Start attaching upstream without waiting for E2 setup.

        For single-threaded harnesses that drive the shared transport
        inline: the setup exchange completes as the caller steps the
        event loop.
        """
        return self.agent.connect_async(address)

    def south_function(self, oid: str) -> Optional[Tuple[int, int]]:
        """(conn_id, function_id) of the first southbound agent
        exposing ``oid``, or None."""
        matches = self.server.randb.agents_with_oid(oid)
        if not matches:
            return None
        record, item = matches[0]
        return record.conn_id, item.ran_function_id
