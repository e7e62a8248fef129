"""Controller specialization for hosting O-RAN-style xApps (§6.3).

The paper lists the services an xApp host must provide and argues a
FlexRIC specialization can offer them "as (SM-independent) iApps" far
more cheaply than the cluster-based O-RAN RIC: "(1) a messaging
infrastructure ...; (2) subscription management, e.g., merging
identical subscriptions; (3) xApp management to deploy xApps; (4) a
database for xApps to write and read information gathered through SMs;
and (5) additional services such as security, logging, and fault
management."

:class:`XappHostIApp` implements all five on top of the server library:

1. an in-process message bus (the Redis-like broker) between xApps,
2. **subscription merging** — two xApps asking for the same
   (node, SM, period) share one E2 subscription; this is the
   submgr's shared subscription (DESIGN.md §15.2): each xApp's
   callback is one sink, and the wire delete goes out when the last
   xApp riding it is undeployed,
3. deploy/undeploy of :class:`HostedXapp` instances at runtime,
4. a shared key-value store,
5. a bounded structured log plus fault counters per xApp (an xApp
   callback raising is recorded and isolated rather than taking the
   controller down — the process-isolation trade-off of §6, point 4,
   resolved in favour of in-process hosting with supervised calls).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.core.e2ap.ies import RicActionDefinition, RicActionKind
from repro.core.server.iapp import IApp
from repro.core.server.randb import AgentRecord
from repro.core.server.submgr import SinkHandle, SubscriptionCallbacks, SubscriptionRecord
from repro.northbound.broker import Broker
from repro.sm.base import PeriodicTrigger


@dataclass
class LogEntry:
    """One structured platform log record."""

    tstamp: float
    level: str
    source: str
    message: str


class HostedXapp:
    """Base class for xApps running on the host controller.

    Override the hooks; ``self.api`` (an :class:`XappApi`) is available
    from :meth:`on_start` onwards.
    """

    #: unique name within the host.
    name: str = "xapp"

    def __init__(self) -> None:
        self.api: Optional["XappApi"] = None

    def on_start(self, api: "XappApi") -> None:
        """Deployed: subscribe to what you need via ``api``."""
        self.api = api

    def on_stop(self) -> None:
        """About to be undeployed."""

    def on_agent(self, agent: AgentRecord) -> None:
        """A new E2 node connected."""

    def on_indication(self, conn_id: int, oid: str, event) -> None:
        """An indication for one of this xApp's subscriptions."""


@dataclass
class XappApi:
    """The platform services handed to each hosted xApp."""

    host: "XappHostIApp"
    xapp_name: str

    # -- service 1: messaging -----------------------------------------

    def publish(self, channel: str, payload: Any) -> int:
        return self.host.bus.publish(channel, payload)

    def subscribe_channel(self, pattern: str, handler) -> None:
        self.host.bus.subscribe(pattern, handler)

    # -- service 2: merged E2 subscriptions -----------------------------

    def subscribe_sm(
        self, conn_id: int, oid: str, period_ms: float, action_definition: bytes = b""
    ) -> bool:
        """Subscribe to an SM; identical requests are merged."""
        return self.host.subscribe_sm(
            self.xapp_name, conn_id, oid, period_ms, action_definition
        )

    def control_sm(self, conn_id: int, oid: str, header: bytes, payload: bytes) -> None:
        self.host.control_sm(conn_id, oid, header, payload)

    # -- service 4: shared database --------------------------------------

    def db_put(self, key: str, value: Any) -> None:
        self.host.db[key] = value

    def db_get(self, key: str, default: Any = None) -> Any:
        return self.host.db.get(key, default)

    def db_keys(self, prefix: str = "") -> List[str]:
        return sorted(k for k in self.host.db if k.startswith(prefix))

    # -- service 5: logging ------------------------------------------------

    def log(self, message: str, level: str = "info") -> None:
        self.host.log(self.xapp_name, message, level)

    # -- discovery -----------------------------------------------------------

    def nodes(self) -> List[AgentRecord]:
        return self.host.server.agents()


class XappHostIApp(IApp):
    """The §6.3 specialization: host platform for O-RAN-style xApps."""

    name = "xapp-host"

    LOG_CAPACITY = 1000

    def __init__(self, sm_codec: str = "fb") -> None:
        super().__init__()
        self.sm_codec = sm_codec
        self.bus = Broker()
        self.db: Dict[str, Any] = {}
        self.xapps: Dict[str, HostedXapp] = {}
        self.logbook: Deque[LogEntry] = deque(maxlen=self.LOG_CAPACITY)
        self.faults: Dict[str, int] = {}
        #: every ``Server.subscribe`` result, per xApp, until undeploy.
        self._handles: Dict[str, List["SubscriptionRecord | SinkHandle"]] = {}

    # -- service 3: xApp management ----------------------------------------

    def deploy(self, xapp: HostedXapp) -> XappApi:
        """Start an xApp; returns its API handle."""
        if xapp.name in self.xapps:
            raise ValueError(f"xApp {xapp.name!r} already deployed")
        self.xapps[xapp.name] = xapp
        api = XappApi(host=self, xapp_name=xapp.name)
        self.log("host", f"deploying xApp {xapp.name!r}")
        self._supervised(xapp.name, lambda: xapp.on_start(api))
        for agent in self.server.agents():
            self._supervised(xapp.name, lambda a=agent: xapp.on_agent(a))
        return api

    def undeploy(self, name: str) -> None:
        xapp = self.xapps.pop(name, None)
        if xapp is None:
            raise KeyError(f"no xApp {name!r}")
        self._supervised(name, xapp.on_stop)
        for handle in self._handles.pop(name, ()):
            self.server.unsubscribe(handle)
        self.log("host", f"undeployed xApp {name!r}")

    def deployed(self) -> List[str]:
        return sorted(self.xapps)

    # -- service 2: merged subscription management ----------------------------

    def subscribe_sm(
        self,
        xapp_name: str,
        conn_id: int,
        oid: str,
        period_ms: float,
        action_definition: bytes = b"",
    ) -> bool:
        xapp = self.xapps.get(xapp_name)
        agent = self.server.randb.agent(conn_id)
        if xapp is None or agent is None:
            return False
        item = agent.function_by_oid(oid)
        if item is None:
            return False
        trigger = PeriodicTrigger(period_ms).to_bytes(self.sm_codec)
        actions = [
            RicActionDefinition(
                action_id=1, kind=RicActionKind.REPORT, definition=action_definition
            )
        ]
        # Drop handles whose wire subscription is gone (failed, or its
        # node was purged); one already riding this request is enough.
        held = [handle for handle in self._handles.get(xapp_name, ()) if self._live(handle)]
        self._handles[xapp_name] = held
        shared = self.server.submgr.find_shared(
            conn_id, item.ran_function_id, trigger, actions, None
        )
        if shared is not None and any(h.request == shared.request for h in held):
            return True
        held.append(
            self.server.subscribe(
                conn_id=conn_id,
                ran_function_id=item.ran_function_id,
                event_trigger=trigger,
                actions=actions,
                callbacks=SubscriptionCallbacks(
                    on_indication=lambda event: self._supervised(
                        xapp_name, lambda: xapp.on_indication(conn_id, oid, event)
                    )
                ),
            )
        )
        return True

    def _live(self, handle: "SubscriptionRecord | SinkHandle") -> bool:
        """Is the wire subscription behind ``handle`` still registered?"""
        return self.server.submgr.lookup(*handle.request.as_tuple()) is not None

    def control_sm(self, conn_id: int, oid: str, header: bytes, payload: bytes) -> None:
        agent = self.server.randb.agent(conn_id)
        if agent is None:
            raise KeyError(f"unknown agent connection {conn_id}")
        item = agent.function_by_oid(oid)
        if item is None:
            raise KeyError(f"agent {conn_id} lacks SM {oid}")
        self.server.control(
            conn_id=conn_id,
            ran_function_id=item.ran_function_id,
            header=header,
            payload=payload,
        )

    # -- service 5: logging and fault management --------------------------------

    def log(self, source: str, message: str, level: str = "info") -> None:
        # Wall clock on purpose: logbook timestamps are human-facing
        # and never enter deadline or duration arithmetic.
        self.logbook.append(
            LogEntry(tstamp=time.time(), level=level, source=source, message=message)  # repro-lint: disable=RL001
        )

    def _supervised(self, xapp_name: str, thunk: Callable[[], None]) -> None:
        """Run an xApp callback; record (not propagate) its faults."""
        try:
            thunk()
        except Exception as exc:  # noqa: BLE001  # repro-lint: disable=RL002 - fault isolation boundary: a buggy xApp callback must never take down the host
            self.faults[xapp_name] = self.faults.get(xapp_name, 0) + 1
            self.log(xapp_name, f"fault: {type(exc).__name__}: {exc}", level="error")

    # -- lifecycle -------------------------------------------------------------

    def on_agent_connected(self, agent: AgentRecord) -> None:
        self.log("host", f"agent connected: {agent.node_id.label}")
        for name, xapp in list(self.xapps.items()):
            self._supervised(name, lambda x=xapp, a=agent: x.on_agent(a))

    def on_agent_disconnected(self, agent: AgentRecord) -> None:
        self.log("host", f"agent disconnected: {agent.node_id.label}")

    def _live_handles(self) -> List["SubscriptionRecord | SinkHandle"]:
        return [h for held in self._handles.values() for h in held if self._live(h)]

    @property
    def merged_subscriptions(self) -> int:
        """Distinct E2 subscriptions the deployed xApps ride."""
        return len({h.request for h in self._live_handles()})

    @property
    def merges_saved(self) -> int:
        """Subscribes that rode an existing E2 subscription instead of
        sending a new one."""
        return sum(isinstance(h, SinkHandle) for h in self._live_handles())
