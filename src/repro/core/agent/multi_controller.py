"""Multi-controller support at the agent (§4.1.2).

Two pieces:

* :class:`ControllerRegistry` — bookkeeping of every controller
  connection (setup, teardown, providing the *origin* index that RAN
  functions receive with each message),
* :class:`UeControllerMap` — the UE-to-controller association: which
  UEs each controller may see.  Every UE is associated with the first
  controller (origin 0) implicitly; additional exposure "has to be
  triggered through a controller" — there is deliberately no automatic
  association (the agent cannot always infer it, e.g. the DU never sees
  the PLMN a UE selected; Fig. 4).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Set


class LinkState(enum.IntEnum):
    """Lifecycle of one agent↔controller link.

    ``CONNECTING → READY`` is the happy path (E2 setup in flight, then
    accepted).  On a network death the link degrades instead of dying:
    ``READY → DEGRADED`` (disconnect observed, backoff pending) →
    ``RECONNECTING`` (attempt in flight) → back to ``CONNECTING`` once
    a transport connection exists.  ``DEAD`` is terminal: local
    teardown, setup refusal, or the reconnect policy giving up.
    """

    CONNECTING = 1
    READY = 2
    DEGRADED = 3
    RECONNECTING = 4
    DEAD = 5


@dataclass
class ControllerLink:
    """One controller connection as seen by the agent."""

    origin: int
    address: str
    connected: bool = True
    state: LinkState = LinkState.CONNECTING
    #: reconnect attempts since the link last left READY.
    reconnect_attempts: int = 0
    #: successful reconnects over the link's lifetime.
    reconnects: int = 0

    @property
    def alive(self) -> bool:
        return self.state in (LinkState.CONNECTING, LinkState.READY)


class ControllerRegistry:
    """Tracks the controllers this agent is attached to.

    Origin 0 is the first (primary) controller; additional controllers
    get increasing indices that stay stable for the lifetime of the
    agent (indices are not reused after teardown, so a RAN function
    never confuses an old controller with a new one).
    """

    def __init__(self) -> None:
        self._links: Dict[int, ControllerLink] = {}
        self._next_origin = 0

    def add(self, address: str) -> ControllerLink:
        link = ControllerLink(origin=self._next_origin, address=address)
        self._links[link.origin] = link
        self._next_origin += 1
        return link

    def remove(self, origin: int) -> None:
        link = self._links.pop(origin, None)
        if link is not None:
            link.connected = False
            link.state = LinkState.DEAD

    def get(self, origin: int) -> Optional[ControllerLink]:
        return self._links.get(origin)

    def origins(self) -> List[int]:
        return sorted(self._links)

    def __len__(self) -> int:
        return len(self._links)

    @property
    def primary(self) -> Optional[ControllerLink]:
        return self._links.get(0)


class UeControllerMap:
    """UE-to-controller association (§4.1.2).

    RAN functions consult :meth:`visible_ues` when serving a
    subscription so each controller only sees its own UEs — the
    slicing of the MAC statistics SM in the virtualization design
    (§6.2) is built on exactly this lookup.
    """

    def __init__(self) -> None:
        self._by_controller: Dict[int, Set[int]] = {}
        self._all_ues: Set[int] = set()

    def ue_attached(self, ue_id: int) -> None:
        """A UE arrived; it becomes visible to the first controller."""
        self._all_ues.add(ue_id)

    def ue_detached(self, ue_id: int) -> None:
        self._all_ues.discard(ue_id)
        for ues in self._by_controller.values():
            ues.discard(ue_id)

    def associate(self, ue_id: int, origin: int) -> None:
        """Expose ``ue_id`` to the controller at ``origin``.

        Triggered by a controller (e.g. the CU controller informing the
        DU agent after decoding the UE's PLMN, Fig. 4 step 4); raises
        if the UE is unknown so misconfigurations surface immediately.
        """
        if ue_id not in self._all_ues:
            raise KeyError(f"unknown UE {ue_id}")
        self._by_controller.setdefault(origin, set()).add(ue_id)

    def dissociate(self, ue_id: int, origin: int) -> None:
        self._by_controller.get(origin, set()).discard(ue_id)

    def visible_ues(self, origin: int) -> Set[int]:
        """UEs the controller at ``origin`` may observe/control."""
        if origin == 0:
            return set(self._all_ues)
        return set(self._by_controller.get(origin, set()))

    def controllers_for(self, ue_id: int) -> List[int]:
        """Origins (beyond the primary) that see ``ue_id``."""
        return sorted(
            origin for origin, ues in self._by_controller.items() if ue_id in ues
        )
