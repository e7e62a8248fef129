"""Async-first client tier over the sync E2 core (DESIGN.md §14).

Portable xApp frameworks (onos-ric-sdk-py's ``E2Client``, xDevSM)
expose subscriptions as awaitable streams; the thread-callback
:class:`~repro.core.agent.agent.Agent` cannot express that.  This
package is the client side of both ends of an E2 link; the RIC itself
always takes connections through ``Server.listen`` on a selector loop:

* :class:`AsyncAgent` — iApp/xApp side: ``async for indication in
  subscription`` and awaitable control against an in-process
  :class:`~repro.core.server.server.Server`.
* :class:`AsyncE2Node` — E2-node side: an asyncio agent speaking the
  framed-TCP wire protocol to any server (including multiprocess
  workers), for async-native simulators and tests.
* :func:`aio_connect` / :class:`AioEndpoint` — the framed connection
  :class:`AsyncE2Node` runs on.
"""

from repro.aio.agent import (
    AsyncAgent,
    AsyncSubscription,
    ControlFailed,
    SubscriptionRefused,
)
from repro.aio.node import AsyncE2Node, AsyncSubscriptionHandle
from repro.aio.transport import AioEndpoint, aio_connect

__all__ = [
    "AioEndpoint",
    "AsyncAgent",
    "AsyncE2Node",
    "AsyncSubscription",
    "AsyncSubscriptionHandle",
    "ControlFailed",
    "SubscriptionRefused",
    "aio_connect",
]
