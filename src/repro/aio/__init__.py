"""Asyncio E2-node tier over the sync E2 core (DESIGN.md §14).

The E2-node side of an E2 link, written against the event loop, for
async-native simulators and tests; the RIC itself always takes
connections through ``Server.listen`` on a selector loop:

* :class:`AsyncE2Node` — an asyncio agent speaking the framed-TCP wire
  protocol to any server (including multiprocess workers).
* :func:`aio_connect` / :class:`AioEndpoint` — the framed connection
  :class:`AsyncE2Node` runs on.

Nothing here loads the server library.
"""

from repro.aio.node import AsyncE2Node
from repro.aio.transport import AioEndpoint, aio_connect

__all__ = [
    "AioEndpoint",
    "AsyncE2Node",
    "aio_connect",
]
