"""Awaitable xApp/iApp API over the sync server (onos-ric-sdk-py style).

:class:`AsyncAgent` wraps an in-process
:class:`~repro.core.server.server.Server` and re-expresses its
thread-callback contract as coroutines: ``subscribe`` returns an
:class:`AsyncSubscription` usable as ``async for indication in sub``,
``control`` awaits the acknowledge/failure outcome.  The bridge is
one-way hand-offs via ``loop.call_soon_threadsafe`` — transport loop
threads never run user coroutines, and the event loop never blocks on
server internals (slow sync calls run in the default executor).

Backpressure: each subscription buffers up to ``queue_size``
indications.  A slow consumer sheds the *oldest* buffered indication
(counted in ``aio.subscription.shed``) — the newest-data-wins policy
of the overload discipline, applied at the client tier.
"""

from __future__ import annotations

import asyncio
from functools import partial
from typing import Any, List, Optional, Sequence

from repro.core.e2ap.ies import RicActionDefinition
from repro.core.e2ap.messages import (
    E2Message,
    RicControlFailure,
    RicSubscriptionFailure,
)
from repro.core.server.server import Server
from repro.core.server.submgr import SubscriptionCallbacks, SubscriptionRecord
from repro.metrics.counters import get_counter

#: end-of-stream marker pushed into a subscription's queue.
_DONE = object()


class SubscriptionRefused(Exception):
    """The server (or the E2 node) refused the subscription."""

    def __init__(self, failure: RicSubscriptionFailure) -> None:
        super().__init__(f"subscription refused: {failure.cause}")
        self.failure = failure


class ControlFailed(Exception):
    """The E2 node answered a control request with a failure."""

    def __init__(self, failure: RicControlFailure) -> None:
        super().__init__(f"control failed: {failure.cause}")
        self.failure = failure


def _resolve(future: "asyncio.Future", value: Any) -> None:
    if not future.done():
        future.set_result(value)


def _reject(future: "asyncio.Future", exc: Exception) -> None:
    if not future.done():
        future.set_exception(exc)


class AsyncSubscription:
    """One confirmed subscription as an async indication stream.

    Iterate with ``async for event in sub``; the stream ends when the
    subscription is deleted (by :meth:`close` or the server) and raises
    :class:`SubscriptionRefused` if the node tears it down with a
    failure after confirmation.
    """

    def __init__(self, agent: "AsyncAgent", queue_size: int) -> None:
        self._agent = agent
        self._loop = asyncio.get_running_loop()
        self._queue: "asyncio.Queue" = asyncio.Queue(maxsize=max(1, queue_size))
        self._record: Optional[SubscriptionRecord] = None
        self._closed = False
        self._finished = False

    # -- transport-thread side (hand-offs only) ----------------------

    def _from_thread(self, thunk, *args) -> None:
        try:
            self._loop.call_soon_threadsafe(thunk, *args)
        except RuntimeError:
            # The loop is gone (test teardown raced a late callback).
            get_counter("aio.loop_closed").incr()

    def _push(self, item: Any) -> None:
        """Runs on the loop: enqueue, shedding oldest when full."""
        if self._finished:
            return
        if item is _DONE or isinstance(item, Exception):
            self._finished = True
        queue = self._queue
        while queue.full():
            try:
                queue.get_nowait()
            except asyncio.QueueEmpty:  # pragma: no cover - race-free on loop
                break
            get_counter("aio.subscription.shed").incr()
        queue.put_nowait(item)

    # -- consumer side -----------------------------------------------

    def __aiter__(self) -> "AsyncSubscription":
        return self

    async def __anext__(self) -> Any:
        if self._finished and self._queue.empty():
            raise StopAsyncIteration
        item = await self._queue.get()
        if item is _DONE:
            raise StopAsyncIteration
        if isinstance(item, Exception):
            raise item
        return item

    @property
    def record(self) -> Optional[SubscriptionRecord]:
        return self._record

    async def close(self) -> None:
        """Delete the subscription and end the stream."""
        if self._closed:
            return
        self._closed = True
        record = self._record
        if record is not None:
            try:
                await self._loop.run_in_executor(
                    None, partial(self._agent._server.unsubscribe, record)
                )
            except (ConnectionError, KeyError):
                pass  # link already dead: the stream just ends
        self._push(_DONE)


class AsyncAgent:
    """Awaitable fronting for one in-process sync server.

    Async context manager; ``async with AsyncAgent(server) as ric:``
    closes every open subscription on exit.
    """

    def __init__(self, server: Server) -> None:
        self._server = server
        self._subscriptions: List[AsyncSubscription] = []

    @property
    def server(self) -> Server:
        return self._server

    def agents(self):
        return self._server.agents()

    async def wait_agents(self, count: int, timeout_s: float = 5.0):
        """Await at least ``count`` connected agents; returns them."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        while True:
            agents = self._server.agents()
            if len(agents) >= count:
                return agents
            if loop.time() >= deadline:
                raise TimeoutError(
                    f"{len(agents)}/{count} agents after {timeout_s}s"
                )
            await asyncio.sleep(0.01)

    async def subscribe(
        self,
        conn_id: int,
        ran_function_id: int,
        event_trigger: bytes = b"",
        actions: Sequence[RicActionDefinition] = (),
        requestor_id: Optional[int] = None,
        queue_size: int = 1024,
        confirm_timeout_s: float = 5.0,
    ) -> AsyncSubscription:
        """Subscribe and await the node's admission.

        Raises :class:`SubscriptionRefused` on a failure outcome and
        :class:`asyncio.TimeoutError` if no outcome arrives in time.
        """
        loop = asyncio.get_running_loop()
        sub = AsyncSubscription(self, queue_size)
        confirmed: "asyncio.Future" = loop.create_future()
        callbacks = SubscriptionCallbacks(
            on_success=lambda response: sub._from_thread(
                _resolve, confirmed, response
            ),
            on_failure=lambda failure: sub._from_thread(
                self._subscription_failed, sub, confirmed, failure
            ),
            on_indication=lambda event: sub._from_thread(sub._push, event),
            on_deleted=lambda response: sub._from_thread(sub._push, _DONE),
        )
        record = await loop.run_in_executor(
            None,
            partial(
                self._server.subscribe,
                conn_id=conn_id,
                ran_function_id=ran_function_id,
                event_trigger=event_trigger,
                actions=list(actions),
                callbacks=callbacks,
                requestor_id=requestor_id,
            ),
        )
        sub._record = record
        await asyncio.wait_for(confirmed, timeout=confirm_timeout_s)
        self._subscriptions.append(sub)
        return sub

    @staticmethod
    def _subscription_failed(
        sub: AsyncSubscription,
        confirmed: "asyncio.Future",
        failure: RicSubscriptionFailure,
    ) -> None:
        """Runs on the loop: route a failure to the right consumer."""
        exc = SubscriptionRefused(failure)
        if not confirmed.done():
            _reject(confirmed, exc)
        else:
            # Post-confirmation teardown: surface it through the stream.
            sub._push(exc)

    async def control(
        self,
        conn_id: int,
        ran_function_id: int,
        header: bytes = b"",
        payload: bytes = b"",
        timeout_s: float = 5.0,
        requestor_id: int = 1,
        raise_on_failure: bool = True,
    ) -> E2Message:
        """Send a control request and await its ack/failure outcome."""
        loop = asyncio.get_running_loop()
        outcome: "asyncio.Future" = loop.create_future()

        def on_outcome(message: E2Message) -> None:
            try:
                loop.call_soon_threadsafe(_resolve, outcome, message)
            except RuntimeError:
                get_counter("aio.loop_closed").incr()

        await loop.run_in_executor(
            None,
            partial(
                self._server.control,
                conn_id,
                ran_function_id,
                header,
                payload,
                on_outcome=on_outcome,
                requestor_id=requestor_id,
            ),
        )
        message = await asyncio.wait_for(outcome, timeout=timeout_s)
        if raise_on_failure and isinstance(message, RicControlFailure):
            raise ControlFailed(message)
        return message

    async def close(self) -> None:
        for sub in list(self._subscriptions):
            await sub.close()
        self._subscriptions.clear()

    async def __aenter__(self) -> "AsyncAgent":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()
