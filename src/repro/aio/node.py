"""Asyncio E2-node agent over the framed-TCP wire.

:class:`AsyncE2Node` is an E2 node written against the event loop
instead of callback threads: it connects to any server (sync,
multiprocess worker, remote) over the framed-TCP wire, performs the
E2 setup handshake, admits subscriptions (surfacing them as awaitable
:class:`AdmittedSubscription` objects), answers service-query
keepalives, and runs an optional control handler.  ``emit``/
``emit_many`` push indications for an admitted subscription.
"""

from __future__ import annotations

import asyncio
import inspect
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.core.codec import get_codec
from repro.core.codec.base import CodecError
from repro.core.e2ap.ies import GlobalE2NodeId, RanFunctionItem, RicActionAdmitted
from repro.core.e2ap.messages import (
    E2Message,
    E2SetupFailure,
    E2SetupRequest,
    E2SetupResponse,
    RicControlAcknowledge,
    RicControlFailure,
    RicControlRequest,
    RicIndication,
    RicServiceQuery,
    RicServiceUpdate,
    RicSubscriptionDeleteRequest,
    RicSubscriptionDeleteResponse,
    RicSubscriptionRequest,
    RicSubscriptionResponse,
    decode_message,
    encode_message,
)
from repro.core.e2ap.procedures import Cause, CauseKind
from repro.metrics.counters import get_counter

from repro.aio.transport import AioEndpoint, aio_connect

#: control handler: (header, payload) -> outcome bytes.  Raise
#: :class:`ControlRejected` to answer with a RicControlFailure.
ControlHandler = Callable[[bytes, bytes], object]


class ControlRejected(Exception):
    """Raised by a control handler to refuse the request."""

    def __init__(self, detail: str = "", value: int = Cause.CONTROL_MESSAGE_INVALID):
        super().__init__(detail or "control rejected")
        self.cause = Cause(CauseKind.RIC_REQUEST, value, detail)


class SetupRefused(Exception):
    """The RIC answered E2 setup with a failure (e.g. admission)."""

    def __init__(self, failure: E2SetupFailure) -> None:
        super().__init__(f"setup refused: {failure.cause}")
        self.failure = failure


class AdmittedSubscription:
    """One subscription admitted by this node."""

    __slots__ = ("request", "ran_function_id", "event_trigger", "actions")

    def __init__(self, message: RicSubscriptionRequest) -> None:
        self.request = message.request
        self.ran_function_id = message.ran_function_id
        self.event_trigger = message.event_trigger
        self.actions = list(message.actions)

    @property
    def default_action_id(self) -> int:
        return self.actions[0].action_id if self.actions else 1


class AsyncE2Node:
    """Async E2 node agent speaking framed TCP.

    Example::

        node = AsyncE2Node(node_id, functions=[item])
        await node.connect(host, port)
        handle = await node.wait_subscription()
        await node.emit(handle, sequence=0, payload=b"...")
        await node.close()
    """

    def __init__(
        self,
        node_id: GlobalE2NodeId,
        functions: Sequence[RanFunctionItem],
        codec: str = "fb",
        on_control: Optional[ControlHandler] = None,
    ) -> None:
        self.node_id = node_id
        self.functions = list(functions)
        self.codec = get_codec(codec)
        self.on_control = on_control
        self.subscriptions: Dict[Tuple[int, int], AdmittedSubscription] = {}
        self.indications_sent = 0
        self._endpoint: Optional[AioEndpoint] = None
        self._read_task: Optional["asyncio.Task"] = None
        self._ready: Optional["asyncio.Future"] = None
        self._sub_queue: "asyncio.Queue" = asyncio.Queue()

    # -- lifecycle ---------------------------------------------------

    async def connect(self, host: str, port: int, timeout_s: float = 5.0) -> None:
        """Connect, send E2 setup, await the RIC's response."""
        loop = asyncio.get_running_loop()
        self._endpoint = await aio_connect(host, port, timeout_s)
        self._ready = loop.create_future()
        self._read_task = asyncio.ensure_future(self._read_loop())
        await self._endpoint.send(
            encode_message(
                E2SetupRequest(node_id=self.node_id, ran_functions=self.functions),
                self.codec,
            )
        )
        await asyncio.wait_for(self._ready, timeout=timeout_s)

    async def close(self) -> None:
        if self._read_task is not None:
            self._read_task.cancel()
            try:
                await self._read_task
            except (asyncio.CancelledError, ConnectionError):
                pass
            self._read_task = None
        if self._endpoint is not None:
            await self._endpoint.close()

    async def __aenter__(self) -> "AsyncE2Node":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- subscription / indication surface ---------------------------

    async def wait_subscription(
        self, timeout_s: float = 5.0
    ) -> AdmittedSubscription:
        """Await the next subscription admitted by this node."""
        return await asyncio.wait_for(self._sub_queue.get(), timeout=timeout_s)

    async def emit(
        self,
        handle: AdmittedSubscription,
        sequence: int,
        header: bytes = b"",
        payload: bytes = b"",
        action_id: Optional[int] = None,
    ) -> None:
        await self._endpoint.send(self._indication_bytes(
            handle, sequence, header, payload, action_id
        ))
        self.indications_sent += 1

    async def emit_many(
        self,
        handle: AdmittedSubscription,
        payloads: Sequence[bytes],
        start_sequence: int = 0,
        header: bytes = b"",
        action_id: Optional[int] = None,
    ) -> None:
        """One coalesced write for a burst of indications."""
        frames = [
            self._indication_bytes(
                handle, start_sequence + offset, header, payload, action_id
            )
            for offset, payload in enumerate(payloads)
        ]
        await self._endpoint.send_many(frames)
        self.indications_sent += len(frames)

    def _indication_bytes(
        self,
        handle: AdmittedSubscription,
        sequence: int,
        header: bytes,
        payload: bytes,
        action_id: Optional[int],
    ) -> bytes:
        message = RicIndication(
            request=handle.request,
            ran_function_id=handle.ran_function_id,
            action_id=handle.default_action_id if action_id is None else action_id,
            sequence=sequence,
            header=header,
            payload=payload,
        )
        return encode_message(message, self.codec)

    # -- read loop ---------------------------------------------------

    async def _read_loop(self) -> None:
        """Decode and dispatch inbound frames until EOF/cancel.

        Asyncio awaits suspend rather than block, and cancellation (not
        a timeout) bounds the loop's lifetime.
        """
        endpoint = self._endpoint
        async for frame in endpoint:
            try:
                message = decode_message(frame, self.codec)
            except CodecError:
                get_counter("agent.rx.decode_error").incr()
                get_counter("decode.contained").incr()
                continue
            await self._dispatch(message)
        # EOF: a pending setup can never complete now.
        if self._ready is not None and not self._ready.done():
            self._ready.set_exception(ConnectionError("link closed during setup"))

    async def _dispatch(self, message: E2Message) -> None:
        if isinstance(message, RicIndication):
            return  # nodes do not consume indications
        if isinstance(message, E2SetupResponse):
            if self._ready is not None and not self._ready.done():
                self._ready.set_result(message)
        elif isinstance(message, E2SetupFailure):
            if self._ready is not None and not self._ready.done():
                self._ready.set_exception(SetupRefused(message))
        elif isinstance(message, RicSubscriptionRequest):
            await self._admit(message)
        elif isinstance(message, RicSubscriptionDeleteRequest):
            self.subscriptions.pop(message.request.as_tuple(), None)
            await self._endpoint.send(
                encode_message(
                    RicSubscriptionDeleteResponse(
                        request=message.request,
                        ran_function_id=message.ran_function_id,
                    ),
                    self.codec,
                )
            )
        elif isinstance(message, RicServiceQuery):
            # Keepalive: answer with the full inventory.
            await self._endpoint.send(
                encode_message(RicServiceUpdate(added=self.functions), self.codec)
            )
        elif isinstance(message, RicControlRequest):
            await self._handle_control(message)

    async def _admit(self, message: RicSubscriptionRequest) -> None:
        handle = AdmittedSubscription(message)
        self.subscriptions[message.request.as_tuple()] = handle
        await self._endpoint.send(
            encode_message(
                RicSubscriptionResponse(
                    request=message.request,
                    ran_function_id=message.ran_function_id,
                    admitted=[
                        RicActionAdmitted(action.action_id)
                        for action in message.actions
                    ],
                ),
                self.codec,
            )
        )
        self._sub_queue.put_nowait(handle)

    async def _handle_control(self, message: RicControlRequest) -> None:
        outcome: object = b""
        failure: Optional[Cause] = None
        if self.on_control is not None:
            try:
                outcome = self.on_control(message.header, message.payload)
                if inspect.isawaitable(outcome):
                    outcome = await outcome
            except ControlRejected as exc:
                failure = exc.cause
        if not message.ack_requested:
            return
        if failure is not None:
            reply: E2Message = RicControlFailure(
                request=message.request,
                ran_function_id=message.ran_function_id,
                cause=failure,
            )
        else:
            reply = RicControlAcknowledge(
                request=message.request,
                ran_function_id=message.ran_function_id,
                outcome=outcome if isinstance(outcome, bytes) else b"",
            )
        await self._endpoint.send(encode_message(reply, self.codec))
