"""Asyncio E2-node tier: AsyncE2Node and its framed endpoint (§14).

The tier is the E2-node side only: every test drives a real sync server
(the selector loop thread of ``Server.listen``, framed TCP, or
multiprocess workers) with a node running under ``asyncio.run``, so
nothing here may block the loop.
"""

import asyncio
import queue

import pytest

from repro.aio import AsyncE2Node, aio_connect
from repro.aio.node import ControlRejected
from repro.core.e2ap.ies import (
    GlobalE2NodeId,
    NodeKind,
    RanFunctionItem,
    RicActionDefinition,
    RicActionKind,
)
from repro.core.e2ap.messages import RicControlAcknowledge, RicControlFailure
from repro.core.server import Server, ServerConfig, SubscriptionCallbacks
from repro.core.server.workers import MultiProcServer, SubscriptionPolicy
from repro.core.transport import TcpTransport
from repro.metrics.counters import reset_all

FN = 200


def make_node_id(nb_id=7):
    return GlobalE2NodeId(plmn="00101", nb_id=nb_id, kind=NodeKind.GNB)


def make_functions():
    return [RanFunctionItem(ran_function_id=FN, definition=b"aio", oid="aio")]


def sync_stack():
    transport = TcpTransport()
    server = Server(ServerConfig(e2ap_codec="fb"))
    listener = server.listen(transport, "127.0.0.1:0")
    transport.start()
    return server, transport, listener.port


class TestAsyncEndToEnd:
    def test_subscribe_stream_control(self):
        """The RIC side is the sync ``Server`` API; its callbacks run on
        the transport thread and reach the coroutine through
        thread-safe queues, so nothing blocks the loop."""
        server, transport, port = sync_stack()
        indications, outcomes, deleted = queue.Queue(), queue.Queue(), queue.Queue()

        def on_control(header, payload):
            if payload == b"nope":
                raise ControlRejected("refused on purpose")
            return b"done:" + payload

        async def next_of(items):
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(None, items.get, True, 5.0)

        async def scenario():
            node = AsyncE2Node(
                make_node_id(), make_functions(), on_control=on_control
            )
            await node.connect("127.0.0.1", port)
            conn_id = server.agents()[0].conn_id
            record = server.subscribe(
                conn_id,
                ran_function_id=FN,
                event_trigger=b"",
                actions=[RicActionDefinition(1, RicActionKind.REPORT)],
                callbacks=SubscriptionCallbacks(
                    on_indication=lambda event: indications.put(event.payload),
                    on_deleted=deleted.put,
                ),
            )
            handle = await node.wait_subscription()
            await node.emit_many(handle, [b"p%d" % i for i in range(10)])
            got = [await next_of(indications) for _ in range(10)]
            assert got == [b"p%d" % i for i in range(10)]

            server.control(conn_id, FN, b"", b"hello", on_outcome=outcomes.put)
            ack = await next_of(outcomes)
            assert isinstance(ack, RicControlAcknowledge)
            assert ack.outcome == b"done:hello"
            server.control(conn_id, FN, b"", b"nope", on_outcome=outcomes.put)
            assert isinstance(await next_of(outcomes), RicControlFailure)

            # Deleting the subscription reaches the node and is answered.
            server.unsubscribe(record)
            await next_of(deleted)
            assert node.subscriptions == {}
            await node.close()

        try:
            asyncio.run(scenario())
        finally:
            server.close()
            transport.stop()


class TestAioTransport:
    def test_endpoint_eof_ends_iteration(self):
        server, transport, port = sync_stack()

        async def scenario():
            endpoint = await aio_connect("127.0.0.1", port)
            assert endpoint.peer.startswith("127.0.0.1")
            await endpoint.close()
            assert endpoint.closed
            with pytest.raises(ConnectionError):
                await endpoint.send(b"after-close")

        try:
            asyncio.run(scenario())
        finally:
            server.close()
            transport.stop()


class TestAsyncNodeAgainstWorkers:
    """The two tentpole halves composed: an asyncio E2 node feeding the
    multiprocess ingest tier through its policy-driven subscriptions."""

    def test_async_node_feeds_multiproc_workers(self):
        reset_all()
        mp = MultiProcServer(ServerConfig(e2ap_codec="fb"), workers=2, port=0)

        async def scenario():
            node = AsyncE2Node(make_node_id(), make_functions())
            await node.connect("127.0.0.1", mp.port)
            handle = await node.wait_subscription(timeout_s=10.0)
            await node.emit_many(handle, [b"w"] * 50)
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 15.0
            while loop.time() < deadline:
                total = await loop.run_in_executor(None, mp.total_indications)
                if total >= 50:
                    break
                await asyncio.sleep(0.05)
            assert total >= 50
            await node.close()

        try:
            mp.start()
            mp.subscribe_all(
                SubscriptionPolicy(
                    ran_function_id=FN,
                    event_trigger=b"t",
                    actions=(RicActionDefinition(1, RicActionKind.REPORT),),
                )
            )
            asyncio.run(scenario())
        finally:
            mp.stop()
