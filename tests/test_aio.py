"""Async client tier: AsyncAgent/AsyncSubscription/AsyncE2Node (§14).

The tier is client-side only: every test drives a real sync server (the
selector loop thread of ``Server.listen``, framed TCP, or multiprocess
workers) from coroutines via ``asyncio.run``.  The bridge under test is
the thread→loop hand-off layer, so nothing here may block the loop.
"""

import asyncio

import pytest

from repro.aio import AsyncAgent, AsyncE2Node, aio_connect
from repro.aio.node import ControlRejected
from repro.aio.agent import ControlFailed
from repro.core.e2ap.ies import (
    GlobalE2NodeId,
    NodeKind,
    RanFunctionItem,
    RicActionDefinition,
    RicActionKind,
)
from repro.core.server import Server, ServerConfig
from repro.core.server.workers import MultiProcServer, SubscriptionPolicy
from repro.core.transport import TcpTransport
from repro.metrics.counters import counter_values, reset_all

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
        server, transport, port = sync_stack()

        def on_control(header, payload):
            if payload == b"nope":
                raise ControlRejected("refused on purpose")
            return b"done:" + payload

        async def scenario():
            node = AsyncE2Node(
                make_node_id(), make_functions(), on_control=on_control
            )
            await node.connect("127.0.0.1", port)
            async with AsyncAgent(server) as ric:
                agents = await ric.wait_agents(1)
                conn_id = agents[0].conn_id

                sub = await ric.subscribe(
                    conn_id,
                    ran_function_id=FN,
                    actions=[RicActionDefinition(1, RicActionKind.REPORT)],
                )
                handle = await node.wait_subscription()
                await node.emit_many(
                    handle, [b"p%d" % i for i in range(10)]
                )
                got = []
                async for indication in sub:
                    got.append(indication.payload)
                    if len(got) == 10:
                        break
                assert got == [b"p%d" % i for i in range(10)]

                ack = await ric.control(conn_id, FN, payload=b"hello")
                assert ack.outcome == b"done:hello"
                with pytest.raises(ControlFailed):
                    await ric.control(conn_id, FN, payload=b"nope")

                # Deleting the subscription ends the stream cleanly.
                await sub.close()
                assert [item async for item in sub] == []
            await node.close()

        try:
            asyncio.run(scenario())
        finally:
            server.close()
            transport.stop()

    def test_slow_consumer_sheds_oldest(self):
        reset_all()
        server, transport, port = sync_stack()

        async def scenario():
            node = AsyncE2Node(make_node_id(), make_functions())
            await node.connect("127.0.0.1", port)
            async with AsyncAgent(server) as ric:
                agents = await ric.wait_agents(1)
                sub = await ric.subscribe(
                    agents[0].conn_id,
                    ran_function_id=FN,
                    actions=[RicActionDefinition(1, RicActionKind.REPORT)],
                    queue_size=4,
                )
                handle = await node.wait_subscription()
                await node.emit_many(
                    handle, [b"x"] * 20, start_sequence=0
                )
                # Let every push land while we (the slow consumer)
                # deliberately do not read: 16 oldest must be shed.
                deadline = asyncio.get_running_loop().time() + 10.0
                while (
                    counter_values().get("aio.subscription.shed", 0) < 16
                    and asyncio.get_running_loop().time() < deadline
                ):
                    await asyncio.sleep(0.01)
                assert counter_values().get("aio.subscription.shed") == 16
                kept = [await sub.__anext__() for _ in range(4)]
                # Newest-data-wins: the survivors are the last four.
                assert [item.sequence for item in kept] == [16, 17, 18, 19]
            await node.close()

        try:
            asyncio.run(scenario())
        finally:
            server.close()
            transport.stop()

    def test_wait_agents_times_out_loudly(self):
        server, transport, _ = sync_stack()

        async def scenario():
            ric = AsyncAgent(server)
            with pytest.raises(TimeoutError):
                await ric.wait_agents(1, timeout_s=0.2)

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
        mp = MultiProcServer(ServerConfig(e2ap_codec="fb", workers=2), port=0)

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
