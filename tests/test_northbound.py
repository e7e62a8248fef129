"""Unit tests for the northbound interfaces: broker and REST."""

import json
import threading
from http.client import HTTPConnection

import pytest

from repro.northbound.broker import Broker
from repro.northbound.rest import RestClient, RestError, RestServer


class TestBroker:
    def test_handler_delivery(self):
        broker = Broker()
        seen = []
        broker.subscribe("chan", lambda channel, payload: seen.append((channel, payload)))
        assert broker.publish("chan", {"x": 1}) == 1
        assert seen == [("chan", {"x": 1})]

    def test_mailbox_delivery(self):
        broker = Broker()
        sub = broker.subscribe("chan")
        broker.publish("chan", 1)
        broker.publish("chan", 2)
        assert sub.drain() == [("chan", 1), ("chan", 2)]
        assert sub.drain() == []

    def test_glob_patterns(self):
        broker = Broker()
        seen = []
        broker.subscribe("ran/*/rlc", lambda c, p: seen.append(c))
        broker.publish("ran/1/rlc", None)
        broker.publish("ran/2/rlc", None)
        broker.publish("ran/1/tc", None)
        assert seen == ["ran/1/rlc", "ran/2/rlc"]

    def test_no_subscribers(self):
        assert Broker().publish("x", None) == 0

    def test_unsubscribe(self):
        broker = Broker()
        sub = broker.subscribe("chan")
        broker.unsubscribe(sub)
        broker.publish("chan", 1)
        assert sub.mailbox == type(sub.mailbox)()
        assert broker.subscriber_count == 0

    def test_counters(self):
        broker = Broker()
        broker.subscribe("a")
        broker.subscribe("*")
        broker.publish("a", None)
        assert broker.published == 1
        assert broker.delivered == 2


class TestRest:
    @pytest.fixture()
    def server(self):
        server = RestServer()
        server.start()
        yield server
        server.stop()

    def test_get_roundtrip(self, server):
        server.route("GET", "/hello", lambda subpath, body: {"msg": f"hi {subpath}"})
        client = RestClient("127.0.0.1", server.port)
        assert client.get("/hello/world") == {"msg": "hi world"}

    def test_post_with_body(self, server):
        server.route("POST", "/echo", lambda subpath, body: {"got": body})
        client = RestClient("127.0.0.1", server.port)
        assert client.post("/echo", {"a": [1, 2]}) == {"got": {"a": [1, 2]}}

    def test_404_for_unknown_route(self, server):
        client = RestClient("127.0.0.1", server.port)
        with pytest.raises(RestError) as exc_info:
            client.get("/nothing")
        assert exc_info.value.status == 404

    def test_handler_error_status(self, server):
        def handler(subpath, body):
            raise RestError(400, "bad input")

        server.route("POST", "/strict", handler)
        client = RestClient("127.0.0.1", server.port)
        with pytest.raises(RestError) as exc_info:
            client.post("/strict", {})
        assert exc_info.value.status == 400

    def test_longest_prefix_wins(self, server):
        server.route("GET", "/a", lambda s, b: "short")
        server.route("GET", "/a/b", lambda s, b: "long")
        client = RestClient("127.0.0.1", server.port)
        assert client.get("/a/b/c") == "long"
        assert client.get("/a/x") == "short"

    def test_delete_method(self, server):
        server.route("DELETE", "/item", lambda s, b: {"deleted": s})
        client = RestClient("127.0.0.1", server.port)
        assert client.delete("/item/5") == {"deleted": "5"}


class TestRestBadRequests:
    """A request the server cannot read, or a handler that raises, gets
    a JSON error reply; the connection is not dropped and the next
    request is served."""

    @pytest.fixture()
    def server(self):
        server = RestServer()
        server.route("POST", "/echo", lambda subpath, body: {"got": body})
        server.route("POST", "/field", lambda subpath, body: {"x": body["x"]})
        server.start()
        yield server
        server.stop()

    @staticmethod
    def _post(server, headers, body=b""):
        conn = HTTPConnection("127.0.0.1", server.port, timeout=5.0)
        try:
            conn.putrequest("POST", "/echo")
            for name, value in headers.items():
                conn.putheader(name, value)
            conn.endheaders(body)
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    @staticmethod
    def _next_request_served(server, capfd):
        assert RestClient("127.0.0.1", server.port).post("/echo", [1]) == {"got": [1]}
        assert "Traceback" not in capfd.readouterr().err

    def test_bad_json_body_answers_400(self, server, capfd):
        status, reply = self._post(server, {"Content-Length": "4"}, b"{bad")
        assert status == 400 and "bad JSON body" in reply["error"]
        self._next_request_served(server, capfd)

    def test_non_integer_content_length_answers_400(self, server, capfd):
        status, reply = self._post(server, {"Content-Length": "abc"}, b"{}")
        assert status == 400 and "Content-Length" in reply["error"]
        self._next_request_served(server, capfd)

    def test_negative_content_length_answers_400(self, server, capfd):
        status, reply = self._post(server, {"Content-Length": "-5"}, b"{}")
        assert status == 400 and "Content-Length" in reply["error"]
        self._next_request_served(server, capfd)

    def test_raising_handler_answers_500(self, server, capfd):
        client = RestClient("127.0.0.1", server.port)
        with pytest.raises(RestError) as exc_info:
            client.post("/field", {"y": 1})
        assert exc_info.value.status == 500
        assert "KeyError" in str(exc_info.value)
        self._next_request_served(server, capfd)


class TestRestServerStop:
    @staticmethod
    def _stops(server):
        thread = threading.Thread(target=server.stop, daemon=True)
        thread.start()
        thread.join(timeout=2.0)
        return not thread.is_alive()

    def test_stop_without_start_returns(self):
        server = RestServer()
        assert self._stops(server)
        assert self._stops(server)

    def test_second_stop_is_a_no_op(self):
        server = RestServer()
        server.start()
        assert self._stops(server)
        assert self._stops(server)


class TestRestSlicingIntegration:
    def test_slicing_controller_rest_flow(self):
        """Drive the Table-4 specialization through real HTTP (curl
        substitute): GET /nodes, POST /slice, GET /ues."""
        from repro.controllers.slicing import SlicingControllerIApp
        from repro.core.simclock import SimClock
        from repro.core.server import Server, ServerConfig
        from repro.core.transport import InProcTransport
        from repro.ran.base_station import BaseStation, BaseStationConfig, attach_agent
        from repro.sm.slice_ctrl import ALGO_NVS

        clock = SimClock()
        transport = InProcTransport()
        server = Server(ServerConfig(e2ap_codec="fb"))
        server.listen(transport, "ric")
        iapp = SlicingControllerIApp(sm_codec="fb")
        server.add_iapp(iapp)
        bs = BaseStation(BaseStationConfig(), clock)
        agent = attach_agent(bs, transport, e2ap_codec="fb", sm_codec="fb")
        agent.connect("ric")
        bs.attach_ue(1, fixed_mcs=20)

        rest = RestServer()
        iapp.expose_rest(rest)
        rest.start()
        try:
            client = RestClient("127.0.0.1", rest.port)
            nodes = client.get("/nodes")
            assert len(nodes) == 1
            conn = nodes[0]["conn_id"]
            client.post(
                f"/slice/{conn}",
                {
                    "algo": ALGO_NVS,
                    "slice": {
                        "slice_id": 1,
                        "label": "gold",
                        "kind": "capacity",
                        "cap": 0.5,
                        "rate_mbps": 0.0,
                        "ref_mbps": 0.0,
                        "ue_scheduler": "pf",
                    },
                    "assoc": {"rnti": 1, "slice_id": 1},
                },
            )
            assert bs.mac.algo == ALGO_NVS
            assert bs.mac.ues[1].slice_id == 1
            ues = client.get("/ues")
            assert ues[0]["slice_id"] == 1
        finally:
            rest.stop()
