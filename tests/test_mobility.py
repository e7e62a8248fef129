"""Tests for inter-cell handover: mobility manager + RRC SM control."""

import pytest

from repro.core.e2ap.messages import RicControlAcknowledge, RicControlFailure, RicServiceQuery
from repro.core.server import Server, ServerConfig
from repro.core.simclock import SimClock
from repro.core.transport import InProcTransport
from repro.ran.base_station import BaseStation, BaseStationConfig, attach_agent
from repro.ran.mobility import HandoverError, MobilityManager
from repro.sm import rrc_conf
from repro.traffic.flows import FiveTuple, Packet

FLOW = FiveTuple("1.1.1.1", "2.2.2.2", 10, 20, "udp")


def two_cells(clock=None):
    clock = clock or SimClock()
    cells = {
        1: BaseStation(BaseStationConfig(nb_id=1), clock),
        2: BaseStation(BaseStationConfig(nb_id=2), clock),
    }
    manager = MobilityManager()
    for bs in cells.values():
        manager.register(bs)
    return clock, cells, manager


class TestMobilityManager:
    def test_register_duplicate_nb_id(self):
        clock = SimClock()
        manager = MobilityManager()
        manager.register(BaseStation(BaseStationConfig(nb_id=1), clock))
        with pytest.raises(ValueError):
            manager.register(BaseStation(BaseStationConfig(nb_id=1), clock))

    def test_locate(self):
        _clock, cells, manager = two_cells()
        cells[1].attach_ue(7)
        assert manager.locate(7) == 1
        assert manager.locate(9) is None

    def test_basic_handover_moves_context(self):
        _clock, cells, manager = two_cells()
        cells[1].attach_ue(7, plmn="00102", snssai=3, cqi=9, fixed_mcs=20)
        context = manager.handover(7, 1, 2)
        assert manager.locate(7) == 2
        moved = cells[2].mac.ues[7]
        assert moved.plmn == "00102" and moved.snssai == 3
        assert moved.cqi == 9 and moved.fixed_mcs == 20
        assert context.forwarded_packets == 0

    def test_handover_forwards_queued_data(self):
        clock, cells, manager = two_cells()
        cells[1].attach_ue(7, fixed_mcs=20)
        for _ in range(10):
            cells[1].deliver_downlink(7, Packet(flow=FLOW, size=500, created_at=clock.now))
        context = manager.handover(7, 1, 2)
        assert context.forwarded_packets == 10
        assert cells[2].rlc_of(7).backlog_pkts == 10
        # Forwarded data is eventually transmitted at the target.
        cells[2].start()
        clock.run_until(0.1)
        header = cells[2].config.rlc.pdu_header_bytes
        assert cells[2].mac.ues[7].total_bytes_dl == 10 * (500 + header)

    def test_handover_forwards_tc_backlog_in_order(self):
        clock, cells, manager = two_cells()
        cells[1].attach_ue(7, fixed_mcs=20)
        pipeline = cells[1].tc[(7, 1)]
        pipeline.add_queue(2)
        pipeline.set_pacer("bdp", {"target_ms": 1.0, "min_bytes": 0})
        for seq in range(5):
            cells[1].deliver_downlink(
                7, Packet(flow=FLOW, size=100, created_at=clock.now, seq=seq)
            )
        assert pipeline.backlog_bytes > 0  # pacer holds packets in TC
        context = manager.handover(7, 1, 2)
        assert context.forwarded_packets == 5
        sequences = [p.seq for p in context.forwarded[1]]
        assert sequences == sorted(sequences)

    def test_handover_errors(self):
        _clock, cells, manager = two_cells()
        cells[1].attach_ue(7)
        with pytest.raises(HandoverError, match="not served"):
            manager.handover(9, 1, 2)
        with pytest.raises(HandoverError, match="identical"):
            manager.handover(7, 1, 1)
        with pytest.raises(HandoverError, match="unknown cell"):
            manager.handover(7, 1, 3)
        cells[2].attach_ue(7)
        with pytest.raises(HandoverError, match="already in use"):
            manager.handover(7, 1, 2)

    def test_rrc_events_fire_on_both_cells(self):
        _clock, cells, manager = two_cells()
        events = []
        cells[1].on_rrc_event(lambda *a: events.append(("cell1", *a)))
        cells[2].on_rrc_event(lambda *a: events.append(("cell2", *a)))
        cells[1].attach_ue(7)
        manager.handover(7, 1, 2)
        kinds = [(cell, event) for cell, event, *_ in events]
        assert kinds == [("cell1", "attach"), ("cell1", "detach"), ("cell2", "attach")]


class TestHandoverThroughE2:
    def test_xapp_commands_handover_via_rrc_sm(self):
        """Full loop: controller -> RRC SM control -> mobility manager."""
        clock, cells, manager = two_cells()
        transport = InProcTransport()
        server = Server(ServerConfig(e2ap_codec="fb"))
        server.listen(transport, "ric")
        agents = {}
        for nb_id, bs in cells.items():
            agent = attach_agent(bs, transport, e2ap_codec="fb", sm_codec="fb")
            agent.connect("ric")
            agents[nb_id] = agent
        cells[1].attach_ue(7, fixed_mcs=20)

        conn_of = {
            record.node_id.nb_id: record.conn_id for record in server.agents()
        }
        rrc_fid = {
            record.node_id.nb_id: record.function_by_oid(rrc_conf.INFO.oid).ran_function_id
            for record in server.agents()
        }
        outcomes = []
        server.control(
            conn_of[1],
            rrc_fid[1],
            b"",
            rrc_conf.build_handover(7, target_nb=2, codec_name="fb"),
            on_outcome=outcomes.append,
        )
        assert isinstance(outcomes[0], RicControlAcknowledge)
        assert manager.locate(7) == 2
        # UE visibility followed the move.
        assert agents[1].ue_map.visible_ues(0) == set()
        assert agents[2].ue_map.visible_ues(0) == {7}

    def test_handover_failure_maps_to_control_failure(self):
        clock, cells, manager = two_cells()
        transport = InProcTransport()
        server = Server(ServerConfig(e2ap_codec="fb"))
        server.listen(transport, "ric")
        attach_agent(cells[1], transport, e2ap_codec="fb", sm_codec="fb").connect("ric")
        record = server.agents()[0]
        fid = record.function_by_oid(rrc_conf.INFO.oid).ran_function_id
        outcomes = []
        server.control(
            record.conn_id,
            fid,
            b"",
            rrc_conf.build_handover(99, target_nb=2, codec_name="fb"),
            on_outcome=outcomes.append,
        )
        assert isinstance(outcomes[0], RicControlFailure)

    def test_handover_refused_without_mobility(self):
        clock = SimClock()
        bs = BaseStation(BaseStationConfig(nb_id=1), clock)  # not registered
        transport = InProcTransport()
        server = Server(ServerConfig(e2ap_codec="fb"))
        server.listen(transport, "ric")
        attach_agent(bs, transport, e2ap_codec="fb", sm_codec="fb").connect("ric")
        bs.attach_ue(7)
        record = server.agents()[0]
        fid = record.function_by_oid(rrc_conf.INFO.oid).ran_function_id
        outcomes = []
        server.control(
            record.conn_id, fid, b"",
            rrc_conf.build_handover(7, 2, "fb"), on_outcome=outcomes.append,
        )
        assert isinstance(outcomes[0], RicControlFailure)


class TestServiceQuery:
    def test_query_returns_inventory(self):
        transport = InProcTransport()
        server = Server(ServerConfig(e2ap_codec="fb"))
        server.listen(transport, "ric")
        clock = SimClock()
        bs = BaseStation(BaseStationConfig(), clock)
        agent = attach_agent(bs, transport, e2ap_codec="fb", sm_codec="fb")
        agent.connect("ric")
        record = server.agents()[0]
        known = sorted(record.functions)
        # Forget two functions server-side, then resynchronize.
        forgotten = known[:2]
        for function_id in forgotten:
            del record.functions[function_id]
        server.send_to_agent(
            record.conn_id, RicServiceQuery(known_functions=sorted(record.functions))
        )
        # The agent answered with a service update; RANDB is whole again.
        assert sorted(server.randb.agent(record.conn_id).functions) == known
