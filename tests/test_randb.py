"""Unit tests for the RAN database and disaggregation merging."""

import pytest

from repro.core.e2ap.ies import GlobalE2NodeId, NodeKind, RanFunctionItem
from repro.core.server.randb import AgentRecord, RanDatabase


def record(conn_id, nb_id=1, kind=NodeKind.GNB, plmn="00101", oids=()):
    functions = {
        100 + index: RanFunctionItem(100 + index, b"d", 1, oid)
        for index, oid in enumerate(oids)
    }
    return AgentRecord(
        conn_id=conn_id,
        node_id=GlobalE2NodeId(plmn=plmn, nb_id=nb_id, kind=kind),
        functions=functions,
    )


class TestAddRemove:
    def test_monolithic_complete_immediately(self):
        db = RanDatabase()
        entity, formed = db.add_agent(record(1, kind=NodeKind.GNB))
        assert formed
        assert entity.complete

    def test_cu_alone_incomplete(self):
        db = RanDatabase()
        entity, formed = db.add_agent(record(1, kind=NodeKind.CU))
        assert not formed
        assert not entity.complete

    def test_cu_du_merge_forms_entity(self):
        db = RanDatabase()
        db.add_agent(record(1, kind=NodeKind.CU))
        entity, formed = db.add_agent(record(2, kind=NodeKind.DU))
        assert formed
        assert entity.complete
        assert len(db.entities()) == 1
        assert len(db) == 2

    def test_cucp_cuup_du_split(self):
        db = RanDatabase()
        db.add_agent(record(1, kind=NodeKind.CU_CP))
        db.add_agent(record(2, kind=NodeKind.CU_UP))
        entity, formed = db.add_agent(record(3, kind=NodeKind.DU))
        assert formed and entity.complete

    def test_different_nb_ids_stay_separate(self):
        db = RanDatabase()
        db.add_agent(record(1, nb_id=1, kind=NodeKind.CU))
        db.add_agent(record(2, nb_id=2, kind=NodeKind.DU))
        assert len(db.entities()) == 2
        assert db.complete_entities() == []

    def test_duplicate_conn_id_rejected(self):
        db = RanDatabase()
        db.add_agent(record(1))
        with pytest.raises(ValueError):
            db.add_agent(record(1, nb_id=2))

    def test_duplicate_node_kind_rejected(self):
        db = RanDatabase()
        db.add_agent(record(1, kind=NodeKind.DU))
        with pytest.raises(ValueError):
            db.add_agent(record(2, kind=NodeKind.DU))

    def test_remove_agent_empties_entity(self):
        db = RanDatabase()
        db.add_agent(record(1))
        removed = db.remove_agent(1)
        assert removed is not None
        assert db.entities() == []

    def test_remove_one_of_split_keeps_entity(self):
        db = RanDatabase()
        db.add_agent(record(1, kind=NodeKind.CU))
        db.add_agent(record(2, kind=NodeKind.DU))
        db.remove_agent(2)
        entity = db.entity("00101", 1)
        assert entity is not None
        assert not entity.complete

    def test_remove_unknown_returns_none(self):
        assert RanDatabase().remove_agent(99) is None


class TestQueries:
    def test_agents_with_oid(self):
        db = RanDatabase()
        db.add_agent(record(1, nb_id=1, oids=("oid.a",)))
        db.add_agent(record(2, nb_id=2, oids=("oid.a", "oid.b")))
        assert len(db.agents_with_oid("oid.a")) == 2
        assert len(db.agents_with_oid("oid.b")) == 1
        assert db.agents_with_oid("oid.c") == []

    def test_entity_find_function_across_agents(self):
        db = RanDatabase()
        db.add_agent(record(1, kind=NodeKind.CU, oids=("oid.pdcp",)))
        db.add_agent(record(2, kind=NodeKind.DU, oids=("oid.mac",)))
        entity = db.entity("00101", 1)
        agent, item = entity.find_function("oid.mac")
        assert agent.kind == NodeKind.DU
        assert item.oid == "oid.mac"
        assert entity.find_function("oid.nope") is None

    def test_all_functions_pairs(self):
        db = RanDatabase()
        db.add_agent(record(1, kind=NodeKind.CU, oids=("a", "b")))
        db.add_agent(record(2, kind=NodeKind.DU, oids=("c",)))
        entity = db.entity("00101", 1)
        assert len(entity.all_functions()) == 3

    def test_update_functions(self):
        db = RanDatabase()
        db.add_agent(record(1, oids=("a",)))
        db.update_functions(
            1, added=[RanFunctionItem(200, b"z", 1, "late")], removed=[100]
        )
        agent = db.agent(1)
        assert agent.function_by_oid("late") is not None
        assert agent.function_by_oid("a") is None
