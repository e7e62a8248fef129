"""Tests for the codec codegen layer (schema → specialized kernels).

Covers what the differential/golden suites don't: that kernels actually
engage on the hot paths (hit/fallback counters), that the wire-probes
recognize kernel-decodable buffers, that regeneration is deterministic,
that every wire dataclass round-trips through the converters generated
from its own declaration, and that the bounded flat-codec caches evict
with a visible counter.

The kernel lanes are ``fb`` and ``asn`` (``codegen.CODECS``): an E2AP
envelope kernel has its object lanes (``encode_msg``/``route``), a
payload kernel its dict lanes (``encode``/``decode``), and each is
checked against the codec's walker (``Codec.encode``/``decode``).
``pb`` is interpretive-only (DESIGN.md §11) and must never move a
kernel counter.
"""

import contextlib
import dataclasses
import json
import os
import subprocess
import sys
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import codegen, flat, kernel_runtime
from repro.core.codec.codegen import CODECS
from repro.core.codec import schema as cschema
from repro.core.codec.base import CodecError, Rows, get_codec, materialize, validate_tree
from repro.core.e2ap.messages import decode_message, message_types
from repro.metrics import counters
from tests.test_codec_property import _schema_strategy


@pytest.fixture(autouse=True)
def _reset_counters():
    counters.reset_counters("codec.")
    yield


def _indication_tree():
    return {
        "p": 5,
        "c": 0,
        "v": {
            "q": {"r": 5, "i": 11},
            "f": 2,
            "a": 1,
            "s": 1234,
            "k": 0,
            "h": b"hdr",
            "m": b"p" * 100,
        },
    }


def _indication():
    return RicIndication(RicRequestId(5, 11), 2, 1, 1234, header=b"hdr", payload=b"p" * 100)


def _count(name):
    return counters.get_counter(f"codec.kernel.{name}").value


class TestKernelDispatch:
    @pytest.mark.parametrize("codec_name", sorted(CODECS))
    def test_encode_hits_counter(self, codec_name):
        codec = get_codec(codec_name)
        before = _count("encode_hits")
        wire = encode_message(_indication(), codec)
        assert _count("encode_hits") == before + 1
        with codegen.interpretive():
            assert encode_message(_indication(), codec) == wire
        assert codec.encode(_indication_tree()) == wire

    @pytest.mark.parametrize("codec_name", sorted(CODECS))
    def test_decode_hits_counter(self, codec_name):
        codec = get_codec(codec_name)
        wire = encode_message(_indication(), codec)
        before = _count("decode_hits")
        assert decode_message(wire, codec) == _indication()
        assert _count("decode_hits") == before + 1
        assert materialize(codec.decode(wire)) == _indication_tree()

    def test_shape_mismatch_falls_back(self):
        # A plain int where the class declares an IntEnum: the object
        # lane declines, the decline is counted once, and the walker
        # writes the bytes the member would have written.
        from repro.core.e2ap.ies import RicActionDefinition, RicActionKind
        from repro.core.e2ap.messages import RicSubscriptionRequest

        plain = RicSubscriptionRequest(RicRequestId(1, 2), 3, b"", [RicActionDefinition(1, 1)])
        member = RicSubscriptionRequest(
            RicRequestId(1, 2), 3, b"", [RicActionDefinition(1, RicActionKind.INSERT)]
        )
        for codec_name in sorted(CODECS):
            codec = get_codec(codec_name)
            hits, falls = _count("encode_hits"), _count("encode_fallbacks")
            wire = encode_message(plain, codec)
            assert (_count("encode_hits"), _count("encode_fallbacks")) == (hits, falls + 1)
            assert wire == codec.encode(_envelope(RicSubscriptionRequest, plain.to_value()))
            assert wire == encode_message(member, codec)
            assert _count("encode_fallbacks") == falls + 1

    def test_non_envelope_trees_skip_kernels(self):
        # Codec.encode/decode are the walkers: no tree, envelope-shaped
        # or not, and no frame reaches a kernel through them.
        for codec_name in sorted(CODECS):
            codec = get_codec(codec_name)
            for tree in ({"a": 1, "b": [1, 2, 3]}, _indication_tree()):
                assert materialize(codec.decode(codec.encode(tree))) == tree
        kernel = {k: v for k, v in counters.counter_values().items() if k.startswith("codec.kernel.")}
        assert not any(kernel.values()), kernel

    def test_fb_decode_is_always_the_lazy_view(self):
        fb = get_codec("fb")
        wire = encode_message(_indication(), fb)
        view = fb.decode(wire)
        assert type(view) is flat.FlatView
        assert view == _indication_tree()
        assert type(fb.decode(memoryview(wire))) is flat.FlatView

    def test_interpretive_context_disables_kernels(self):
        codec = get_codec("asn")
        before = _count("encode_hits")
        with codegen.interpretive():
            assert not codegen.kernels_enabled()
            wire = encode_message(_indication(), codec)
            assert decode_message(wire, codec) == _indication()
        assert codegen.kernels_enabled()
        assert _count("encode_hits") == before
        assert _count("decode_hits") == 0

    def test_protobuf_is_interpretive_only(self):
        # No emitter, no probe: an envelope and a schema-hinted payload
        # both take the field walker, and no kernel counter moves.
        from repro.sm.base import decode_payload, encode_payload

        codec = get_codec("pb")
        assert materialize(codec.decode(codec.encode(_indication_tree()))) == (
            _indication_tree()
        )
        assert decode_message(encode_message(_indication(), codec), codec) == _indication()
        ping = {"seq": 1, "data": b"x"}
        wire = encode_payload(ping, "pb", schema="hw_ping")
        assert decode_payload(wire, "pb", schema="hw_ping") == ping
        kernel = {k: v for k, v in counters.counter_values().items() if k.startswith("codec.kernel.")}
        assert not any(kernel.values()), kernel


class TestProbes:
    @pytest.mark.parametrize("codec_name", sorted(CODECS))
    def test_probe_reads_dispatch_header(self, codec_name):
        wire = get_codec(codec_name).encode(_indication_tree())
        assert codegen._PROBES[codec_name](wire) == (5, 0)

    @pytest.mark.parametrize("codec_name", sorted(CODECS))
    def test_probe_rejects_garbage(self, codec_name):
        probe = codegen._PROBES[codec_name]
        assert probe(b"") is None
        assert probe(b"\x00" * 8) is None
        assert probe(b"garbage-bytes-here") is None

    @pytest.mark.parametrize("codec_name", sorted(CODECS))
    def test_route_declines_non_envelope(self, codec_name):
        codec = get_codec(codec_name)
        wire = codec.encode([1, 2, 3])
        assert codegen._PROBES[codec_name](wire) is None
        with pytest.raises(CodecError):
            decode_message(wire, codec)
        assert _count("decode_hits") == _count("decode_fallbacks") == 0


class TestKernelEntryPoints:
    @pytest.mark.parametrize("codec_name", sorted(CODECS))
    def test_one_entry_point_per_direction(self, codec_name):
        """An envelope kernel defines exactly ``encode_msg`` and ``route``,
        a payload kernel exactly ``encode`` and ``decode`` (the
        underscored helpers are their per-element pieces)."""
        import ast

        def entry_points(sch):
            source = codegen.build_kernel_source(codec_name, sch)
            return {
                node.name for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
            }

        for key in cschema.message_schema_keys():
            assert entry_points(cschema.envelope_schema(*key)) == {"encode_msg", "route"}, key
            kern = codegen.envelope_kernel(codec_name, *key)
            assert kern.encode is None and kern.decode is None
        for name in cschema.payload_schema_names():
            if cschema.payload_schema(name).cases:
                continue  # a union has no kernel (TestDeterminism)
            assert entry_points(cschema.payload_schema(name)) == {"encode", "decode"}, name
            kern = codegen.payload_kernel(codec_name, name)
            assert kern.encode_msg is None and kern.route is None


class TestDeterminism:
    @pytest.mark.parametrize("codec_name", sorted(CODECS))
    def test_regeneration_is_byte_identical(self, codec_name):
        # CI determinism gate: generating every kernel twice must give
        # exactly the same source text.
        for key in cschema.message_schema_keys():
            schema = cschema.envelope_schema(*key)
            first = codegen.build_kernel_source(codec_name, schema)
            second = codegen.build_kernel_source(codec_name, schema)
            assert first == second, f"nondeterministic kernel for {key}"
        for name in cschema.payload_schema_names():
            schema = cschema.payload_schema(name)
            first = codegen.build_kernel_source(codec_name, schema)
            second = codegen.build_kernel_source(codec_name, schema)
            assert first == second, f"nondeterministic kernel for {name}"

    @pytest.mark.parametrize("codec_name", sorted(CODECS))
    def test_every_registered_shape_compiles(self, codec_name):
        for key in cschema.message_schema_keys():
            assert (
                codegen.build_kernel_source(codec_name, cschema.envelope_schema(*key))
                is not None
            ), f"no kernel for envelope {key}"
        for name in cschema.payload_schema_names():
            schema = cschema.payload_schema(name)
            # A union (a case list) is the one shape no emitter takes:
            # it always runs the walker and the schema check.
            assert (codegen.build_kernel_source(codec_name, schema) is None) == bool(
                schema.cases
            ), f"payload {name}"


def _wire_dataclasses():
    """Every class declared with ``@wire``/``@register_message``: the 26
    messages, the IEs and the E2SM structs."""
    import importlib
    import pkgutil

    import repro.sm

    modules = ["repro.core.e2ap.ies", "repro.core.e2ap.procedures", "repro.core.e2ap.messages"]
    modules += [m.name for m in pkgutil.iter_modules(repro.sm.__path__, "repro.sm.")]
    found = {
        obj
        for name in modules
        for obj in vars(importlib.import_module(name)).values()
        if isinstance(obj, type) and "wire_schema" in vars(obj)
    }
    return sorted(found, key=lambda cls: cls.__name__)


class TestSchemaRegistryAgreement:
    def test_schema_keys_match_message_registry(self):
        assert set(cschema.message_schema_keys()) == set(message_types().keys())
        for key, cls in message_types().items():
            assert cschema.message_schema(*key) is cls.wire_schema

    def test_a_fresh_interpreter_sees_every_schema(self):
        """Schemas register when their declaring modules are imported;
        the registry accessors load those modules themselves, so a
        process that imports nothing else still sees every shape (a
        short registry would pin "no kernel" for the process)."""
        probe = (
            "import json; from repro.core.codec import schema; "
            "print(json.dumps([schema.message_schema_keys(), schema.payload_schema_names()]))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        ).stdout
        keys, payloads = json.loads(out)
        assert [tuple(key) for key in keys] == cschema.message_schema_keys()
        assert payloads == cschema.payload_schema_names()

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_schema_fields_match_message_lowering(self, data):
        # One declaration, three projections: any tree the derived
        # schema admits rebuilds the dataclass, and lowering it again
        # yields the same tree in the schema's key order.  (Replaces
        # the per-class key-order drift assertions: there is no second
        # declaration left to drift from.)
        classes = _wire_dataclasses()
        assert len(classes) >= 26 + 8 + 8
        for cls in classes:
            tree = data.draw(_schema_strategy(cls.wire_schema), label=cls.__name__)
            lowered = cls.from_value(tree).to_value()
            assert lowered == tree
            assert tuple(lowered) == cls.wire_schema.keys


class TestCodecErrorContext:
    def test_decode_truncated_carries_envelope_context(self):
        wire = get_codec("asn").encode(_indication_tree())
        with pytest.raises(CodecError) as excinfo:
            decode_message(wire[:5], get_codec("asn"))
        assert excinfo.value.message_type == "E2AP envelope"
        assert "E2AP envelope" in str(excinfo.value)

    def test_missing_body_field_carries_type_and_field(self):
        wire = get_codec("pb").encode({"p": 5, "c": 0, "v": {"q": {"r": 1, "i": 2}}})
        with pytest.raises(CodecError) as excinfo:
            decode_message(wire, get_codec("pb"))
        assert excinfo.value.message_type == "RicIndication"
        assert excinfo.value.field == "f"

    def test_unknown_key_carries_dispatch_field(self):
        wire = get_codec("pb").encode({"p": 77, "c": 0, "v": {}})
        with pytest.raises(CodecError) as excinfo:
            decode_message(wire, get_codec("pb"))
        assert excinfo.value.field == "p/c"


class TestLruCaches:
    def test_eviction_counter_increments(self):
        cache = flat._LruCache(4, counters.get_counter("codec.flat.test_cache.evictions"))
        for index in range(6):
            cache.put(index, index)
        assert len(cache) == 4
        assert counters.get_counter("codec.flat.test_cache.evictions").value == 2

    def test_get_refreshes_recency(self):
        cache = flat._LruCache(2, counters.get_counter("codec.flat.test_cache2.evictions"))
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh: "b" is now least recent
        cache.put("c", 3)
        assert cache.get("a") == 1
        assert cache.get("b") is None

    def test_flat_dir_cache_is_bounded(self):
        assert isinstance(flat._DIR_CACHE, flat._LruCache)
        assert isinstance(flat._LIST_DIR_CACHE, flat._LruCache)


# ---------------------------------------------------------------------------
# Fixed-layout sequences: Seq(Nested(S)) with only Int/F64 fields in S
# ---------------------------------------------------------------------------

from repro.sm import mac_stats, pdcp_stats, rlc_stats  # noqa: E402
from repro.sm.base import decode_payload, encode_payload  # noqa: E402

_FIXED_REPORTS = ("mac_stats_report", "rlc_stats_report", "pdcp_stats_report")
_INT_EDGES = (-(2**63), -(2**63) + 1, 2**63 - 1, 2**63, -(2**63) - 1, 2**70)
_ROW_CLASSES = {
    cls.__name__: cls
    for cls in (mac_stats.MacUeStats, rlc_stats.RlcBearerStats, pdcp_stats.PdcpBearerStats)
}


class _Colour(IntEnum):
    RED = 3


def _fixed_seq(name):
    """(list key, element schema) of a report's fixed-layout sequence."""
    key, spec = cschema.payload_schema(name).fields[0]
    return key, spec.elem.schema


def _element(schema_obj, seed):
    return {
        key: float(seed) + 0.5 if spec.kind == "f64" else seed * 7 + index
        for index, (key, spec) in enumerate(schema_obj.fields)
    }


def _reshaped(elem, keys):
    """A throwaway wire class with exactly ``keys`` (types from ``elem``)."""
    kinds = dict(elem.fields)
    fields = [(key, float if key in kinds and kinds[key].kind == "f64" else int) for key in keys]
    return cschema.wire()(dataclasses.make_dataclass("Reshaped", fields))


def _as_rows(elem, items):
    """``items`` — dicts sharing one key order — as the Rows they stand
    for: of the element's own class when the order is the schema's."""
    keys = tuple(items[0]) if items else elem.keys
    assert all(tuple(item) == keys for item in items)
    layout = _ROW_CLASSES[elem.name] if keys == elem.keys else _reshaped(elem, keys)
    return Rows(layout, [value for item in items for value in item.values()])


def _fallbacks():
    return counters.get_counter("codec.kernel.encode_fallbacks").value


def _check_differential(name, tree):
    """Kernel bytes ≡ the interpretive bytes of the tree's plain-list
    form, or the kernel deoptimizes (counted) and the interpretive
    result stands; either way the tree survives the round trip."""
    with codegen.interpretive():
        ref = encode_payload(materialize(tree), "fb", schema=name)
        assert encode_payload(tree, "fb", schema=name) == ref
    before = _fallbacks()
    # The encode kernel declines through its guards: an exception it
    # raised would fail here.
    out = codegen.payload_encode("fb", name, tree)
    if out is None:
        assert _fallbacks() == before + 1
    else:
        assert out == ref
        assert _fallbacks() == before
    assert encode_payload(tree, "fb", schema=name) == ref
    assert materialize(decode_payload(ref, "fb", schema=name)) == tree
    return out


def _check_refused(name, tree):
    """A tree that does not fit the schema: the kernel declines it
    (counted) and the walker lane's schema check refuses it with
    :class:`CodecError`, with kernels on and off."""
    before = _fallbacks()
    assert codegen.payload_encode("fb", name, tree) is None
    assert _fallbacks() == before + 1
    with pytest.raises(CodecError):
        encode_payload(tree, "fb", schema=name)
    with codegen.interpretive(), pytest.raises(CodecError):
        encode_payload(tree, "fb", schema=name)


@pytest.mark.parametrize("name", _FIXED_REPORTS)
class TestFixedLayoutSequences:
    """Elements given as a list of dicts (this class) and as Rows (the
    subclass below): every case, both forms, the list form's bytes."""

    as_rows = False

    def seq(self, elem, items):
        return _as_rows(elem, items) if self.as_rows else items

    @pytest.mark.parametrize("count", (0, 1, 32, 33, 300))
    def test_every_count_is_byte_identical(self, name, count):
        key, elem = _fixed_seq(name)
        items = [_element(elem, seed) for seed in range(count)]
        tree = {key: self.seq(elem, items), "tstamp_ms": 2.5}
        assert _check_differential(name, tree) is not None

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_generated_values(self, name, data):
        key, elem = _fixed_seq(name)
        ints = st.one_of(st.integers(-(2**62), 2**62), st.sampled_from(_INT_EDGES))
        floats = st.floats(allow_nan=False)
        values = st.tuples(*(floats if spec.kind == "f64" else ints for _k, spec in elem.fields))
        items = data.draw(st.lists(values.map(lambda drawn: dict(zip(elem.keys, drawn))), max_size=5))
        tree = {key: self.seq(elem, items), "tstamp_ms": data.draw(floats)}
        out = _check_differential(name, tree)
        in_range = all(
            -(2**63) <= v < 2**63 for item in items for v in item.values() if type(v) is int
        )
        assert (out is not None) == in_range

    @pytest.mark.parametrize("edge", _INT_EDGES)
    def test_int64_edges(self, name, edge):
        key, elem = _fixed_seq(name)
        item = _element(elem, 1)
        item["rnti"] = edge
        tree = {key: self.seq(elem, [_element(elem, 0), item]), "tstamp_ms": 0.0}
        out = _check_differential(name, tree)
        assert (out is not None) == (-(2**63) <= edge < 2**63)

    @pytest.mark.parametrize("wrong", (True, 1.0, _Colour.RED, None, "7", b"7"))
    def test_wrong_type_in_an_int_slot_falls_back(self, name, wrong):
        key, elem = _fixed_seq(name)
        item = _element(elem, 1)
        item["rnti"] = wrong
        tree = {key: self.seq(elem, [item]), "tstamp_ms": 0.0}
        if wrong is _Colour.RED:  # an IntEnum member is an int: the walker takes it
            assert _check_differential(name, tree) is None
        else:
            _check_refused(name, tree)

    def test_key_shape_mismatch_falls_back(self, name):
        key, elem = _fixed_seq(name)
        good = _element(elem, 1)
        permuted = dict(reversed(list(good.items())))
        missing = dict(list(good.items())[:-1])
        extra = dict(good, zzz=1)
        if self.as_rows:  # rows share one layout: a whole sequence of the wrong one
            fitting = _as_rows(elem, [permuted, permuted])
            sequences = [_as_rows(elem, [bad, bad]) for bad in (missing, extra)]
        else:
            fitting = [_element(elem, 0), permuted]
            sequences = [
                [_element(elem, 0), bad] for bad in (missing, extra, {}, 7, None, [good], "x")
            ]
        # Key order is the walker's to keep; a key set or a value that
        # is not the schema's is refused.
        assert _check_differential(name, {key: fitting, "tstamp_ms": 0.0}) is None
        for sequence in sequences:
            _check_refused(name, {key: sequence, "tstamp_ms": 0.0})
        # ... and a sequence that is not a list at all.
        with codegen.interpretive():
            ref = encode_payload({key: [], "tstamp_ms": 0.0}, "fb", schema=name)
        assert codegen.payload_encode("fb", name, {key: (), "tstamp_ms": 0.0}) is None
        assert codegen.payload_encode("fb", name, {key: self.seq(elem, []), "tstamp_ms": 0.0}) == ref


class TestFixedLayoutSequencesAsRows(TestFixedLayoutSequences):
    as_rows = True


def test_int_in_the_f64_slot_falls_back():
    key, elem = _fixed_seq("rlc_stats_report")  # the one element with an F64 field
    item = _element(elem, 1)
    assert type(item["sojourn_ms"]) is float
    item["sojourn_ms"] = 4
    for sequence in ([item], _as_rows(elem, [item])):
        assert _check_differential("rlc_stats_report", {key: sequence, "tstamp_ms": 0.0}) is None


def test_fixed_list_header_cache_is_bounded():
    """Distinct element counts — lists and Rows alike — never grow the
    one plan cache of the fixed-layout lane past its cap (a full table
    starts over), and a plan wider than the per-entry bound is built for
    its call and not kept."""
    key, elem = _fixed_seq("pdcp_stats_report")
    kernel_runtime._FIXED_PLANS.clear()
    try:
        for count in range(2 * kernel_runtime._FIXED_PLANS_MAX + 1):
            items = [_element(elem, seed) for seed in range(count)]
            for sequence in (items, _as_rows(elem, items)):
                tree = {key: sequence, "tstamp_ms": 0.0}
                assert _check_differential("pdcp_stats_report", tree) is not None
            assert 1 <= len(kernel_runtime._FIXED_PLANS) <= kernel_runtime._FIXED_PLANS_MAX
        kernel_runtime._FIXED_PLANS.clear()
        wide = kernel_runtime._FIXED_PLAN_WIDEST // len(elem.fields) + 1
        items = [_element(elem, seed) for seed in range(wide)]
        tree = {key: _as_rows(elem, items), "tstamp_ms": 0.0}
        assert _check_differential("pdcp_stats_report", tree) is not None
        assert not kernel_runtime._FIXED_PLANS
    finally:
        kernel_runtime._FIXED_PLANS.clear()


def test_threads_packing_rows_of_one_size_keep_their_own_values():
    """Every thread packing Rows of one layout and size shares one plan;
    each call must still pack its own values (no two calls in flight
    fill the same argument list)."""
    import sys
    import threading

    key, elem = _fixed_seq("mac_stats_report")
    trees = [
        {key: _as_rows(elem, [_element(elem, seed + 100 * t) for seed in range(32)]), "tstamp_ms": 1.0}
        for t in range(6)
    ]
    with codegen.interpretive():
        want = [encode_payload(materialize(tree), "fb", schema="mac_stats_report") for tree in trees]
    wrong = []

    def hammer(index):
        for _ in range(300):
            if codegen.payload_encode("fb", "mac_stats_report", trees[index]) != want[index]:
                wrong.append(index)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(index,)) for index in range(len(trees))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong


class TestRows:
    """The value type: a list of same-keyed dicts held as one flat list."""

    def _rows(self):
        values = [1, 15, 28, 28, 0, 0, 100, 25, 0, 2, 14, 27, 27, 3, 4, 200, 50, 1]
        return Rows(mac_stats.MacUeStats, values)

    def _dicts(self):
        return [
            mac_stats.MacUeStats(1, bytes_dl=100, bytes_ul=25).to_value(),
            mac_stats.MacUeStats(2, 14, 27, 27, 3, 4, 200, 50, 1).to_value(),
        ]

    def test_equals_the_list_it_stands_for_both_ways(self):
        rows, dicts = self._rows(), self._dicts()
        assert rows == dicts and dicts == rows
        assert not (rows != dicts) and not (dicts != rows)
        assert rows == self._rows()
        dicts[1]["cqi"] = 0
        assert rows != dicts and dicts != rows
        assert rows != tuple(self._dicts()) and rows != {}

    def test_sequence_of_dicts_in_wire_order(self):
        rows, dicts = self._rows(), self._dicts()
        assert len(rows) == 2 and len(Rows(mac_stats.MacUeStats, [])) == 0
        assert rows[0] == dicts[0] and rows[-1] == dicts[1] and rows[1:] == dicts[1:]
        assert list(rows) == dicts and rows.to_value() == dicts
        assert all(tuple(row) == mac_stats.MacUeStats.wire_schema.keys for row in rows)
        with pytest.raises(IndexError):
            rows[2]

    def test_read_only_and_unhashable(self):
        rows = self._rows()
        with pytest.raises(TypeError):
            hash(rows)
        with pytest.raises(TypeError):
            rows[0] = {}
        assert not any(hasattr(rows, name) for name in ("append", "extend", "pop", "__setitem__"))
        with pytest.raises(ValueError):
            Rows(mac_stats.MacUeStats, [1, 2, 3])

    def test_lowering_holds_only_plain_values(self):
        tree = {"ues": self._rows(), "tstamp_ms": 1.0}
        plain = materialize(tree)
        assert type(plain["ues"]) is list and plain["ues"] == self._dicts()
        validate_tree(tree)
        with pytest.raises(CodecError):
            validate_tree({"ues": Rows(mac_stats.MacUeStats, [object()] * 9)})

    @pytest.mark.parametrize(
        "provide",
        [
            lambda: mac_stats.synthetic_provider(4),
            lambda: _cell("mac"),
            lambda: _cell("rlc"),
            lambda: _cell("pdcp"),
        ],
        ids=["synthetic", "mac", "rlc", "pdcp"],
    )
    def test_a_report_is_not_aliased_by_the_next(self, provide):
        provider = provide()
        first = provider(None)
        (rows,) = (value for value in first.values() if type(value) is Rows)
        before = rows.to_value()
        assert before
        provider(None)
        assert rows.to_value() == before


def _cell(layer):
    """A two-UE base station with traffic, as a stats provider that
    advances the clock between reads."""
    from repro.core.simclock import SimClock
    from repro.ran.base_station import BaseStation, BaseStationConfig
    from repro.traffic.flows import FiveTuple, Packet

    clock = SimClock()
    bs = BaseStation(BaseStationConfig(), clock)
    flow = FiveTuple("1.1.1.1", "2.2.2.2", 1, 2, "udp")
    for rnti in (1, 2):
        bs.attach_ue(rnti, fixed_mcs=20)
    bs.start()
    provider = {"mac": bs.mac_stats_provider, "rlc": bs.rlc_stats_provider, "pdcp": bs.pdcp_stats_provider}[layer]

    def provide(visible):
        for rnti in (1, 2):
            for _ in range(20):
                bs.deliver_downlink(rnti, Packet(flow=flow, size=1500, created_at=clock.now))
        clock.run_until(clock.now + 0.01)
        return provider(visible)

    return provide


_ROWS_LANES = {
    "fb kernel": lambda name, tree: codegen.payload_encode("fb", name, tree),
    "fb walker": lambda name, tree: get_codec("fb").encode(tree),
    "asn kernel": lambda name, tree: codegen.payload_encode("asn", name, tree),
    "asn walker": lambda name, tree: get_codec("asn").encode(tree),
    "pb walker": lambda name, tree: get_codec("pb").encode(tree),
}


def _rows_report(name):
    """A report of ``name`` whose sequence is Rows: mostly well typed,
    sometimes with a value the kernels must deoptimize on."""
    key, elem = _fixed_seq(name)
    odd = st.sampled_from([True, False, _Colour.RED, 2**63, -(2**63) - 1, 1.5, 7])
    clean = [
        st.floats(allow_nan=False) if spec.kind == "f64" else st.integers(-(2**63), 2**63 - 1)
        for _key, spec in elem.fields
    ]
    row = st.one_of(st.tuples(*clean), st.tuples(*(st.one_of(cell, odd) for cell in clean)))
    return st.tuples(st.lists(row, max_size=6), st.floats(allow_nan=False)).map(
        lambda drawn: {
            key: Rows(_ROW_CLASSES[elem.name], [value for r in drawn[0] for value in r]),
            "tstamp_ms": drawn[1],
        }
    )


@pytest.mark.parametrize("lane", sorted(_ROWS_LANES))
@pytest.mark.parametrize("name", _FIXED_REPORTS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_rows_encode_as_their_lowered_list_on_every_lane(name, lane, data):
    """``encode(tree) == encode(materialize(tree))``: a kernel that
    declines the Rows declines the list too (both None)."""
    tree = data.draw(_rows_report(name))
    encode = _ROWS_LANES[lane]
    assert encode(name, tree) == encode(name, materialize(tree))


@pytest.mark.parametrize("codec_name", sorted(CODECS))
@pytest.mark.parametrize("name", _FIXED_REPORTS)
def test_well_typed_rows_never_deoptimize(codec_name, name):
    key, elem = _fixed_seq(name)
    tree = {key: _as_rows(elem, [_element(elem, seed) for seed in range(32)]), "tstamp_ms": 1.0}
    hits, falls = counters.get_counter("codec.kernel.encode_hits").value, _fallbacks()
    wire = encode_payload(tree, codec_name, schema=name)
    assert _fallbacks() == falls
    assert counters.get_counter("codec.kernel.encode_hits").value == hits + 1
    with codegen.interpretive():
        assert wire == encode_payload(materialize(tree), codec_name, schema=name)


# -- PER octet strings: a determinant plus one pass --------------------

_OCTET_EDGES = (0, 1, 23, 24, 25, 47, 48, 49, 1_500, 16_383, 16_384, 70_000)


def _octets(length):
    return (bytes(range(256)) * (length // 256 + 1))[:length]


def _oracle_wire(raw):
    """What ``BitWriter`` writes for an aligned octet string."""
    from repro.core.codec.bitio import BitWriter

    writer = BitWriter()
    writer.write_varlen(len(raw))
    writer.write_fragmented(raw, 24)
    writer.align()
    return writer.getvalue()


@pytest.mark.parametrize("length", _OCTET_EDGES)
class TestOctetStringEdges:
    """``_poct``/``_doct`` against ``write_fragmented``/``read_fragmented``,
    which stay the bit-level oracle (pins behaviour the one-pass
    ``_pfrag`` must keep, fragment and determinant boundaries included)."""

    def test_helpers_match_the_bit_level_oracle(self, length):
        from repro.core.codec.bitio import BitReader

        raw = _octets(length)
        wire = _oracle_wire(raw)
        assert kernel_runtime._poct(raw) == wire
        assert kernel_runtime._doct(wire, 0, len(wire)) == (raw, len(wire))
        padded = b"\xaa" + wire + b"\xbb"
        assert kernel_runtime._doct(padded, 1, len(padded)) == (raw, 1 + len(wire))
        reader = BitReader(wire)
        assert reader.read_fragmented(reader.read_varlen(), 24) == raw

    def test_kernel_and_interpreter_agree_through_the_codec(self, length):
        per = get_codec("asn")
        tree = {"seq": length, "data": _octets(length)}
        wire = per.encode(tree)
        assert codegen.payload_encode("asn", "hw_ping", tree) == wire
        assert codegen.payload_decode("asn", "hw_ping", wire) == tree
        assert per.decode(wire) == tree

    def test_truncation_at_every_fragment_boundary_is_declined(self, length):
        from repro.core.codec.bitio import BitReader

        wire = kernel_runtime._poct(_octets(length))
        head = len(kernel_runtime._vlb(length))
        cuts = {head, len(wire) - 1}
        for boundary in range(head, len(wire), 25):
            cuts.update((boundary - 1, boundary, boundary + 1))
        for cut in sorted(cut for cut in cuts if head <= cut < len(wire)):
            assert kernel_runtime._doct(wire[:cut], 0, cut) is None, cut
            reader = BitReader(wire[:cut])
            with pytest.raises((EOFError, CodecError)):
                reader.read_fragmented(reader.read_varlen(), 24)


def test_fragment_layout_cache_is_bounded():
    """5 000 distinct lengths leave the per-count cache at its cap, and a
    layout wider than the per-entry bound is compiled but never kept."""
    kernel_runtime._FRAG_CUTS.clear()
    for length in range(24, 5_024):
        assert len(kernel_runtime._pfrag(b"x" * length)) == length + (length + 23) // 24
    assert len(kernel_runtime._FRAG_CUTS) == kernel_runtime._FRAG_CUTS_MAX
    kernel_runtime._FRAG_CUTS.clear()
    wide = 24 * (kernel_runtime._FRAG_CUT_WIDEST + 1)
    assert kernel_runtime._pfrag(_octets(wide)) == _oracle_wire(_octets(wide))[5:]
    assert not kernel_runtime._FRAG_CUTS


# -- the row lane: decode_route's RicIndication row ----------------------

import random  # noqa: E402

from repro.core.e2ap.ies import RicRequestId  # noqa: E402
from repro.core.e2ap.messages import RicIndication, encode_message  # noqa: E402
from tests.test_codec_golden import VECTORS  # noqa: E402

_INT64 = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.sampled_from((-(2**63), -(2**63) + 1, -1, 0, 63, 64, 2**63 - 1)),
)


def _leaves(tree):
    """A dict tree's leaves in key (wire) order, nested dicts unrolled."""
    out = []
    for value in tree.values():
        out.extend(_leaves(value) if type(value) is dict else [value])
    return tuple(out)


def _outcome(fn, data):
    """``fn(data)``, or None for a rejection: a kernel declines with
    None; ``CodecError`` is the only exception a decoder may raise."""
    try:
        return fn(data)
    except CodecError:
        return None


def _walk_route(codec, frame):
    """The walker's ``decode_route`` outcome: ``(p, c, body)``, or None
    where it rejects the frame."""
    try:
        with codegen.interpretive():
            return codec.decode_route(frame)
    except CodecError:
        return None


def _mutations(golden, seed):
    """2 000 seeded byte flips, insertions, deletions and truncations."""
    rng = random.Random(seed)
    for _ in range(2000):
        frame = bytearray(golden)
        for _ in range(rng.randint(1, 3)):
            if not frame:
                break
            at = rng.randrange(len(frame))
            edit = rng.randrange(4)
            if edit == 0:
                frame[at] ^= 1 << rng.randrange(8)
            elif edit == 1:
                frame.insert(at, rng.randrange(256))
            elif edit == 2:
                del frame[at]
            else:
                del frame[at:]
        yield bytes(frame)


def _check_route_sweep(codec_name, cls, golden, seed):
    """A route kernel accepts only frames the walker routes to its own
    class, and builds from them what the walker builds; ``decode_route``
    (kernel, else walker) therefore rejects exactly what the walker
    rejects.  Returns (accepted, rejected) by the kernel."""
    codec = get_codec(codec_name)
    kernel = codegen.envelope_kernel(codec_name, cls.procedure, cls.msg_class)
    accepted = rejected = 0
    for frame in _mutations(golden, seed):
        out = _outcome(kernel.route, frame)
        walked = _walk_route(codec, frame)
        if out is None:
            rejected += 1
            continue
        accepted += 1
        assert walked is not None, frame.hex()
        assert walked[:2] == (cls.procedure, cls.msg_class), frame.hex()
        assert _same(out, walked[2]), frame.hex()
        assert _same(codec.decode_route(frame), walked), frame.hex()
    return accepted, rejected


class TestRouteRows:
    @pytest.mark.parametrize("codec_name", sorted(CODECS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_route_row_is_the_walkers_leaves(self, codec_name, data):
        message = RicIndication(
            RicRequestId(data.draw(_INT64), data.draw(_INT64)),
            data.draw(_INT64), data.draw(_INT64), data.draw(_INT64),
            data.draw(st.sampled_from([0, 1])),
            data.draw(st.binary(max_size=8192)), data.draw(st.binary(max_size=8192)),
        )
        codec = get_codec(codec_name)
        wire = encode_message(message, codec)
        kernel = codegen.envelope_kernel(codec_name, 5, 0)
        row = kernel.route(wire)
        assert row == _leaves(materialize(codec.decode(wire))["v"]) == _leaves(message.to_value())
        hits = counters.get_counter("codec.kernel.decode_hits").value
        assert codec.decode_route(wire) == (5, 0, row)
        assert counters.get_counter("codec.kernel.decode_hits").value == hits + 1
        with codegen.interpretive():
            assert codec.decode_route(wire) == (5, 0, row)

    @pytest.mark.parametrize("codec_name", sorted(CODECS))
    @pytest.mark.parametrize("name", ["indication_small", "indication_1500"])
    def test_route_rejects_exactly_what_decode_rejects(self, codec_name, name):
        """Seeded mutations of the golden vectors: the route kernel reads
        the walker's leaves from every frame it accepts, and declines
        the rest to the walker."""
        golden = bytes.fromhex(VECTORS[f"{codec_name}:{name}"])
        accepted, rejected = _check_route_sweep(codec_name, RicIndication, golden, f"{codec_name}:{name}")
        assert accepted and rejected


class TestUnregisteredPairs:
    def test_frames_with_unknown_pairs_do_not_grow_the_kernel_table(self):
        registered = set(cschema.message_schema_keys())
        fb, asn = get_codec("fb"), get_codec("asn")
        for codec in (fb, asn):
            codec.decode_route(encode_message(_indication(), codec))  # (5, 0) cached
        before = dict(codegen._KERNELS)
        rng = random.Random(27)
        for _ in range(10_000):
            codec = rng.choice((fb, asn))
            while True:
                # The asn probe reads 6-bit discriminators; fb reads int64.
                top = 63 if codec is asn else 2**40
                pair = (rng.randint(0, top), rng.randint(0, top))
                if pair not in registered:
                    break
            frame = codec.encode({"p": pair[0], "c": pair[1], "v": {}})
            assert codegen._PROBES[codec.name](frame) == pair
            codec.decode(frame)
            assert codec.decode_route(frame)[:2] == pair
        assert codegen._KERNELS == before
        assert ("env", "fb", 5, 0) in codegen._KERNELS and ("env", "asn", 5, 0) in codegen._KERNELS
        assert all(len(routes.table) <= len(registered) for routes in codegen._ROUTES.values())


# -- the object lanes: encode_msg and route on every message -------------

from tests.test_codec_golden import _messages as _golden_messages  # noqa: E402


def _envelope(cls, body):
    return {"p": int(cls.procedure), "c": int(cls.msg_class), "v": body}


def _int64_only(tree):
    """Every int in ``tree`` fits an ``fb`` int64 cell."""
    if type(tree) is dict:
        return all(_int64_only(value) for value in tree.values())
    if type(tree) is list:
        return all(_int64_only(value) for value in tree)
    return type(tree) is not int or -(2**63) <= tree < 2**63


def _same(a, b):
    """Equal, NaN and signed zeros included (``repr`` of the dataclass)."""
    return type(a) is type(b) and repr(a) == repr(b)


class TestObjectLanes:
    @pytest.mark.parametrize("codec_name", sorted(CODECS))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_every_message_encodes_and_routes_as_its_tree_does(self, codec_name, data):
        """``encode_msg(m)`` writes the walker's bytes for ``m``'s tree
        (``fb`` declines only an int outside int64); ``route`` reads back
        what the walker and ``from_value`` build from those bytes."""
        codec = get_codec(codec_name)
        for (procedure, msg_class), cls in sorted(message_types().items()):
            tree = _envelope(cls, data.draw(_schema_strategy(cls.wire_schema), label=cls.__name__))
            message = cls.from_value(tree["v"])
            kernel = codegen.envelope_kernel(codec_name, procedure, msg_class)
            wire = codec.encode(tree)
            out = kernel.encode_msg(message)
            assert out is None or out == wire, cls.__name__
            if codec_name == "asn" or _int64_only(tree):
                assert out is not None, cls.__name__
            assert encode_message(message, codec) == wire
            walked = _walk_route(codec, wire)
            assert walked[:2] == (procedure, msg_class)
            routed_ = kernel.route(wire)
            assert (routed_ is None) == (out is None), cls.__name__
            if routed_ is not None:
                assert _same(routed_, walked[2]), cls.__name__
            assert _same(decode_message(wire, codec), message)

    @pytest.mark.parametrize("codec_name", sorted(CODECS))
    def test_route_answers_every_message_with_its_dataclass(self, codec_name):
        codec = get_codec(codec_name)
        for name, message in _golden_messages().items():
            wire = encode_message(message, codec)
            assert wire == bytes.fromhex(VECTORS[f"{codec_name}:{name}"])
            procedure, msg_class, body = codec.decode_route(wire)
            assert (procedure, msg_class) == (message.procedure, message.msg_class)
            if (procedure, msg_class) != codegen.ROW_ROUTED:
                assert _same(body, message), name
            with codegen.interpretive():
                assert _same(codec.decode_route(wire)[2], body), name
            assert _same(decode_message(wire, codec), message), name

    @pytest.mark.parametrize("codec_name", sorted(CODECS))
    @pytest.mark.parametrize("name", sorted(_golden_messages()))
    def test_route_rejects_exactly_what_decode_and_from_value_reject(self, codec_name, name):
        """The route-row sweep on every class: seeded byte flips,
        insertions, deletions and truncations of each golden vector; ``route``
        accepts only frames that the walker decodes and ``from_value``
        takes, and then builds the same message."""
        cls = type(_golden_messages()[name])
        golden = bytes.fromhex(VECTORS[f"{codec_name}:{name}"])
        accepted, rejected = _check_route_sweep(codec_name, cls, golden, f"{codec_name}:{name}:object")
        assert rejected and (accepted or not cls.wire_schema.fields)

    @pytest.mark.parametrize("codec_name", ["asn", "fb", "pb"])
    def test_an_enum_value_outside_its_members_fails_in_the_route(self, codec_name):
        """Well-framed, but an ``IntEnum`` field names no member: the
        route kernel declines, and every lane raises ``CodecError``
        naming the class and field, as ``from_value`` does."""
        codec = get_codec(codec_name)
        cases = {
            "subscription_request": ("a.k", lambda v: v["a"][0].update(k=9)),
            "error_indication": ("c.k", lambda v: v["c"].update(k=17)),
            "setup_request": ("n.k", lambda v: v["n"].update(k=42)),
        }
        for name, (field, poison) in cases.items():
            message = _golden_messages()[name]
            tree = _envelope(type(message), message.to_value())
            poison(tree["v"])
            wire = codec.encode(tree)
            kernel = codegen.envelope_kernel(codec_name, message.procedure, message.msg_class)
            assert materialize(codec.decode(wire)) == tree
            if kernel is not None:
                assert kernel.route(wire) is None
            for kernels in (True, False):
                with codegen.interpretive() if not kernels else contextlib.nullcontext():
                    with pytest.raises(CodecError) as excinfo:
                        codec.decode_route(wire)
                    assert excinfo.value.message_type == type(message).__name__
                    assert excinfo.value.field == field
                    with pytest.raises(CodecError):
                        decode_message(wire, codec)

    def test_an_indication_kind_outside_its_members_is_a_codec_error(self):
        message = _golden_messages()["indication_small"]
        tree = _envelope(RicIndication, message.to_value())
        tree["v"]["k"] = 2
        for codec_name in ("asn", "fb", "pb"):
            codec = get_codec(codec_name)
            with pytest.raises(CodecError) as excinfo:
                decode_message(codec.encode(tree), codec)
            assert (excinfo.value.message_type, excinfo.value.field) == ("RicIndication", "k")

    def test_a_plain_int_in_an_enum_field_takes_the_tree_lane(self):
        from repro.core.e2ap.ies import RicActionDefinition, RicActionKind
        from repro.core.e2ap.messages import RicSubscriptionRequest

        member = RicSubscriptionRequest(
            RicRequestId(1, 2), 3, b"", [RicActionDefinition(1, RicActionKind.INSERT)]
        )
        plain = RicSubscriptionRequest(RicRequestId(1, 2), 3, b"", [RicActionDefinition(1, 1)])
        for codec_name in sorted(CODECS):
            codec = get_codec(codec_name)
            assert codegen.kernel_encode_msg(codec_name, plain) is None
            assert codegen.kernel_encode_msg(codec_name, member) is not None
            assert encode_message(plain, codec) == encode_message(member, codec)
