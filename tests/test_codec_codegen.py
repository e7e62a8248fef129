"""Tests for the codec codegen layer (schema → specialized kernels).

Covers what the differential/golden suites don't: that kernels actually
engage on the hot paths (hit/fallback counters), that the wire-probes
recognize kernel-decodable buffers, that regeneration is deterministic,
that every wire dataclass round-trips through the converters generated
from its own declaration, and that the bounded flat-codec caches evict
with a visible counter.

The kernel lanes are ``fb`` and ``asn`` (``manifest.CODECS``); ``pb``
is interpretive-only (DESIGN.md §11) and must never move a kernel
counter.
"""

import dataclasses
import typing
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import codegen, flat
from repro.core.codec import schema as cschema
from repro.core.codec.base import CodecError, get_codec, materialize
from repro.core.codec.manifest import CODECS
from repro.core.e2ap.messages import decode_message, message_types
from repro.metrics import counters
from tests.test_codec_property import _spec_strategy


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


class TestKernelDispatch:
    @pytest.mark.parametrize("codec_name", sorted(CODECS))
    def test_encode_hits_counter(self, codec_name):
        codec = get_codec(codec_name)
        before = counters.get_counter("codec.kernel.encode_hits").value
        wire = codec.encode(_indication_tree())
        assert counters.get_counter("codec.kernel.encode_hits").value == before + 1
        with codegen.interpretive():
            assert codec.encode_interpretive(_indication_tree()) == wire

    @pytest.mark.parametrize("codec_name", sorted(CODECS))
    def test_decode_hits_counter(self, codec_name):
        codec = get_codec(codec_name)
        wire = codec.encode(_indication_tree())
        before = counters.get_counter("codec.kernel.decode_hits").value
        tree = codec.decode(wire)
        assert counters.get_counter("codec.kernel.decode_hits").value == before + 1
        assert materialize(tree) == _indication_tree()

    def test_shape_mismatch_falls_back(self):
        # Envelope-shaped but with a body the RicIndication kernel
        # cannot encode: the kernel deoptimizes, the interpretive
        # walker produces the bytes, and the fallback is counted.
        tree = {"p": 5, "c": 0, "v": {"unexpected": 1}}
        codec = get_codec("fb")
        before = counters.get_counter("codec.kernel.encode_fallbacks").value
        wire = codec.encode(tree)
        assert counters.get_counter("codec.kernel.encode_fallbacks").value == before + 1
        with codegen.interpretive():
            assert codec.encode_interpretive(tree) == wire

    def test_non_envelope_trees_skip_kernels(self):
        # Generic trees never match the envelope guard; no counters move.
        codec = get_codec("fb")
        before_hits = counters.get_counter("codec.kernel.encode_hits").value
        before_falls = counters.get_counter("codec.kernel.encode_fallbacks").value
        codec.encode({"a": 1, "b": [1, 2, 3]})
        assert counters.get_counter("codec.kernel.encode_hits").value == before_hits
        assert (
            counters.get_counter("codec.kernel.encode_fallbacks").value == before_falls
        )

    def test_interpretive_context_disables_kernels(self):
        codec = get_codec("asn")
        before = counters.get_counter("codec.kernel.encode_hits").value
        with codegen.interpretive():
            assert not codegen.kernels_enabled()
            codec.encode(_indication_tree())
        assert codegen.kernels_enabled()
        assert counters.get_counter("codec.kernel.encode_hits").value == before

    def test_protobuf_is_interpretive_only(self):
        # No emitter, no probe: an envelope and a schema-hinted payload
        # both take the field walker, and no kernel counter moves.
        from repro.sm.base import decode_payload, encode_payload

        codec = get_codec("pb")
        assert materialize(codec.decode(codec.encode(_indication_tree()))) == (
            _indication_tree()
        )
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
    def test_kernel_decode_rejects_non_envelope(self, codec_name):
        wire = get_codec(codec_name).encode([1, 2, 3])
        assert codegen.kernel_decode(codec_name, wire) is None


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
            assert (
                codegen.build_kernel_source(codec_name, cschema.payload_schema(name))
                is not None
            ), f"no kernel for payload {name}"


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


def _tree_strategy(cls):
    """``_schema_strategy(cls.wire_schema)``, except that enum-typed
    ints are drawn from the enum (the schema only knows ``Int``)."""
    hints = typing.get_type_hints(cls)

    def field(tp, spec):
        if isinstance(tp, type) and issubclass(tp, IntEnum):
            return st.sampled_from([int(member) for member in tp])
        if spec.kind == "nested":
            return _tree_strategy(tp)
        if spec.kind == "seq" and spec.elem.kind == "nested":
            return st.lists(_tree_strategy(typing.get_args(tp)[0]), max_size=4)
        return _spec_strategy(spec)

    parts = [
        field(hints[f.name], spec)
        for f, (_key, spec) in zip(dataclasses.fields(cls), cls.wire_schema.fields)
    ]
    keys = cls.wire_schema.keys
    return st.tuples(*parts).map(lambda drawn: dict(zip(keys, drawn)))


class TestSchemaRegistryAgreement:
    def test_schema_keys_match_message_registry(self):
        assert set(cschema.message_schema_keys()) == set(message_types().keys())
        for key, cls in message_types().items():
            assert cschema.message_schema(*key) is cls.wire_schema

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
            tree = data.draw(_tree_strategy(cls), label=cls.__name__)
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
        cache = flat._LruCache(4, "codec.flat.test_cache.evictions")
        for index in range(6):
            cache.put(index, index)
        assert len(cache) == 4
        assert counters.get_counter("codec.flat.test_cache.evictions").value == 2

    def test_get_refreshes_recency(self):
        cache = flat._LruCache(2, "codec.flat.test_cache2.evictions")
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh: "b" is now least recent
        cache.put("c", 3)
        assert cache.get("a") == 1
        assert cache.get("b") is None

    def test_flat_dir_cache_is_bounded(self):
        assert isinstance(flat._DIR_CACHE, flat._LruCache)
        assert isinstance(flat._LIST_DIR_CACHE, flat._LruCache)
        assert isinstance(flat._ROUTE_CACHE, flat._LruCache)


# ---------------------------------------------------------------------------
# Fixed-layout sequences: Seq(Nested(S)) with only Int/F64 fields in S
# ---------------------------------------------------------------------------

from repro.sm.base import decode_payload, encode_payload  # noqa: E402

_FIXED_REPORTS = ("mac_stats_report", "rlc_stats_report", "pdcp_stats_report")
_INT_EDGES = (-(2**63), -(2**63) + 1, 2**63 - 1, 2**63, -(2**63) - 1, 2**70)


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


def _fallbacks():
    return counters.get_counter("codec.kernel.encode_fallbacks").value


def _check_differential(name, tree):
    """Kernel bytes ≡ interpretive bytes, or the kernel deoptimizes
    (counted) and the interpretive result stands; either way the tree
    survives the round trip."""
    with codegen.interpretive():
        ref = encode_payload(tree, "fb", schema=name)
    before = _fallbacks()
    # Strict: the encode kernel deoptimizes through its guards, never
    # by swallowing an exception.
    codegen.set_strict(True)
    try:
        out = codegen.payload_encode("fb", name, tree)
    finally:
        codegen.set_strict(False)
    if out is None:
        assert _fallbacks() == before + 1
    else:
        assert out == ref
        assert _fallbacks() == before
    assert encode_payload(tree, "fb", schema=name) == ref
    assert materialize(decode_payload(ref, "fb", schema=name)) == tree
    return out


@pytest.mark.parametrize("name", _FIXED_REPORTS)
class TestFixedLayoutSequences:
    @pytest.mark.parametrize("count", (0, 1, 32, 33, 300))
    def test_every_count_is_byte_identical(self, name, count):
        key, elem = _fixed_seq(name)
        tree = {key: [_element(elem, seed) for seed in range(count)], "tstamp_ms": 2.5}
        assert _check_differential(name, tree) is not None

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_generated_values(self, name, data):
        key, elem = _fixed_seq(name)
        ints = st.one_of(st.integers(-(2**62), 2**62), st.sampled_from(_INT_EDGES))
        floats = st.floats(allow_nan=False)
        values = st.tuples(*(floats if spec.kind == "f64" else ints for _k, spec in elem.fields))
        items = data.draw(st.lists(values.map(lambda drawn: dict(zip(elem.keys, drawn))), max_size=5))
        tree = {key: items, "tstamp_ms": data.draw(floats)}
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
        out = _check_differential(name, {key: [_element(elem, 0), item], "tstamp_ms": 0.0})
        assert (out is not None) == (-(2**63) <= edge < 2**63)

    @pytest.mark.parametrize("wrong", (True, 1.0, _Colour.RED, None, "7", b"7"))
    def test_wrong_type_in_an_int_slot_falls_back(self, name, wrong):
        key, elem = _fixed_seq(name)
        item = _element(elem, 1)
        item["rnti"] = wrong
        assert _check_differential(name, {key: [item], "tstamp_ms": 0.0}) is None

    def test_key_shape_mismatch_falls_back(self, name):
        key, elem = _fixed_seq(name)
        good = _element(elem, 1)
        permuted = dict(reversed(list(good.items())))
        missing = dict(list(good.items())[:-1])
        extra = dict(good, zzz=1)
        for bad in (permuted, missing, extra, {}, 7, None, [good], "x"):
            tree = {key: [_element(elem, 0), bad], "tstamp_ms": 0.0}
            assert _check_differential(name, tree) is None
        # ... and a sequence that is not a list at all.
        with codegen.interpretive():
            ref = encode_payload({key: [], "tstamp_ms": 0.0}, "fb", schema=name)
        assert codegen.payload_encode("fb", name, {key: (), "tstamp_ms": 0.0}) is None
        assert codegen.payload_encode("fb", name, {key: [], "tstamp_ms": 0.0}) == ref


def test_int_in_the_f64_slot_falls_back():
    key, elem = _fixed_seq("rlc_stats_report")  # the one element with an F64 field
    item = _element(elem, 1)
    assert type(item["sojourn_ms"]) is float
    item["sojourn_ms"] = 4
    assert _check_differential("rlc_stats_report", {key: [item], "tstamp_ms": 0.0}) is None


def test_fixed_list_header_cache_is_bounded():
    """10 000 distinct element counts leave the cache at its cap."""
    codegen._FIXED_HEADS.clear()
    for count in range(10_000):
        chunk = codegen._fseq_fixed(bytes, 0, [b""] * count)
        assert len(chunk) == 5 + 4 * count
    assert len(codegen._FIXED_HEADS) == codegen._FIXED_HEADS_MAX
    # Past the cap a header is still built, just not kept.
    assert codegen._fseq_fixed(bytes, 9, [b"x" * 9] * 9_999)[:5] == b"\x07" + (9_999).to_bytes(4, "little")


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


@pytest.fixture
def _strict():
    codegen.set_strict(True)
    yield
    codegen.set_strict(False)


@pytest.mark.usefixtures("_strict")
@pytest.mark.parametrize("length", _OCTET_EDGES)
class TestOctetStringEdges:
    """``_poct``/``_doct`` against ``write_fragmented``/``read_fragmented``,
    which stay the bit-level oracle (pins behaviour the one-pass
    ``_pfrag`` must keep, fragment and determinant boundaries included)."""

    def test_helpers_match_the_bit_level_oracle(self, length):
        from repro.core.codec.bitio import BitReader

        raw = _octets(length)
        wire = _oracle_wire(raw)
        assert codegen._poct(raw) == wire
        assert codegen._doct(wire, 0) == (raw, len(wire))
        assert codegen._doct(b"\xaa" + wire + b"\xbb", 1) == (raw, 1 + len(wire))
        reader = BitReader(wire)
        assert reader.read_fragmented(reader.read_varlen(), 24) == raw

    def test_kernel_and_interpreter_agree_through_the_codec(self, length):
        per = get_codec("asn")
        tree = {"seq": length, "data": _octets(length)}
        wire = per.encode_interpretive(tree)
        assert codegen.payload_encode("asn", "hw_ping", tree) == wire
        assert codegen.payload_decode("asn", "hw_ping", wire) == tree
        assert per.decode_interpretive(wire) == tree

    def test_truncation_at_every_fragment_boundary_is_declined(self, length):
        from repro.core.codec.bitio import BitReader

        wire = codegen._poct(_octets(length))
        head = len(codegen._vlb(length))
        cuts = {head, len(wire) - 1}
        for boundary in range(head, len(wire), 25):
            cuts.update((boundary - 1, boundary, boundary + 1))
        for cut in sorted(cut for cut in cuts if head <= cut < len(wire)):
            assert codegen._doct(wire[:cut], 0) is None, cut
            reader = BitReader(wire[:cut])
            with pytest.raises((EOFError, CodecError)):
                reader.read_fragmented(reader.read_varlen(), 24)


def test_fragment_layout_cache_is_bounded():
    """5 000 distinct lengths leave the per-count cache at its cap, and a
    layout wider than the per-entry bound is compiled but never kept."""
    codegen._FRAG_CUTS.clear()
    for length in range(24, 5_024):
        assert len(codegen._pfrag(b"x" * length)) == length + (length + 23) // 24
    assert len(codegen._FRAG_CUTS) == codegen._FRAG_CUTS_MAX
    codegen._FRAG_CUTS.clear()
    wide = 24 * (codegen._FRAG_CUT_WIDEST + 1)
    assert codegen._pfrag(_octets(wide)) == _oracle_wire(_octets(wide))[5:]
    assert not codegen._FRAG_CUTS
