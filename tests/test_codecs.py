"""Unit tests for the three codecs over the generic value model."""

import pytest

from repro.core.codec.base import (
    CodecError,
    available_codecs,
    get_codec,
    materialize,
    register_codec,
    validate_tree,
)
from repro.core.codec.flat import FlatListView, FlatView
from repro.core.codec.per import PerCodec
from repro.core.codec.protobuf import read_varint, unzigzag, write_varint, zigzag

ALL_CODECS = ["asn", "fb", "pb"]

SAMPLE_TREES = [
    None,
    True,
    False,
    0,
    1,
    -1,
    63,
    64,
    -64,
    2**40,
    -(2**40),
    2**70,      # beyond int64
    -(2**70),
    0.0,
    3.14159,
    -2.5e300,
    "",
    "hello",
    "unicode: żółć 漢字",
    b"",
    b"\x00\xff" * 50,
    [],
    [1, 2, 3],
    [None, True, "x", b"y", 1.5],
    {},
    {"a": 1},
    {"nested": {"list": [1, [2, [3]]], "flag": False}},
    {"ues": [{"rnti": i, "cqi": 15 - i % 10} for i in range(20)]},
]


@pytest.mark.parametrize("codec_name", ALL_CODECS)
@pytest.mark.parametrize("tree", SAMPLE_TREES, ids=range(len(SAMPLE_TREES)))
def test_roundtrip(codec_name, tree):
    codec = get_codec(codec_name)
    decoded = codec.decode(codec.encode(tree))
    assert materialize(decoded) == tree


@pytest.mark.parametrize("codec_name", ALL_CODECS)
@pytest.mark.parametrize("tree", SAMPLE_TREES, ids=range(len(SAMPLE_TREES)))
def test_decode_accepts_buffer_protocol_without_copy(codec_name, tree):
    """memoryview/bytearray inputs decode identically to bytes — and the
    zero-copy lane must not silently materialize them (bytes.copied)."""
    from repro.metrics.counters import counter_values

    codec = get_codec(codec_name)
    wire = codec.encode(tree)
    want = materialize(codec.decode(wire))
    padded = b"\x00" * 3 + wire + b"\xff" * 2
    window = memoryview(padded)[3 : 3 + len(wire)]
    before = counter_values().get("bytes.copied", 0)
    assert materialize(codec.decode(memoryview(wire))) == want
    assert materialize(codec.decode(bytearray(wire))) == want
    assert materialize(codec.decode(window)) == want
    assert counter_values().get("bytes.copied", 0) == before


@pytest.mark.parametrize("codec_name", ALL_CODECS)
def test_rejects_foreign_types(codec_name):
    codec = get_codec(codec_name)
    with pytest.raises(CodecError):
        codec.encode({"bad": object()})


@pytest.mark.parametrize("codec_name", ALL_CODECS)
def test_rejects_non_string_keys(codec_name):
    codec = get_codec(codec_name)
    with pytest.raises(CodecError):
        codec.encode({1: "x"})


@pytest.mark.parametrize("codec_name", ALL_CODECS)
def test_truncated_input_raises(codec_name):
    codec = get_codec(codec_name)
    data = codec.encode({"key": "value", "n": 123456789})
    with pytest.raises(CodecError):
        # Cut inside the payload; flat may raise on access instead.
        decoded = codec.decode(data[: len(data) // 2])
        materialize(decoded)


@pytest.mark.parametrize("codec_name", ALL_CODECS)
def test_dict_field_order_preserved(codec_name):
    codec = get_codec(codec_name)
    tree = {"z": 1, "a": 2, "m": 3}
    decoded = materialize(codec.decode(codec.encode(tree)))
    assert list(decoded) == ["z", "a", "m"]


class TestRegistry:
    def test_builtins_registered(self):
        assert set(ALL_CODECS) <= set(available_codecs())

    def test_unknown_codec_raises_with_choices(self):
        with pytest.raises(KeyError, match="available"):
            get_codec("nope")

    def test_register_unnamed_rejected(self):
        class Nameless(PerCodec):
            name = ""

        with pytest.raises(ValueError):
            register_codec(Nameless())

    def test_reregister_replaces(self):
        original = get_codec("asn")
        register_codec(PerCodec())
        assert get_codec("asn") is not original
        # restore a known-good instance for other tests
        register_codec(PerCodec())


class TestValidateTree:
    def test_depth_limit(self):
        tree = leaf = {}
        for _ in range(70):
            leaf["x"] = {}
            leaf = leaf["x"]
        with pytest.raises(CodecError, match="deeper"):
            validate_tree(tree)

    def test_accepts_reasonable_depth(self):
        tree = leaf = {}
        for _ in range(30):
            leaf["x"] = {}
            leaf = leaf["x"]
        validate_tree(tree)


class TestSizeOrdering:
    """The size relationships behind Fig. 7b."""

    def test_flat_larger_than_per(self):
        tree = {"seq": 1, "data": b"x" * 100}
        assert len(get_codec("fb").encode(tree)) > len(get_codec("asn").encode(tree))

    def test_flat_overhead_roughly_constant(self):
        small = {"seq": 1, "data": b"x" * 100}
        large = {"seq": 1, "data": b"x" * 1500}
        overhead_small = len(get_codec("fb").encode(small)) - len(
            get_codec("asn").encode(small)
        )
        overhead_large = len(get_codec("fb").encode(large)) - len(
            get_codec("asn").encode(large)
        )
        # per-message overhead, not proportional to payload
        assert abs(overhead_large - overhead_small) < 0.2 * 1500

    def test_pb_close_to_per_size(self):
        tree = {"seq": 1, "data": b"x" * 100}
        pb = len(get_codec("pb").encode(tree))
        per = len(get_codec("asn").encode(tree))
        assert abs(pb - per) < 30


class TestFlatLaziness:
    def test_decode_returns_view(self):
        codec = get_codec("fb")
        view = codec.decode(codec.encode({"a": 1, "b": [1, 2]}))
        assert isinstance(view, FlatView)
        assert isinstance(view["b"], FlatListView)

    def test_view_mapping_api(self):
        codec = get_codec("fb")
        view = codec.decode(codec.encode({"a": 1, "b": "two"}))
        assert view["a"] == 1
        assert view.get("missing", 7) == 7
        assert "a" in view and "missing" not in view
        assert sorted(view.keys()) == ["a", "b"]
        assert len(view) == 2
        assert dict(view.items())["b"] == "two"

    def test_list_view_indexing_and_iter(self):
        codec = get_codec("fb")
        view = codec.decode(codec.encode({"l": [10, "x", None]}))
        items = view["l"]
        assert items[1] == "x"
        assert list(items) == [10, "x", None]
        assert len(items) == 3

    def test_view_equality_with_dict(self):
        codec = get_codec("fb")
        tree = {"a": 1, "b": [True, {"c": b"z"}]}
        assert codec.decode(codec.encode(tree)) == tree

    def test_bad_magic_rejected(self):
        with pytest.raises(CodecError, match="magic"):
            get_codec("fb").decode(b"XX" + b"\x00" * 20)

    def test_too_short_rejected(self):
        with pytest.raises(CodecError, match="short"):
            get_codec("fb").decode(b"\x01")


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**63])
    def test_roundtrip(self, value):
        out = bytearray()
        write_varint(out, value)
        decoded, pos = read_varint(bytes(out), 0)
        assert decoded == value
        assert pos == len(out)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            write_varint(bytearray(), -1)

    def test_truncated_raises(self):
        with pytest.raises(CodecError):
            read_varint(b"\x80", 0)

    @pytest.mark.parametrize("value", [0, 1, -1, 2**40, -(2**40)])
    def test_zigzag_roundtrip(self, value):
        assert unzigzag(zigzag(value)) == value
