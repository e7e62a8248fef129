"""Property-based tests (hypothesis) on the codecs and bit I/O."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec.base import get_codec, materialize
from repro.core.codec.bitio import BitReader, BitWriter

# Generic value trees within the codec model.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
    st.binary(max_size=200),
)
trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(st.text(max_size=12), children, max_size=6),
    ),
    max_leaves=25,
)


@given(tree=trees)
@settings(max_examples=150, deadline=None)
def test_per_roundtrip(tree):
    codec = get_codec("asn")
    assert materialize(codec.decode(codec.encode(tree))) == tree


@given(tree=trees)
@settings(max_examples=150, deadline=None)
def test_flat_roundtrip(tree):
    codec = get_codec("fb")
    assert materialize(codec.decode(codec.encode(tree))) == tree


@given(tree=trees)
@settings(max_examples=150, deadline=None)
def test_protobuf_roundtrip(tree):
    codec = get_codec("pb")
    assert materialize(codec.decode(codec.encode(tree))) == tree


@given(tree=trees)
@settings(max_examples=60, deadline=None)
def test_encode_deterministic(tree):
    for name in ("asn", "fb", "pb"):
        codec = get_codec(name)
        assert codec.encode(tree) == codec.encode(tree)


@given(
    chunks=st.lists(
        st.tuples(st.integers(min_value=0, max_value=255), st.integers(1, 8)),
        max_size=40,
    )
)
@settings(max_examples=150, deadline=None)
def test_bitio_roundtrip(chunks):
    writer = BitWriter()
    expected = []
    for value, width in chunks:
        value &= (1 << width) - 1
        writer.write_bits(value, width)
        expected.append((value, width))
    reader = BitReader(writer.getvalue())
    for value, width in expected:
        assert reader.read_bits(width) == value


@given(lengths=st.lists(st.integers(min_value=0, max_value=1 << 22), max_size=12))
@settings(max_examples=100, deadline=None)
def test_varlen_sequence_roundtrip(lengths):
    writer = BitWriter()
    for length in lengths:
        writer.write_varlen(length)
    reader = BitReader(writer.getvalue())
    for length in lengths:
        assert reader.read_varlen() == length


@given(payload=st.binary(max_size=4096))
@settings(max_examples=80, deadline=None)
def test_per_octet_fragments_any_length(payload):
    """The fragmented octet-string path must handle every length."""
    codec = get_codec("asn")
    assert codec.decode(codec.encode(payload)) == payload


@given(tree=trees, pad=st.integers(min_value=0, max_value=7))
@settings(max_examples=60, deadline=None)
def test_decode_buffer_protocol_differential(tree, pad):
    """memoryview/bytearray/offset-window inputs ≡ bytes, all codecs.

    The zero-copy data plane hands decoders windows into larger receive
    buffers; every lane must produce byte-identical trees for them.
    """
    for name in ("asn", "fb", "pb"):
        codec = get_codec(name)
        wire = codec.encode(tree)
        want = materialize(codec.decode(wire))
        assert materialize(codec.decode(memoryview(wire))) == want
        assert materialize(codec.decode(bytearray(wire))) == want
        padded = b"\x5a" * pad + wire + b"\xa5" * pad
        window = memoryview(padded)[pad : pad + len(wire)]
        assert materialize(codec.decode(window)) == want


# ---------------------------------------------------------------------------
# Differential sweep: generated kernels ≡ interpretive oracle
#
# ``fb`` and ``asn`` have kernels: an E2AP message goes through its
# envelope kernel's object lanes (``encode_message``/``decode_message``),
# an E2SM payload through its payload kernel, and each is compared with
# the same call under ``codegen.interpretive()``.  ``pb`` has none
# (DESIGN.md §11); its rows pin that every registered shape round-trips
# on the walker.  A kernel declines only by returning None: any
# exception it raised would fail these tests.
# ---------------------------------------------------------------------------

import pytest

from repro.core.codec import codegen
from repro.core.codec import schema as cschema
from repro.core.e2ap.messages import decode_message, encode_message, message_types
from repro.metrics import counters
from repro.sm.base import decode_payload, encode_payload


def _spec_strategy(spec):
    kind = spec.kind
    if kind == "int" and spec.enum is not None:
        return st.sampled_from([int(member) for member in spec.enum])
    if kind == "int":
        # Mostly int64-range values (kernel fast path) with occasional
        # big ints that force the guarded fallback; both must agree.
        return st.one_of(
            st.integers(min_value=-(2**62), max_value=2**62),
            st.integers(min_value=-(2**80), max_value=2**80),
        )
    if kind in ("const_int", "const_str"):
        return st.just(spec.value)
    if kind == "bool":
        return st.booleans()
    if kind == "f64":
        return st.floats(allow_nan=False, allow_infinity=False)
    if kind == "str":
        return st.text(max_size=40)
    if kind == "bytes":
        return st.binary(max_size=80)
    if kind == "opt":
        return st.one_of(st.none(), _spec_strategy(spec.inner))
    if kind == "nested":
        return _schema_strategy(spec.schema)
    if kind == "seq":
        return st.lists(_spec_strategy(spec.elem), max_size=4)
    if kind == "strmap":
        return st.dictionaries(
            st.text(min_size=1, max_size=10), _spec_strategy(spec.value), max_size=3
        )
    raise AssertionError(f"unhandled spec kind {kind}")


def _schema_strategy(schema_obj):
    if schema_obj.cases:
        return st.one_of([_schema_strategy(case) for case in schema_obj.cases])
    keys = [key for key, _spec in schema_obj.fields]
    values = st.tuples(*(_spec_strategy(spec) for _key, spec in schema_obj.fields))
    return values.map(lambda drawn: dict(zip(keys, drawn)))


@pytest.mark.parametrize("codec_name", ("asn", "fb", "pb"))
@pytest.mark.parametrize("key", cschema.message_schema_keys())
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_generated_equals_interpretive_envelope(codec_name, key, data):
    """The message built from the drawn body: kernels on, its envelope
    kernel is asked both ways (a hit or a counted decline) and the bytes
    and the message are the walker's."""
    cls = message_types()[key]
    message = cls.from_value(data.draw(_schema_strategy(cls.wire_schema)))
    codec = get_codec(codec_name)
    counters.reset_counters("codec.kernel.")
    wire = encode_message(message, codec)
    got = decode_message(wire, codec)
    assert got == message
    assert materialize(codec.decode(wire)) == {"p": key[0], "c": key[1], "v": message.to_value()}
    kernel = counters.counter_values()
    asked = [
        kernel.get(f"codec.kernel.{way}_hits", 0) + kernel.get(f"codec.kernel.{way}_fallbacks", 0)
        for way in ("encode", "decode")
    ]
    if codec_name == "pb":
        assert asked == [0, 0]
        return
    assert asked == [1, 1]
    with codegen.interpretive():
        assert encode_message(message, codec) == wire
        assert repr(decode_message(wire, codec)) == repr(got)


@pytest.mark.parametrize("codec_name", ("asn", "fb", "pb"))
@pytest.mark.parametrize("name", cschema.payload_schema_names())
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_generated_equals_interpretive_payload(codec_name, name, data):
    tree = data.draw(_schema_strategy(cschema.payload_schema(name)))
    with codegen.interpretive():
        ref = encode_payload(tree, codec_name, schema=name)
    assert encode_payload(tree, codec_name, schema=name) == ref
    with codegen.interpretive():
        want = materialize(decode_payload(ref, codec_name, schema=name))
    assert materialize(decode_payload(ref, codec_name, schema=name)) == want
    assert want == tree
