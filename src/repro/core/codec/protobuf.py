"""Protocol-Buffers-style codec used by the FlexRAN baseline.

FlexRAN encodes its custom south-bound protocol with Protobuf (§5.1,
§5.2).  This codec reproduces Protobuf's wire format characteristics:
varint-encoded integers and tag/length-delimited fields, byte-aligned.
Its CPU cost sits between the PER-style codec (bit-level work) and the
FlatBuffers-style codec (no decode pass): every varint is a byte loop
and decoding materializes the full tree — exactly the middle ground
the paper measures for FlexRAN's RTT (§5.2, Fig. 7a).
"""

from __future__ import annotations

import struct
from typing import Any, List, Tuple

from repro.core.codec import base
from repro.core.codec.base import Codec, CodecError, validate_tree

_F64 = struct.Struct("<d")

#: Length-delimited fields are copied in chunks, modelling Protobuf's
#: wire scanning: cheaper per byte than the PER codec's per-octet
#: fragments, costlier than the FlatBuffers codec's zero-copy slices —
#: which is why FlexRAN's RTT lands between the ASN.1 and FB cases in
#: the paper's Fig. 7a.
_CHUNK = 32


def _copy_chunks(out: bytearray, raw: bytes) -> None:
    for offset in range(0, len(raw), _CHUNK):
        out.extend(raw[offset:offset + _CHUNK])


def _read_chunks(data: bytes, pos: int, length: int) -> bytes:
    chunks = []
    end = pos + length
    while pos < end:
        take = min(_CHUNK, end - pos)
        chunks.append(data[pos:pos + take])
        pos += take
    return b"".join(chunks)


def write_varint(out: bytearray, value: int) -> None:
    """Append an unsigned LEB128 varint."""
    if value < 0:
        raise ValueError(f"varint must be non-negative: {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    """Read an unsigned varint at ``pos``; returns (value, new_pos)."""
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CodecError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        # Beyond real Protobuf's 64-bit varints: the generic value model
        # allows arbitrary ints, so only guard against runaway streams.
        if shift > 1024:
            raise CodecError("varint too long")


def zigzag(value: int) -> int:
    """Map signed to unsigned as Protobuf's sint types do."""
    return value << 1 if value >= 0 else ((-value) << 1) - 1


def unzigzag(value: int) -> int:
    return (value >> 1) ^ -(value & 1)


class ProtobufCodec(Codec):
    """Varint/TLV codec (registry name ``"pb"``)."""

    name = "pb"

    def encode(self, value: Any) -> bytes:
        validate_tree(value)
        out = bytearray()
        self._encode_value(out, value)
        return bytes(out)  # repro-lint: disable=RL007 — encoder-owned scratch; the Codec contract returns immutable bytes

    def decode(self, data) -> Any:
        try:
            value, pos = self._decode_value(data, 0)
        except (UnicodeDecodeError, ValueError, OverflowError, MemoryError, struct.error) as exc:
            raise CodecError(f"corrupt protobuf stream: {exc}") from exc
        if pos != len(data):
            raise CodecError(f"{len(data) - pos} trailing bytes after message")
        return value

    # No generated kernels for this codec (DESIGN.md §11): the field
    # walker is the only lane, under both names every codec exposes.
    encode_interpretive = encode
    decode_interpretive = decode

    # -- encoding ----------------------------------------------------

    def _encode_value(self, out: bytearray, value: Any) -> None:
        if value is None:
            out.append(base.TAG_NONE)
        elif value is True:
            out.append(base.TAG_TRUE)
        elif value is False:
            out.append(base.TAG_FALSE)
        elif isinstance(value, int):
            out.append(base.TAG_INT)
            write_varint(out, zigzag(value))
        elif isinstance(value, float):
            out.append(base.TAG_FLOAT)
            out.extend(_F64.pack(value))
        elif isinstance(value, str):
            raw = value.encode("utf-8")
            out.append(base.TAG_STR)
            write_varint(out, len(raw))
            _copy_chunks(out, raw)
        elif isinstance(value, bytes):
            out.append(base.TAG_BYTES)
            write_varint(out, len(value))
            _copy_chunks(out, value)
        elif isinstance(value, list):
            out.append(base.TAG_LIST)
            write_varint(out, len(value))
            for item in value:
                self._encode_value(out, item)
        elif isinstance(value, dict):
            out.append(base.TAG_DICT)
            write_varint(out, len(value))
            for key, item in value.items():
                raw = key.encode("utf-8")
                write_varint(out, len(raw))
                out.extend(raw)
                self._encode_value(out, item)
        else:  # pragma: no cover - validate_tree rejects these first
            raise CodecError(f"unsupported type: {type(value).__name__}")

    # -- decoding ----------------------------------------------------

    def _decode_value(self, data: bytes, pos: int) -> Tuple[Any, int]:
        if pos >= len(data):
            raise CodecError("truncated protobuf stream")
        tag = data[pos]
        pos += 1
        if tag == base.TAG_NONE:
            return None, pos
        if tag == base.TAG_TRUE:
            return True, pos
        if tag == base.TAG_FALSE:
            return False, pos
        if tag == base.TAG_INT:
            raw, pos = read_varint(data, pos)
            return unzigzag(raw), pos
        if tag == base.TAG_FLOAT:
            if pos + 8 > len(data):
                raise CodecError("truncated float")
            return _F64.unpack_from(data, pos)[0], pos + 8
        if tag == base.TAG_STR:
            length, pos = read_varint(data, pos)
            if pos + length > len(data):
                raise CodecError("truncated string")
            return _read_chunks(data, pos, length).decode("utf-8"), pos + length
        if tag == base.TAG_BYTES:
            length, pos = read_varint(data, pos)
            if pos + length > len(data):
                raise CodecError("truncated bytes")
            return _read_chunks(data, pos, length), pos + length
        if tag == base.TAG_LIST:
            count, pos = read_varint(data, pos)
            items: List[Any] = []
            for _ in range(count):
                item, pos = self._decode_value(data, pos)
                items.append(item)
            return items, pos
        if tag == base.TAG_DICT:
            count, pos = read_varint(data, pos)
            result = {}
            for _ in range(count):
                key_len, pos = read_varint(data, pos)
                if pos + key_len > len(data):
                    raise CodecError("truncated dict key")
                # str(buf, enc) decodes any buffer-protocol slice —
                # memoryview slices have no .decode().
                key = str(data[pos:pos + key_len], "utf-8")
                pos += key_len
                result[key], pos = self._decode_value(data, pos)
            return result, pos
        raise CodecError(f"unknown protobuf tag: {tag}")


base.register_codec(ProtobufCodec())
