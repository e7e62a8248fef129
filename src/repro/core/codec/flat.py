"""FlatBuffers-style codec: cheap encode, lazy zero-copy reads.

Reproduces the cost model the paper measures for Google FlatBuffers
(§4.3, §5.2, §5.3):

* **encode** is byte-aligned bulk writing (no bit twiddling), so it is
  much cheaper than the PER-style codec;
* **decode** does not exist as a pass — :meth:`FlatCodec.decode`
  returns a :class:`FlatView` that reads fields directly from the raw
  buffer on access ("reading directly from raw bytes", §5.3), which is
  what lets the server's subscription management look up the relevant
  identifiers without parsing the whole message;
* each message carries a fixed header plus fixed-width scalars and
  32-bit size words, giving the 30-40 B per-message overhead the paper
  observes relative to ASN.1 (§5.2).

:class:`FlatCodec` is the walker: ``encode`` writes any value tree,
``decode`` always returns the lazy read.  The generated kernels
(:mod:`~repro.core.codec.codegen`) sit in front of it — an E2AP message
is encoded from its dataclass and routed back to it by its envelope
kernel, an E2SM payload by its payload kernel — and fall back to it
for whatever they decline.

Wire layout (all integers little-endian):

``message  = magic(2) version(1) reserved(1) root_size(4) pad(8) value``
``value    = tag(1) payload``
``int      = tag int64``                     (big ints: tag + varlen octets)
``float    = tag float64``
``str/bytes= tag size(4) raw``
``list     = tag count(4) sizes(4*count) values``
``dict     = tag count(4) directory values`` where directory entries are
``            keylen(2) key value_size(4)``

The sizes/directory let a reader locate any element without decoding
its siblings — the flat, offset-driven access pattern of FlatBuffers.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Iterator, List, Tuple

from repro.core.codec import base
from repro.core.codec import codegen as _codegen
from repro.core.codec.base import Codec, CodecError
from repro.metrics import counters

_MAGIC = b"FR"
_VERSION = 1
_HEADER = struct.Struct("<2sBBI8x")  # magic, version, reserved, root size, pad
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")
_U16 = struct.Struct("<H")

_TAG_INTBIG = 15  # escape tag for ints outside int64 range

_INT64_MIN = -(1 << 63)
_INT64_MAX = 1 << 63

# Single-byte tag cells, preallocated so scalar encodes never build a
# fresh one-byte object.
_TAGB = tuple(bytes((tag,)) for tag in range(16))  # repro-lint: disable=RL007 — one-time tag-cell preallocation at import

#: Encoded ``tag + int64`` cells for recently seen in-range ints.  E2AP
#: traffic repeats the same small identifiers (request ids, function
#: ids, UE counts) constantly; the cap bounds memory on adversarial
#: value streams.
_INT_CELLS: Dict[int, bytes] = {}
_INT_CELLS_MAX = 1 << 16

#: ``keylen(2) + key`` directory prefixes per field name; field-name
#: vocabularies are tiny (one/two-letter E2AP keys), so this stays hot.
_KEY_PREFIX: Dict[str, bytes] = {}
_KEY_PREFIX_MAX = 1 << 12

#: Raw key octets → interned field-name strings for the lazy reader;
#: directory parsing then skips UTF-8 decoding for every repeated key.
_KEY_INTERN: Dict[bytes, str] = {}
_KEY_INTERN_MAX = 1 << 12


class _LruCache:
    """Insertion-ordered LRU with a hard cap and an eviction counter.

    ``get`` refreshes recency; ``put`` evicts the least recently used
    entry once the cap is reached.  Bounds the directory caches so
    a pathological mix of message layouts cannot grow them without
    limit; the eviction counters make such a mix visible in metrics.
    """

    __slots__ = ("_data", "_cap", "_evictions")

    def __init__(self, cap: int, evictions: counters.Counter) -> None:
        self._data: Dict[Any, Any] = {}
        self._cap = cap
        self._evictions = evictions

    def get(self, key: Any) -> Any:
        data = self._data
        value = data.get(key)
        if value is not None:
            del data[key]
            data[key] = value
        return value

    def put(self, key: Any, value: Any) -> None:
        data = self._data
        if key in data:
            del data[key]
        elif len(data) >= self._cap:
            del data[next(iter(data))]
            self._evictions.incr()
        data[key] = value

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        self._data.clear()


#: Parsed dict directories keyed on their raw octets (count word
#: included).  E2AP traffic re-sends the same tables with the same
#: field sizes every period, so the per-message directory walk
#: collapses to one slice and a dict hit.  The cached field table maps
#: key → offset *relative to the value area* and is shared, read-only,
#: by every view that hits it.  Only directories whose field names are
#: all one octet (the entire E2AP vocabulary) are cached: their length
#: is then exactly ``7 * count``, so the lookup slice is exact, and a
#: byte-equal hit proves the layout — the directory walk is a pure
#: function of those bytes.
_DIR_CACHE_MAX = 1 << 10
_DIR_CACHE_FIELDS = 18  # bounds speculative-key size to ~128 octets
_DIR_CACHE = _LruCache(_DIR_CACHE_MAX, counters.get_counter("codec.flat.dir_cache.evictions"))

#: Same idea for list size-prefix blocks: count word + size words →
#: relative element offsets.  List blocks are fixed-width, so the key
#: is exact (no window needed); the item cap bounds key size.
_LIST_DIR_CACHE = _LruCache(_DIR_CACHE_MAX, counters.get_counter("codec.flat.list_cache.evictions"))
_LIST_CACHE_ITEMS = 64

class FlatCodec(Codec):
    """Byte-aligned, offset-indexed codec (registry name ``"fb"``)."""

    name = "fb"

    def encode(self, value: Any) -> bytes:
        """The field-walking encoder (the kernels' oracle)."""
        body = _encode_value(value, 0)
        return _HEADER.pack(_MAGIC, _VERSION, 0, len(body)) + body

    def decode(self, data) -> Any:
        """Validate the header and return a lazy view (O(1) work).

        Scalars at the root are returned directly; dict/list roots come
        back as :class:`FlatView` / :class:`FlatListView` over ``data``
        itself, whatever its buffer type (no copy).
        """
        if len(data) < _HEADER.size:
            raise CodecError(f"flat message too short: {len(data)} B")
        magic, version, _reserved, root_size = _HEADER.unpack_from(data, 0)
        if magic != _MAGIC:
            raise CodecError(f"bad flat magic: {magic!r}")
        if version != _VERSION:
            raise CodecError(f"unsupported flat version: {version}")
        if _HEADER.size + root_size > len(data):
            raise CodecError("flat root size exceeds buffer")
        # Lazy access works on the bytes object directly: containers
        # are located by offset (never sliced), and scalar/string reads
        # slice exactly the octets they return, so no memoryview
        # indirection is needed to stay zero-copy.
        return _lazy_value(data, _HEADER.size)

    def probe(self, data):
        return _codegen._probe_fb(data)


# -- encoding --------------------------------------------------------


def _encode_value(value: Any, depth: int) -> bytes:
    """Encode one value; validation is folded into the single walk."""
    if value is None:
        return _TAGB[base.TAG_NONE]
    if value is True:
        return _TAGB[base.TAG_TRUE]
    if value is False:
        return _TAGB[base.TAG_FALSE]
    kind = type(value)
    if kind is int or (kind is not bool and isinstance(value, int)):
        cell = _INT_CELLS.get(value)
        if cell is not None:
            return cell
        if _INT64_MIN <= value < _INT64_MAX:
            cell = _TAGB[base.TAG_INT] + _I64.pack(value)
            if len(_INT_CELLS) < _INT_CELLS_MAX:
                _INT_CELLS[int(value)] = cell
            return cell
        raw = _bigint_to_bytes(value)
        return _TAGB[_TAG_INTBIG] + _U32.pack(len(raw)) + raw
    if kind is float:
        return _TAGB[base.TAG_FLOAT] + _F64.pack(value)
    if kind is str:
        raw = value.encode("utf-8")
        return _TAGB[base.TAG_STR] + _U32.pack(len(raw)) + raw
    if kind is bytes:
        return _TAGB[base.TAG_BYTES] + _U32.pack(len(value)) + value
    if kind is list or isinstance(value, list):
        if depth >= 64 and value:
            raise CodecError("value tree deeper than 64 levels")
        child = depth + 1
        encoded = [_encode_value(item, child) for item in value]
        parts = [_TAGB[base.TAG_LIST], _U32.pack(len(encoded))]
        parts.extend(_U32.pack(len(chunk)) for chunk in encoded)
        parts.extend(encoded)
        return b"".join(parts)
    if kind is dict or isinstance(value, dict):
        if depth >= 64 and value:
            raise CodecError("value tree deeper than 64 levels")
        child = depth + 1
        encoded = [_encode_value(item, child) for item in value.values()]
        parts = [_TAGB[base.TAG_DICT], _U32.pack(len(encoded))]
        append = parts.append
        for key, chunk in zip(value.keys(), encoded):
            prefix = _KEY_PREFIX.get(key)
            if prefix is None:
                if not isinstance(key, str):
                    raise CodecError(f"non-string dict key: {key!r}")
                raw = key.encode("utf-8")
                prefix = _U16.pack(len(raw)) + raw
                if len(_KEY_PREFIX) < _KEY_PREFIX_MAX:
                    _KEY_PREFIX[key] = prefix
            append(prefix)
            append(_U32.pack(len(chunk)))
        parts.extend(encoded)
        return b"".join(parts)
    if isinstance(value, (float, str, bytes)):
        # subclass instances reach here; encode via the base type
        if isinstance(value, float):
            return _TAGB[base.TAG_FLOAT] + _F64.pack(value)
        if isinstance(value, str):
            raw = str(value).encode("utf-8")
            return _TAGB[base.TAG_STR] + _U32.pack(len(raw)) + raw
        return _TAGB[base.TAG_BYTES] + _U32.pack(len(value)) + bytes(value)  # repro-lint: disable=RL007 — bytes subclass normalized once for the wire
    if kind is base.Rows:
        return _encode_value(value.to_value(), depth)
    raise CodecError(f"unsupported type: {type(value).__name__}")


def _bigint_to_bytes(value: int) -> bytes:
    sign = 1 if value < 0 else 0
    magnitude = -value if value < 0 else value
    octets = (magnitude.bit_length() + 7) // 8 or 1
    return bytes((sign,)) + magnitude.to_bytes(octets, "little")  # repro-lint: disable=RL007 — one-byte sign cell on the cold bigint path


# -- lazy reading ----------------------------------------------------


def _lazy_value(buf: bytes, offset: int) -> Any:
    """Decode a scalar in place, or wrap a container in a lazy view.

    Corruption surfaces lazily (a flipped size word is only hit when
    the field is touched); every low-level error is normalized to
    :class:`CodecError` so consumers see one failure type.
    """
    try:
        return _lazy_value_unchecked(buf, offset)
    except CodecError:
        raise
    except (IndexError, ValueError, UnicodeDecodeError, OverflowError,
            MemoryError, struct.error) as exc:
        raise CodecError(f"corrupt flat buffer: {exc}") from exc


def _lazy_value_unchecked(buf: bytes, offset: int) -> Any:
    # Tags are tested hottest-first: E2AP headers are dominated by int
    # scalars, octet-string payloads, and nested tables.
    tag = buf[offset]
    if tag == base.TAG_INT:
        return _I64.unpack_from(buf, offset + 1)[0]
    if tag == base.TAG_BYTES:
        size = _U32.unpack_from(buf, offset + 1)[0]
        return buf[offset + 5:offset + 5 + size]
    if tag == base.TAG_DICT:
        return FlatView(buf, offset)
    if tag == base.TAG_STR:
        size = _U32.unpack_from(buf, offset + 1)[0]
        # str(buf, enc) decodes any buffer-protocol slice (memoryview
        # slices have no .decode()).
        return str(buf[offset + 5:offset + 5 + size], "utf-8")
    if tag == base.TAG_LIST:
        return FlatListView(buf, offset)
    if tag == base.TAG_NONE:
        return None
    if tag == base.TAG_TRUE:
        return True
    if tag == base.TAG_FALSE:
        return False
    if tag == base.TAG_FLOAT:
        return _F64.unpack_from(buf, offset + 1)[0]
    if tag == _TAG_INTBIG:
        size = _U32.unpack_from(buf, offset + 1)[0]
        raw = buf[offset + 5:offset + 5 + size]
        magnitude = int.from_bytes(raw[1:], "little")
        return -magnitude if raw[0] else magnitude
    raise CodecError(f"unknown flat tag: {tag}")


class FlatListView:
    """Lazy list over a flat buffer; items decode on access.

    Element offsets are kept relative to the value area and shared via
    :data:`_LIST_DIR_CACHE` when the same size-prefix block repeats.
    """

    __slots__ = ("_buf", "_base", "_rels")

    def __init__(self, buf: bytes, offset: int) -> None:
        count = _U32.unpack_from(buf, offset + 1)[0]
        sizes_at = offset + 5
        base_at = sizes_at + 4 * count
        cacheable = count <= _LIST_CACHE_ITEMS
        if cacheable:
            block = buf[offset + 1:base_at]
            if type(block) is not bytes:
                # Mutable-buffer slices are unhashable; the cache key
                # must be an immutable, bounded (≤ 260 B) copy.
                block = bytes(block)  # repro-lint: disable=RL007
            rels = _LIST_DIR_CACHE.get(block)
            if rels is None:
                acc = 0
                offsets: List[int] = []
                for (size,) in _U32.iter_unpack(block[4:]):
                    offsets.append(acc)
                    acc += size
                rels = tuple(offsets)
                if len(rels) != count:
                    raise CodecError(
                        f"flat list sizes truncated: {len(rels)} < {count}"
                    )
                _LIST_DIR_CACHE.put(block, rels)
        else:
            acc = 0
            offsets = []
            for index in range(count):
                offsets.append(acc)
                acc += _U32.unpack_from(buf, sizes_at + 4 * index)[0]
            rels = tuple(offsets)
        self._buf = buf
        self._base = base_at
        self._rels = rels

    def __len__(self) -> int:
        return len(self._rels)

    def __getitem__(self, index: int) -> Any:
        buf = self._buf
        offset = self._base + self._rels[index]
        tag = buf[offset]
        if tag == base.TAG_INT:
            return _I64.unpack_from(buf, offset + 1)[0]
        if tag == base.TAG_DICT:
            return FlatView(buf, offset)
        return _lazy_value(buf, offset)

    def __iter__(self) -> Iterator[Any]:
        buf = self._buf
        base = self._base
        for rel in self._rels:
            yield _lazy_value(buf, base + rel)

    def to_list(self) -> List[Any]:
        """Materialize every element (recursively plain)."""
        return [base.materialize(item) for item in self]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, FlatListView)):
            return base.materialize(self.to_list()) == base.materialize(
                other.to_list() if isinstance(other, FlatListView) else list(other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"FlatListView(len={len(self)})"


class FlatView:
    """Lazy, read-only mapping over an encoded flat dict.

    Construction only parses the fixed-size field directory; values are
    decoded when accessed, and string/bytes payloads slice the original
    buffer — the zero-copy behaviour the paper credits for FlatBuffers'
    4x CPU advantage at the controller (§5.3).
    """

    __slots__ = ("_buf", "_base", "_fields")

    def __init__(self, buf: bytes, offset: int) -> None:
        count = _U32.unpack_from(buf, offset + 1)[0]
        cursor = offset + 5
        # Speculative exact-length key assuming one-octet field names;
        # a hit does no per-field work at all.  Dicts with longer
        # names simply never match and take the full parse below.
        if count <= _DIR_CACHE_FIELDS:
            window = buf[offset + 1:cursor + 7 * count]
            if type(window) is not bytes:
                # Mutable-buffer slices are unhashable; the cache key
                # must be an immutable, bounded (≤ 131 B) copy.
                window = bytes(window)  # repro-lint: disable=RL007
            fields = _DIR_CACHE.get(window)
            if fields is not None:
                self._buf = buf
                self._base = cursor + 7 * count
                self._fields = fields
                return
        unpack_u16 = _U16.unpack_from
        unpack_u32 = _U32.unpack_from
        intern = _KEY_INTERN
        keys_list: List[str] = []
        sizes: List[int] = []
        for _ in range(count):
            key_len = unpack_u16(buf, cursor)[0]
            cursor += 2
            raw = buf[cursor:cursor + key_len]
            if type(raw) is not bytes:
                raw = bytes(raw)  # repro-lint: disable=RL007 — intern key must be hashable
            key = intern.get(raw)
            if key is None:
                key = raw.decode("utf-8")
                if len(intern) < _KEY_INTERN_MAX:
                    intern[raw] = key
            cursor += key_len
            sizes.append(unpack_u32(buf, cursor)[0])
            cursor += 4
            keys_list.append(key)
        fields: Dict[str, int] = {}
        rel = 0
        for key, size in zip(keys_list, sizes):
            fields[key] = rel
            rel += size
        if count <= _DIR_CACHE_FIELDS and cursor - offset - 5 == 7 * count:
            _DIR_CACHE.put(window, fields)
        self._buf = buf
        self._base = cursor
        self._fields = fields

    def __getitem__(self, key: str) -> Any:
        # The three hottest tags are read inline: every E2AP header
        # access is an int, bytes payload, or nested table, and the
        # two extra call frames of the generic path cost more than the
        # reads themselves on the indication hot path.
        buf = self._buf
        offset = self._base + self._fields[key]
        tag = buf[offset]
        if tag == base.TAG_INT:
            return _I64.unpack_from(buf, offset + 1)[0]
        if tag == base.TAG_BYTES:
            size = _U32.unpack_from(buf, offset + 1)[0]
            return buf[offset + 5:offset + 5 + size]
        if tag == base.TAG_DICT:
            count = _U32.unpack_from(buf, offset + 1)[0]
            # Mutable-buffer slices are unhashable cache keys; those
            # buffers take the full FlatView parse below instead.
            if count <= _DIR_CACHE_FIELDS and type(buf) is bytes:
                sub = _DIR_CACHE.get(buf[offset + 1:offset + 5 + 7 * count])
                if sub is not None:
                    view = FlatView.__new__(FlatView)
                    view._buf = buf
                    view._base = offset + 5 + 7 * count
                    view._fields = sub
                    return view
            return FlatView(buf, offset)
        return _lazy_value(buf, offset)

    def get(self, key: str, default: Any = None) -> Any:
        if key in self._fields:
            return self[key]
        return default

    def __contains__(self, key: object) -> bool:
        return key in self._fields

    def keys(self) -> Iterator[str]:
        return iter(self._fields)

    def __iter__(self) -> Iterator[str]:
        return iter(self._fields)

    def __len__(self) -> int:
        return len(self._fields)

    def items(self) -> Iterator[Tuple[str, Any]]:
        buf = self._buf
        base = self._base
        for key, rel in self._fields.items():
            yield key, _lazy_value(buf, base + rel)

    def values(self) -> Iterator[Any]:
        buf = self._buf
        base = self._base
        for rel in self._fields.values():
            yield _lazy_value(buf, base + rel)

    def to_dict(self) -> Dict[str, Any]:
        """Materialize the whole table into plain Python objects."""
        return {key: base.materialize(value) for key, value in self.items()}

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (dict, FlatView)):
            mine = self.to_dict()
            theirs = other.to_dict() if isinstance(other, FlatView) else base.materialize(other)
            return mine == theirs
        return NotImplemented

    def __repr__(self) -> str:
        return f"FlatView(keys={list(self._fields)!r})"


base.register_codec(FlatCodec())
base.register_lazy_view(FlatView, FlatView.to_dict)
base.register_lazy_view(FlatListView, FlatListView.to_list)
