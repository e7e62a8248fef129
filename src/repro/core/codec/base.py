"""Codec interface, value model, and registry.

The *generic value tree* exchanged with codecs is restricted to:

* ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``
* ``list`` of values
* ``dict`` with ``str`` keys and value-tree values (field order is
  significant and preserved)
* :class:`Rows` — a list of same-keyed dicts held as one flat list of
  scalars, which every codec encodes exactly as the list it stands for

E2AP message dataclasses lower themselves to this model
(:mod:`repro.core.e2ap.messages`), so codecs never see protocol types —
exactly the decoupling the paper's intermediate representation provides.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, List, Optional, Tuple

Value = Any  # documented recursive union; Python <3.12 friendly alias


class CodecError(Exception):
    """Raised when encoding or decoding fails.

    ``message_type`` and ``field`` carry the E2AP message type name and
    the offending field when the failure context knows them (set via
    :meth:`with_context`), so containment counters (``decode.contained``)
    are debuggable from logs rather than opaque tallies.
    """

    def __init__(
        self,
        message: str,
        message_type: str = None,
        field: str = None,
    ) -> None:
        super().__init__(message)
        self.message_type = message_type
        self.field = field

    def with_context(self, message_type: str = None, field: str = None) -> "CodecError":
        """Attach message-type/field context without clobbering existing."""
        if message_type is not None and self.message_type is None:
            self.message_type = message_type
        if field is not None and self.field is None:
            self.field = field
        return self

    def __str__(self) -> str:
        text = super().__str__()
        context = []
        if self.message_type is not None:
            context.append(f"message={self.message_type}")
        if self.field is not None:
            context.append(f"field={self.field}")
        if context:
            return f"{text} [{', '.join(context)}]"
        return text


class Codec(ABC):
    """Turns a generic value tree into bytes and back.

    ``encode``/``decode`` are the codec's field walkers, the oracle of
    its generated kernels.  ``decode_route(data)`` — an E2AP frame as
    ``(procedure, msg_class, message)`` — is one router for every
    codec, built once per instance by
    :func:`repro.core.codec.codegen._router`, which that module (always
    imported with the package) sets on this class.

    Subclasses must be stateless; one instance can serve many
    connections concurrently.
    """

    #: registry key and wire identifier, e.g. ``"asn"``.
    name: str = ""

    @abstractmethod
    def encode(self, value: Value) -> bytes:
        """Serialize ``value``; raises :class:`CodecError` on bad input."""

    @abstractmethod
    def decode(self, data: bytes) -> Value:
        """Deserialize ``data``; raises :class:`CodecError` on bad input.

        Codecs with lazy semantics (FlatBuffers-style) may return a
        read-only mapping view over the buffer instead of fresh dicts.
        """

    def probe(self, data) -> Optional[Tuple[int, int]]:
        """``(procedure, msg_class)`` read off the constant envelope
        prefix without decoding anything, or ``None`` when this codec
        (or this frame) cannot tell and the caller must decode."""
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


_REGISTRY: Dict[str, Codec] = {}


def register_codec(codec: Codec) -> None:
    """Add ``codec`` to the global registry under ``codec.name``.

    Re-registering the same name replaces the previous entry; this is
    how a deployment swaps in a vendor-specific scheme (§4.3).
    """
    if not codec.name:
        raise ValueError("codec has no name")
    _REGISTRY[codec.name] = codec


def get_codec(name: str) -> Codec:
    """Look up a registered codec; raises KeyError with choices listed."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown codec {name!r}; available: {sorted(_REGISTRY)}") from None


def available_codecs() -> List[str]:
    """Names of all registered codecs, sorted."""
    return sorted(_REGISTRY)


def validate_tree(value: Value, _depth: int = 0) -> None:
    """Check that ``value`` stays within the generic value model.

    Raises :class:`CodecError` on foreign types or absurd nesting; used
    by codecs at the encode boundary so errors surface early and
    uniformly rather than deep inside bit packing.
    """
    if _depth > 64:
        raise CodecError("value tree deeper than 64 levels")
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return
    if isinstance(value, list):
        for item in value:
            validate_tree(item, _depth + 1)
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(f"non-string dict key: {key!r}")
            validate_tree(item, _depth + 1)
        return
    if type(value) is Rows:
        validate_tree(value.to_value(), _depth)
        return
    raise CodecError(f"unsupported type in value tree: {type(value).__name__}")


#: Key tuple → its generated ``values → [dict, ...]`` lowering.
_ROW_DICTS: Dict[Tuple[str, ...], Any] = {}


def _row_dicts(keys: Tuple[str, ...]) -> Any:
    """One dict display per row, unrolled over ``keys`` and compiled
    once per layout: twice as fast as ``dict(zip(keys, row))``."""
    lower = _ROW_DICTS.get(keys)
    if lower is None:
        names = [f"_{index}" for index in range(len(keys))]
        pairs = ", ".join(f"{key!r}: {name}" for key, name in zip(keys, names))
        lower = eval(
            f"lambda values: [{{{pairs}}} for {', '.join(names)}, "
            f"in zip(*[iter(values)] * {len(keys)})]"
        )
        _ROW_DICTS[keys] = lower
    return lower


class Rows:
    """The rows of a fixed-layout sequence, as one flat list of scalars.

    ``Rows(MacUeStats, values)`` stands for the list of dicts
    ``[{"rnti": values[0], "cqi": values[1], ...}, ...]``: the field
    order is the ``@wire`` declaration's (``layout.wire_schema.keys``)
    and ``values`` is row-major, one value per field per row.  A
    provider writes its report this way so that no per-row dict exists
    on the report path — the ``fb`` kernel packs the values in one
    ``Struct.pack`` (DESIGN.md §11), every other lane lowers the rows
    with :meth:`to_value` — and the bytes are always those of the list.

    Read-only: it takes ``values`` over without copying and has no
    mutator, so a provider hands every report a fresh list.  It
    compares equal to the list of dicts it stands for (either way
    round), indexes and iterates as dicts, and is unhashable like a list.
    """

    __slots__ = ("keys", "values")
    __hash__ = None

    def __init__(self, layout: type, values: List[Any]) -> None:
        keys = layout.wire_schema.keys
        if not keys or len(values) % len(keys):
            raise ValueError(
                f"{len(values)} values do not fill rows of {layout.__name__}'s "
                f"{len(keys)} fields"
            )
        self.keys = keys
        self.values = values

    def to_value(self) -> List[Dict[str, Any]]:
        """The plain list of dicts these rows stand for."""
        return _row_dicts(self.keys)(self.values)

    def __len__(self) -> int:
        return len(self.values) // len(self.keys)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.to_value()[index]
        width = len(self.keys)
        start = range(0, len(self.values), width)[index]
        return dict(zip(self.keys, self.values[start:start + width]))

    def __iter__(self):
        return iter(self.to_value())

    def __eq__(self, other: object) -> bool:
        if type(other) is Rows:
            return self.to_value() == other.to_value()
        if isinstance(other, list):
            return self.to_value() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"Rows({len(self)} x {self.keys!r})"


# Type tags shared by the self-describing codecs.  ASN.1 PER proper is
# schema-driven and tag-free; our codecs carry 4-bit tags to stay
# generic while keeping the tag cost negligible.
TAG_NONE = 0
TAG_FALSE = 1
TAG_TRUE = 2
TAG_INT = 3
TAG_FLOAT = 4
TAG_STR = 5
TAG_BYTES = 6
TAG_LIST = 7
TAG_DICT = 8

TAG_NAMES: Tuple[str, ...] = (
    "none",
    "false",
    "true",
    "int",
    "float",
    "str",
    "bytes",
    "list",
    "dict",
)


_SCALARS = frozenset((int, float, str, bytes, bool, type(None)))

#: Lazy view type → the method that turns it into a plain container.
#: Codecs that hand out views register them at import, so this module
#: never imports a codec (``flat`` imports ``base``, not the reverse).
_LAZY_VIEWS: Dict[type, Any] = {}


def register_lazy_view(view_type: type, to_plain: Any) -> None:
    """Teach :func:`materialize` to unwrap ``view_type`` via ``to_plain``."""
    _LAZY_VIEWS[view_type] = to_plain


def materialize(value: Value) -> Value:
    """Convert lazy codec views into plain dicts/lists recursively.

    Plain values pass through unchanged, so callers can normalize the
    output of any codec before comparing trees.  The result holds only
    ``dict``/``list``/scalars/``bytes`` at every depth — no view that
    would pin a receive buffer.
    """
    kind = type(value)
    if kind in _SCALARS:
        return value
    to_plain = _LAZY_VIEWS.get(kind)
    if to_plain is not None:
        return to_plain(value)
    # Leaves are tested inline: most of a report tree is scalars, and a
    # call per leaf was most of what materializing a plain tree cost.
    if isinstance(value, dict):
        return {
            key: item if type(item) in _SCALARS else materialize(item)
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [item if type(item) in _SCALARS else materialize(item) for item in value]
    if isinstance(value, (memoryview, bytearray)):
        # Zero-copy decode over a buffer-protocol input hands out
        # sub-views; materialization is where they become owned bytes.
        return bytes(value)
    return value


register_lazy_view(Rows, Rows.to_value)
