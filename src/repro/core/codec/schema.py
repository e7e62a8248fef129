"""The wire-schema language, derived from the message dataclasses.

A message shape is declared exactly once — as a dataclass.  The
:func:`wire` decorator reads the class's annotations, derives the
ordered :class:`Schema` the layout compiler
(:mod:`repro.core.codec.codegen`) turns into specialized kernels, and
generates the class's ``to_value``/``from_value`` converters at import
time, the way :mod:`dataclasses` generates ``__init__``.  Schema,
converters and kernels therefore cannot drift apart: they are three
projections of one declaration.  Bare payload trees that have no
dataclass (triggers, action definitions, report wrappers) are declared
as one :class:`Schema` literal by the service-model module that owns
the shape.  This module holds no message shapes of its own — it is the
spec language, the decorator and the registry.

The schema language (DESIGN.md §11) and the annotation each spec is
derived from:

* :class:`Int` — ``int``, or an ``IntEnum`` (lowered with ``int(x)``,
  rebuilt with ``Enum(x)``); kernels specialize the int64 and
  small-int ranges, deferring to the interpreter outside them
* :class:`ConstInt` — integer whose value is fixed by the schema (the
  ``p``/``c`` envelope discriminators), folded into constant bytes
* :class:`Bool`, :class:`F64`, :class:`Str`, :class:`Bytes` — ``bool``,
  ``float``, ``str``, ``bytes``
* :class:`Opt` — ``Optional[T]`` (optional IEs)
* :class:`Nested` — another wire dataclass
* :class:`Seq` — ``List[T]``
* :class:`StrMap` — ``Dict[str, str]`` (config dictionaries)

Field order is significant: it is the wire order for every codec.
"""

from __future__ import annotations

import dataclasses
import typing
from enum import IntEnum
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.codec.base import CodecError


class Spec:
    """Base class of all field type specs."""

    __slots__ = ()
    kind = "?"

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Int(Spec):
    """Arbitrary-precision integer field."""

    __slots__ = ()
    kind = "int"


class ConstInt(Spec):
    """Integer fixed to ``value`` by the schema (envelope discriminators)."""

    __slots__ = ("value",)
    kind = "const_int"

    def __init__(self, value: int) -> None:
        self.value = int(value)

    def __repr__(self) -> str:
        return f"ConstInt({self.value})"


class Bool(Spec):
    __slots__ = ()
    kind = "bool"


class F64(Spec):
    __slots__ = ()
    kind = "f64"


class Str(Spec):
    __slots__ = ()
    kind = "str"


class Bytes(Spec):
    __slots__ = ()
    kind = "bytes"


class Opt(Spec):
    """``None`` or ``inner``; used for optional IEs."""

    __slots__ = ("inner",)
    kind = "opt"

    def __init__(self, inner: Spec) -> None:
        self.inner = inner


class Nested(Spec):
    """A sub-struct with the fixed field set of ``schema``."""

    __slots__ = ("schema",)
    kind = "nested"

    def __init__(self, schema: "Schema") -> None:
        self.schema = schema


class Seq(Spec):
    """A list of ``elem``-shaped values."""

    __slots__ = ("elem",)
    kind = "seq"

    def __init__(self, elem: Spec) -> None:
        self.elem = elem


class StrMap(Spec):
    """An open ``str → str`` table (keys unknown at compile time)."""

    __slots__ = ()
    kind = "strmap"


class Schema:
    """An ordered, named collection of typed fields."""

    __slots__ = ("name", "fields")

    def __init__(self, name: str, fields: List[Tuple[str, Spec]]) -> None:
        self.name = name
        self.fields = tuple(fields)

    @property
    def keys(self) -> Tuple[str, ...]:
        return tuple(key for key, _spec in self.fields)

    def __repr__(self) -> str:
        return f"Schema({self.name!r}, {len(self.fields)} fields)"


# ---------------------------------------------------------------------------
# @wire: dataclass → schema + converters
# ---------------------------------------------------------------------------

_SCALARS = {int: Int, bool: Bool, float: F64, str: Str, bytes: Bytes}

#: What a malformed body can raise inside a generated ``from_value``
#: (missing key, scalar where a struct/list belongs, enum out of range,
#: or a nested wire class reporting the same).
_CONVERSION_ERRORS = (CodecError, KeyError, TypeError, ValueError)


def _lower(tp, ns: dict) -> Tuple[Spec, str, str]:
    """Annotation → (spec, to-wire template, from-wire template).

    Templates are ``str.format`` patterns over the value expression;
    ``"{}"`` means the value crosses unchanged.  Classes the templates
    name are bound into ``ns``, the generated converters' globals.
    """
    if tp in _SCALARS:
        return _SCALARS[tp](), "{}", "{}"
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Union and len(args) == 2 and type(None) in args:
        spec, enc, _dec = _lower(args[0] if args[1] is type(None) else args[1], ns)
        if enc == "{}":
            return Opt(spec), "{}", "{}"
    elif origin is list:
        spec, enc, dec = _lower(args[0], ns)
        if enc == "{}":
            return Seq(spec), "list({})", "list({})"
        each = "[%s for x in {}]"
        return Seq(spec), each % enc.format("x"), each % dec.format("x")
    elif origin is dict and args == (str, str):
        return StrMap(), "dict({})", "dict({})"  # copies a plain dict or a lazy view
    elif isinstance(tp, type):
        ref = f"_{tp.__name__}"
        ns[ref] = tp
        if issubclass(tp, IntEnum):
            return Int(), "int({})", ref + "({})"
        if isinstance(getattr(tp, "wire_schema", None), Schema):
            return Nested(tp.wire_schema), "{}.to_value()", ref + ".from_value({})"
    raise TypeError(f"no wire mapping for annotation {tp!r}")


def _conversion_error(cls, value, exc: Exception) -> CodecError:
    """Name the wire field a failed ``from_value`` tripped on.

    Error path only: re-runs the per-field converters one at a time to
    find the first that fails; a nested wire class contributes its own
    field as a dotted suffix (``"n.k"``).  A value that is no struct at
    all names no field here — the parent's field is the one at fault.
    """
    field = None
    decoders = cls._wire_decoders if hasattr(value, "keys") else ()
    for key, convert in decoders:
        try:
            convert(value[key])
        except CodecError as inner:
            field = key if inner.field is None else f"{key}.{inner.field}"
            break
        except _CONVERSION_ERRORS:
            field = key
            break
    why = exc.args[0] if isinstance(exc, CodecError) else f"{type(exc).__name__}: {exc}"
    return CodecError(
        f"malformed {cls.__name__} body: {why}", message_type=cls.__name__, field=field
    )


def wire(keys: Optional[str] = None) -> Callable[[type], type]:
    """Class decorator: make a dataclass its own wire declaration.

    ``keys`` is the space-separated wire key of each field in order
    (E2AP uses single letters to keep PER-style sizes schema-like);
    omitted, every field's wire key is its own name (E2SM structs).
    Attaches ``cls.wire_schema`` (named after the class) and generates
    ``to_value`` and ``from_value``; the latter raises
    :class:`CodecError` naming the class and the wire field when the
    tree does not fit.
    """

    def decorate(cls: type) -> type:
        fields = dataclasses.fields(cls)
        wire_keys = keys.split() if keys is not None else [f.name for f in fields]
        if len(wire_keys) != len(fields):
            raise TypeError(
                f"{cls.__name__}: {len(wire_keys)} wire keys for {len(fields)} fields"
            )
        hints = typing.get_type_hints(cls)
        ns = {"_errors": _CONVERSION_ERRORS, "_explain": _conversion_error}
        specs, lowered, raised, decoders = [], [], [], []
        for key, f in zip(wire_keys, fields):
            spec, enc, dec = _lower(hints[f.name], ns)
            specs.append((key, spec))
            lowered.append(f"{key!r}: " + enc.format(f"self.{f.name}"))
            raised.append(dec.format(f"value[{key!r}]"))
            decoders.append((key, eval("lambda v: " + dec.format("v"), ns)))
        source = (
            "def to_value(self):\n"
            f"    return {{{', '.join(lowered)}}}\n"
            "def from_value(cls, value):\n"
            "    try:\n"
            f"        return cls({', '.join(raised)})\n"
            "    except _errors as exc:\n"
            "        raise _explain(cls, value, exc) from exc\n"
        )
        exec(compile(source, f"<wire {cls.__name__}>", "exec"), ns)
        cls.wire_schema = Schema(cls.__name__, specs)
        cls._wire_decoders = tuple(decoders)
        cls.to_value = ns["to_value"]
        cls.from_value = classmethod(ns["from_value"])
        return cls

    return decorate


# ---------------------------------------------------------------------------
# Registry: E2AP message bodies by (procedure, class), payload trees by name
# ---------------------------------------------------------------------------

#: (procedure, class) → schema of the envelope's ``"v"`` payload.
_MESSAGE_SCHEMAS: Dict[Tuple[int, int], Schema] = {}

#: name → schema for inner (E2SM) payloads and other bare trees.
_PAYLOAD_SCHEMAS: Dict[str, Schema] = {}


def _load_declarations() -> None:
    """Import the modules whose decorators populate the registries.

    Every accessor calls this, so the registry is complete whichever
    module a process happens to import first (a cache miss that saw a
    short registry would pin "no kernel" for the process lifetime).
    """
    import repro.core.e2ap.messages  # noqa: F401
    import repro.sm  # noqa: F401


def register_message_schema(key: Tuple[int, int], schema: Schema) -> Schema:
    """Associate ``schema`` with an E2AP (procedure, class) pair."""
    key = (int(key[0]), int(key[1]))
    if key in _MESSAGE_SCHEMAS:
        raise ValueError(f"duplicate message schema registration: {key}")
    _MESSAGE_SCHEMAS[key] = schema
    return schema


def register_payload_schema(schema: Schema) -> Schema:
    """Register a named bare-tree schema (E2SM payloads, triggers)."""
    if schema.name in _PAYLOAD_SCHEMAS:
        raise ValueError(f"duplicate payload schema registration: {schema.name}")
    _PAYLOAD_SCHEMAS[schema.name] = schema
    return schema


def message_schema(procedure: int, msg_class: int) -> Optional[Schema]:
    _load_declarations()
    return _MESSAGE_SCHEMAS.get((int(procedure), int(msg_class)))


def payload_schema(name: str) -> Optional[Schema]:
    _load_declarations()
    return _PAYLOAD_SCHEMAS.get(name)


def message_schema_keys() -> List[Tuple[int, int]]:
    _load_declarations()
    return sorted(_MESSAGE_SCHEMAS)


def payload_schema_names() -> List[str]:
    _load_declarations()
    return sorted(_PAYLOAD_SCHEMAS)


def envelope_schema(procedure: int, msg_class: int) -> Optional[Schema]:
    """Full-message schema: ``{"p": const, "c": const, "v": payload}``.

    The discriminators are :class:`ConstInt`, so kernels fold them into
    constant wire bytes and the decode side turns them into a cheap
    prefix comparison.
    """
    body = message_schema(procedure, msg_class)
    if body is None:
        return None
    return Schema(
        f"envelope_{int(procedure)}_{int(msg_class)}",
        [
            ("p", ConstInt(int(procedure))),
            ("c", ConstInt(int(msg_class))),
            ("v", Nested(body)),
        ],
    )
