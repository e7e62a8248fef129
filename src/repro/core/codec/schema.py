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

* :class:`Int` — ``int``, or an ``IntEnum`` (``Int.enum``; lowered and
  rebuilt with one lookup in :func:`enum_tables`, so a value that is
  not a member fails both ways); kernels specialize the int64 and
  small-int ranges, deferring to the interpreter outside them
* :class:`ConstInt` — integer whose value is fixed by the schema (the
  ``p``/``c`` envelope discriminators), folded into constant bytes
* :class:`ConstStr` — string fixed by the schema: the tag of one case
  of a union (``{"cmd": "add_queue", ...}``); no emitter specializes it
* :class:`Bool`, :class:`F64`, :class:`Str`, :class:`Bytes` — ``bool``,
  ``float``, ``str``, ``bytes``
* :class:`Opt` — ``Optional[T]`` (optional IEs)
* :class:`Nested` — another wire dataclass
* :class:`Seq` — ``List[T]``
* :class:`StrMap` — ``Dict[str, str]`` (config dictionaries); a
  literal may give another value spec (``StrMap(F64())``)

Field order is significant: it is the wire order for every codec.

A payload that is one of several shapes (a command union) is a
:class:`Schema` with ``cases`` and no fields.  A tree is the one case
it fits exactly: the same key set, every value of its field's type.
Emitters give a case list no kernel, so it always takes the walker,
and :func:`check_tree` — the schema check of the walker lane — holds
it, like every other payload, to its declaration.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from enum import IntEnum
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.codec.base import CodecError, Rows


class Spec:
    """Base class of all field type specs."""

    __slots__ = ()
    kind = "?"

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Int(Spec):
    """Arbitrary-precision integer field; ``enum`` is the ``IntEnum`` the
    declaration names, if any."""

    __slots__ = ("enum",)
    kind = "int"

    def __init__(self, enum: Optional[type] = None) -> None:
        self.enum = enum


class ConstInt(Spec):
    """Integer fixed to ``value`` by the schema (envelope discriminators)."""

    __slots__ = ("value",)
    kind = "const_int"

    def __init__(self, value: int) -> None:
        self.value = int(value)

    def __repr__(self) -> str:
        return f"ConstInt({self.value})"


class ConstStr(Spec):
    """String fixed to ``value`` by the schema (a union case's tag)."""

    __slots__ = ("value",)
    kind = "const_str"

    def __init__(self, value: str) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"ConstStr({self.value!r})"


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
    """An open table of ``str`` keys (unknown at compile time) to
    ``value``-shaped values, strings unless the literal says otherwise."""

    __slots__ = ("value",)
    kind = "strmap"

    def __init__(self, value: Optional[Spec] = None) -> None:
        self.value = Str() if value is None else value


class Schema:
    """An ordered, named collection of typed fields.

    A schema derived by :func:`wire` also records what an emitter needs
    to read and build the dataclass itself: ``cls``, and ``attrs``, the
    attribute name of each field (bare payload trees have no class and
    their attributes are their keys).  A union has no fields and lists
    its ``cases``, each a schema of its own.
    """

    __slots__ = ("name", "fields", "keys", "cls", "attrs", "cases")

    def __init__(
        self,
        name: str,
        fields: List[Tuple[str, Spec]],
        cls: Optional[type] = None,
        attrs: Optional[Tuple[str, ...]] = None,
        cases: Tuple["Schema", ...] = (),
    ) -> None:
        self.name = name
        self.fields = tuple(fields)
        self.keys = tuple(key for key, _spec in self.fields)
        self.cls = cls
        self.attrs = self.keys if attrs is None else tuple(attrs)
        self.cases = tuple(cases)

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


@functools.lru_cache(maxsize=None)
def enum_tables(enum: type) -> Tuple[Dict[Any, int], Dict[int, Any]]:
    """``(member → wire int, wire int → member)`` of an ``IntEnum``.

    One dict lookup converts either way, and a value that is not a
    member misses (``KeyError``) instead of going through an ``Enum``
    call.  Members hash as their value, so the lowering table also
    takes a plain int equal to a member's value.
    """
    return {member: int(member) for member in enum}, {int(member): member for member in enum}


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
            ns[ref + "_wire"], ns[ref + "_of"] = enum_tables(tp)
            return Int(tp), ref + "_wire[{}]", ref + "_of[{}]"
        if isinstance(getattr(tp, "wire_schema", None), Schema):
            return Nested(tp.wire_schema), "{}.to_value()", ref + ".from_value({})"
    raise TypeError(f"no wire mapping for annotation {tp!r}")


def conversion_error(cls, value, exc: Exception) -> CodecError:
    """Name the wire field a failed ``from_value`` (or an indication's
    row read) tripped on.

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


def _bad_member(schema: Schema, obj) -> Optional[Tuple[str, Any, type]]:
    """``(dotted wire field, value, enum)`` of the first ``IntEnum``
    field of ``obj`` whose value is not a member, or None."""
    for (key, spec), attr in zip(schema.fields, schema.attrs):
        found = _bad_value(spec, getattr(obj, attr, None))
        if found is not None:
            field, value, enum = found
            return (key if field is None else f"{key}.{field}"), value, enum
    return None


def _bad_value(spec: Spec, value) -> Optional[Tuple[Optional[str], Any, type]]:
    if spec.kind == "int" and spec.enum is not None:
        try:
            enum_tables(spec.enum)[0][value]
        except (KeyError, TypeError):
            return None, value, spec.enum
    elif spec.kind == "nested" and spec.schema.cls is not None:
        if isinstance(value, spec.schema.cls):
            return _bad_member(spec.schema, value)
    elif spec.kind == "seq" and isinstance(value, list):
        for item in value:
            found = _bad_value(spec.elem, item)
            if found is not None:
                return found
    return None


def _lowering_error(obj) -> Optional[CodecError]:
    """Error path of a generated ``to_value``: name the message class and
    the (dotted) wire field whose ``IntEnum`` value is not a member —
    a value every decoder would reject, so it never reaches the wire."""
    schema = type(obj).wire_schema
    found = _bad_member(schema, obj)
    if found is None:
        return None
    field, value, enum = found
    return CodecError(
        f"{schema.name}.{field}: {value!r} is not a {enum.__name__} member",
        message_type=schema.name,
        field=field,
    )


def wire(keys: Optional[str] = None) -> Callable[[type], type]:
    """Class decorator: make a dataclass its own wire declaration.

    ``keys`` is the space-separated wire key of each field in order
    (E2AP uses single letters to keep PER-style sizes schema-like);
    omitted, every field's wire key is its own name (E2SM structs).
    Attaches ``cls.wire_schema`` (named after the class) and generates
    ``to_value`` and ``from_value``; both raise :class:`CodecError`
    naming the class and the wire field — ``to_value`` for an
    ``IntEnum`` field holding a value that is not a member,
    ``from_value`` when the tree does not fit.
    """

    def decorate(cls: type) -> type:
        fields = dataclasses.fields(cls)
        wire_keys = keys.split() if keys is not None else [f.name for f in fields]
        if len(wire_keys) != len(fields):
            raise TypeError(
                f"{cls.__name__}: {len(wire_keys)} wire keys for {len(fields)} fields"
            )
        hints = typing.get_type_hints(cls)
        ns = {
            "_errors": _CONVERSION_ERRORS,
            "_explain": conversion_error,
            "_CodecError": CodecError,
            "_lowering_error": _lowering_error,
        }
        specs, lowered, raised, decoders = [], [], [], []
        for key, f in zip(wire_keys, fields):
            spec, enc, dec = _lower(hints[f.name], ns)
            specs.append((key, spec))
            lowered.append(f"{key!r}: " + enc.format(f"self.{f.name}"))
            raised.append(dec.format(f"value[{key!r}]"))
            decoders.append((key, eval("lambda v: " + dec.format("v"), ns)))
        source = (
            "def to_value(self):\n"
            "    try:\n"
            f"        return {{{', '.join(lowered)}}}\n"
            "    except (KeyError, _CodecError):\n"
            "        error = _lowering_error(self)\n"
            "        if error is None:\n"
            "            raise\n"
            "        raise error from None\n"
            "def from_value(cls, value):\n"
            "    try:\n"
            f"        return cls({', '.join(raised)})\n"
            "    except _errors as exc:\n"
            "        raise _explain(cls, value, exc) from exc\n"
        )
        exec(compile(source, f"<wire {cls.__name__}>", "exec"), ns)
        cls.wire_schema = Schema(cls.__name__, specs, cls, [f.name for f in fields])
        cls._wire_decoders = tuple(decoders)
        cls.to_value = ns["to_value"]
        cls.from_value = classmethod(ns["from_value"])
        return cls

    return decorate


# ---------------------------------------------------------------------------
# The schema check of the walker lane
# ---------------------------------------------------------------------------

#: scalar spec kind → the Python types a walker reads or writes for it
#: (an ``f64`` cell may carry an int: the walker keeps the tree's type).
_SCALAR_TYPES = {
    "int": int,
    "f64": (int, float),
    "bool": bool,
    "str": str,
    "bytes": (bytes, bytearray, memoryview),
}


def _fits(spec: Spec, value) -> bool:
    kind = spec.kind
    if kind in _SCALAR_TYPES:
        return isinstance(value, _SCALAR_TYPES[kind]) and (kind == "bool") == (type(value) is bool)
    if kind in ("const_int", "const_str"):
        return type(value) is type(spec.value) and value == spec.value
    if kind == "opt":
        return value is None or _fits(spec.inner, value)
    if kind == "nested":
        return _fits_schema(spec.schema, value)
    if kind == "seq":
        items = value.to_value() if type(value) is Rows else value
        return isinstance(items, list) and all(_fits(spec.elem, item) for item in items)
    return isinstance(value, dict) and all(  # strmap
        type(key) is str and _fits(spec.value, item) for key, item in value.items()
    )


def _fits_schema(schema: Schema, value) -> bool:
    if schema.cases:
        return sum(_fits_schema(case, value) for case in schema.cases) == 1
    return (
        isinstance(value, dict)
        and value.keys() == set(schema.keys)
        and all(_fits(spec, value[key]) for key, spec in schema.fields)
    )


def check_tree(schema: Schema, value) -> None:
    """Raise :class:`CodecError` unless the plain tree ``value`` fits
    ``schema`` exactly (a union: exactly one of its cases).  Key order
    is free: the walker writes a tree in its own order."""
    if not _fits_schema(schema, value):
        raise CodecError(
            f"tree does not fit payload schema {schema.name!r}", message_type=schema.name
        )


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
