"""Layout compiler: schemas → specialized encode/decode kernels.

For every (schema × codec) pair — codecs ``fb`` and ``asn``; a codec
without an emitter (``pb``) simply has no kernels and stays on its
interpretive walker — this module emits flat Python source
with precomputed offsets: constant wire regions (tags, counts, field
directories, envelope discriminators) are folded into literal byte
strings, runs of fixed-width fields are fused into single
:class:`struct.Struct` packs/unpacks, and field access is unrolled —
no per-field dispatch, no generic tree walk.  The emitted source is a
pure function of the schema, so compiling twice yields identical text
(the CI determinism gate).

Correctness model — *guard-based deoptimization*: a kernel checks
every assumption the specialization makes (exact key tuples, value
types, int ranges, constant wire bytes, valid utf-8, and that each
read ends inside the frame) and declines with ``None`` on any
mismatch; the codec then falls back to its interpretive walker, which
remains the behavioral oracle.  A kernel may therefore be *stricter*
than the interpreter (declining is always sound — the fallback
reproduces the interpretive result) but must never accept input the
interpreter would reject differently.  A kernel declines only by
returning ``None``: any exception it raises is a bug and propagates.
Every decoder, kernel lane or walker, refuses a frame with
:class:`~repro.core.codec.base.CodecError` and nothing else.

A kernel has one entry point per direction.  An E2AP envelope kernel
has the *object lanes*: ``encode_msg(m)`` reads the message dataclass's
attributes, and ``route(data)`` builds it back (``RicIndication``'s
route returns its row).  An E2SM payload kernel has the dict lanes,
``encode(tree)`` and ``decode(data)``.  Behind either sits one walker,
``Codec.encode``/``Codec.decode``: ``Codec.decode_route`` (built once
per codec by :func:`_router`) asks the route kernel, else walks and
builds the message with :func:`routed`.  What generated code calls for
the parts it does not unroll lives in
:mod:`~repro.core.codec.kernel_runtime`.

:func:`interpretive` turns kernels off for the extent of a ``with``
block, keeping the interpretive path selectable as the
differential-testing oracle.
"""

from __future__ import annotations

import functools
import struct
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.codec import schema as _schema
from repro.core.codec.base import Codec, CodecError
from repro.core.codec.kernel_runtime import (
    _B1,
    _H,
    _I,
    _INT64_MAX,
    _INT64_MIN,
    _PSP,
    _Q,
    _RUNTIME,
    _SZ9,
    _pint,
)
from repro.core.codec.schema import Schema, Spec
from repro.metrics import counters

_enc_hit = counters.get_counter("codec.kernel.encode_hits").tick
_enc_fall = counters.get_counter("codec.kernel.encode_fallbacks").tick
_dec_hit = counters.get_counter("codec.kernel.decode_hits").tick
_dec_fall = counters.get_counter("codec.kernel.decode_fallbacks").tick
_copied = counters.get_counter("bytes.copied").tick

# -- flags -----------------------------------------------------------

#: Kernels on unless :func:`interpretive` is forcing the oracle.
ENABLED = True


def kernels_enabled() -> bool:
    return ENABLED


@contextmanager
def interpretive():
    """Context manager forcing the interpretive oracle."""
    global ENABLED
    prev = ENABLED
    ENABLED = False
    try:
        yield
    finally:
        ENABLED = prev


class _Unsupported(Exception):
    """Raised by an emitter for a shape it does not specialize."""


# -- generated-source builders ---------------------------------------


class _Fn:
    """One generated function; collects indented statements."""

    def __init__(self, mod: "_Mod", name: str, params: str) -> None:
        self.mod = mod
        self.name = name
        self.lines: List[str] = [f"def {name}({params}):"]
        self.indent = 1
        #: ``(member, wire int, table)`` of every ``IntEnum`` field an
        #: object lane read, checked by :meth:`check_members`.
        self.members: List[Tuple[str, str, str]] = []

    def w(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def member(self, enum: type, x: str) -> str:
        """The ``enum`` member read as wire int ``x``: one lookup, made
        by :meth:`check_members` once the function's reads are done (a
        fused read assigns ``x`` only when its run is flushed)."""
        y = self.mod.name("k")
        self.members.append((y, x, _enum_ref(self.mod, enum)))
        return y

    def utf8(self, raw: str) -> str:
        """``raw`` decoded as utf-8; invalid utf-8 declines."""
        x = self.mod.name("x")
        self.w(f"try: {x} = {raw}.decode('utf-8')")
        self.w("except UnicodeDecodeError: return None")
        return x

    def check_members(self) -> None:
        """Decline a value that is not a member, as ``from_value`` does."""
        for y, x, table in self.members:
            self.w(f"{y} = {table}.get({x})")
            self.w(f"if {y} is None: return None")
        self.members = []

    def close(self) -> None:
        if len(self.lines) == 1:
            self.w("pass")
        self.mod.lines.extend(self.lines)
        self.mod.lines.append("")


class _Mod:
    """A generated module: deduplicated named constants + functions.

    ``render()`` is deterministic: constants are emitted in first-use
    order with repr-rendered literals, and all name counters are local
    to the module.
    """

    def __init__(self, title: str) -> None:
        self.title = title
        self.lines: List[str] = []
        self.consts: Dict[str, str] = {}
        self.const_lines: List[str] = []
        #: name → object bound into the namespace (message classes,
        #: ``IntEnum`` tables): the source names them, never renders them.
        self.refs: Dict[str, Any] = {}
        self.n = 0

    def name(self, prefix: str) -> str:
        self.n += 1
        return f"{prefix}{self.n}"

    def const(self, expr: str) -> str:
        """Name of a module-level constant holding ``expr``'s value."""
        got = self.consts.get(expr)
        if got is None:
            got = f"_C{len(self.consts)}"
            self.consts[expr] = got
            self.const_lines.append(f"{got} = {expr}")
        return got

    def const_bytes(self, value: bytes) -> str:
        return self.const(repr(value))

    def const_struct(self, fmt: str) -> str:
        return self.const(f"_Struct({fmt!r})")

    def ref(self, name: str, value: Any) -> str:
        self.refs[name] = value
        return name

    def fn(self, prefix: str, params: str) -> _Fn:
        return _Fn(self, self.name(prefix), params)

    def render(self) -> str:
        out = [f"# generated kernel: {self.title}", ""]
        out.extend(self.const_lines)
        out.append("")
        out.extend(self.lines)
        return "\n".join(out)

    def compile(self) -> Dict[str, Any]:
        ns = dict(_RUNTIME)
        ns.update(self.refs)
        exec(compile(self.render(), f"<kernel {self.title}>", "exec"), ns)
        return ns


class _Size:
    """A size expression: constant octets + runtime ``len()`` terms."""

    __slots__ = ("const", "terms")

    def __init__(self, const: int = 0, terms: Tuple[str, ...] = ()) -> None:
        self.const = const
        self.terms = tuple(terms)

    def __add__(self, other: "_Size") -> "_Size":
        return _Size(self.const + other.const, self.terms + other.terms)

    @property
    def fixed(self) -> bool:
        return not self.terms

    def render(self) -> str:
        parts = [str(self.const)] if self.const or not self.terms else []
        parts.extend(self.terms)
        return " + ".join(parts)


class _Segs:
    """Encode segment stream: constants fused with fixed-width packs.

    Segments accumulate as (kind, payload); ``flush`` merges a run of
    constants and scalar packs into a single ``Struct.pack`` call (one
    C-level call per fixed-width run), while variable-length payloads
    are appended raw.  Rendered statements append to the parts list
    ``P`` via the bound local ``A``.
    """

    def __init__(self, fn: _Fn) -> None:
        self.fn = fn
        self.run: List[Tuple[str, Any]] = []  # ("c", bytes) | (fmt, expr)

    def const(self, data: bytes) -> None:
        if not data:
            return
        if self.run and self.run[-1][0] == "c":
            self.run[-1] = ("c", self.run[-1][1] + data)
        else:
            self.run.append(("c", data))

    def scalar(self, fmt: str, expr: str) -> None:
        self.run.append((fmt, expr))

    def raw(self, expr: str) -> None:
        self.flush()
        self.fn.w(f"A({expr})")

    def stmt(self, line: str) -> None:
        """Interleave a statement at the current wire position."""
        self.flush()
        self.fn.w(line)

    def flush(self) -> None:
        expr = self.take()
        if expr is not None:
            self.fn.w(f"A({expr})")

    def take(self) -> Optional[str]:
        """The pending run as one bytes-valued expression (None if empty)."""
        run, self.run = self.run, []
        if not run:
            return None
        if len(run) == 1 and run[0][0] == "c":
            return self.fn.mod.const_bytes(run[0][1])
        fmt = "<"
        args = []
        for kind, payload in run:
            if kind == "c":
                fmt += f"{len(payload)}s"
                args.append(self.fn.mod.const_bytes(payload))
            else:
                fmt += kind
                args.append(payload)
        sname = self.fn.mod.const_struct(fmt)
        return f"{sname}.pack({', '.join(args)})"


class _Off:
    """Compile-time wire offset: constant until a variable-length field
    forces a runtime base variable, then ``base + k``."""

    __slots__ = ("base", "k")

    def __init__(self, base: Optional[str] = None, k: int = 0) -> None:
        self.base = base
        self.k = k

    def advance(self, n: int) -> None:
        self.k += n

    def expr(self) -> str:
        if self.base is None:
            return str(self.k)
        if self.k:
            return f"{self.base} + {self.k}"
        return self.base

    def rebase(self, fn: _Fn, expr: str) -> None:
        name = fn.mod.name("o")
        fn.w(f"{name} = {expr}")
        self.base = name
        self.k = 0


class _DecRuns:
    """Decode-side fusion: consecutive fixed-width reads (constant wire
    bytes + scalar captures) collapse into one ``unpack_from`` straight
    into locals, whose constant captures are compared as one tuple.  On
    ``fb`` a run extends through the next variable cell's tag and
    length word, as :class:`_Segs` does on encode: after a run only the
    value's own octets are read."""

    def __init__(self, fn: _Fn, off: _Off, end: Optional[str] = None) -> None:
        self.fn = fn
        self.off = off
        #: the kernel's ``len(data)`` local: a fused read is made only
        #: after its end is compared with it (None: no guard).
        self.end = end
        self.run: List[Tuple[str, Any]] = []  # ("c", bytes) | (fmt, name)
        self.width = 0

    def const(self, data: bytes) -> None:
        if not data:
            return
        if self.run and self.run[-1][0] == "c":
            self.run[-1] = ("c", self.run[-1][1] + data)
        else:
            self.run.append(("c", data))
        self.width += len(data)

    def capture(self, fmt: str, name: str) -> None:
        self.run.append((fmt, name))
        self.width += struct.calcsize("<" + fmt)

    def flush(self) -> None:
        run, self.run = self.run, []
        width, self.width = self.width, 0
        if not run:
            return
        fn = self.fn
        start = self.off.expr()
        if len(run) == 1 and run[0][0] == "c":
            cname = fn.mod.const_bytes(run[0][1])
            if self.off.base is None:
                end = self.off.k + width
                fn.w(f"if data[{start}:{end}] != {cname}: return None")
            else:
                fn.w(f"if data[{start}:{start} + {width}] != {cname}: return None")
            self.off.advance(width)
            return
        fmt = "<"
        for kind, payload in run:
            fmt += f"{len(payload)}s" if kind == "c" else kind
        sname = fn.mod.const_struct(fmt)
        if self.end is not None:
            fn.w(f"if {_Off(self.off.base, self.off.k + width).expr()} > {self.end}: return None")
        read = f"{sname}.unpack_from(data, {start})"
        self.off.advance(width)
        names, consts, checked = [], [], []
        for kind, payload in run:
            if kind == "c":
                consts.append(payload)
                payload = fn.mod.name("k")
                checked.append(payload)
            names.append(payload)
        fn.w(f"{', '.join(names)}, = {read}")
        if len(consts) == 1:
            fn.w(f"if {checked[0]} != {fn.mod.const_bytes(consts[0])}: return None")
        elif consts:
            fn.w(f"if ({', '.join(checked)}) != {fn.mod.const(repr(tuple(consts)))}: return None")


# -- the object lanes ------------------------------------------------
# An E2AP envelope kernel encodes straight from the message dataclass
# (``encode_msg``) and decodes straight back to it (``route``): the
# payload kernels' schema walk, with a struct's fields read as
# attributes of an instance of exactly its class instead of the values
# of a dict with exactly its keys, and built with a constructor call
# instead of a dict display.  An ``IntEnum`` field must hold a member on
# the way out and name one on the way in; everything else declines, and
# the walker answers.


def _cls_ref(mod: _Mod, cls: type) -> str:
    return mod.ref(f"_K_{cls.__name__}", cls)


def _enum_ref(mod: _Mod, enum: type) -> str:
    """Name of ``enum``'s wire int → member table."""
    return mod.ref(f"_E_{enum.__name__}", _schema.enum_tables(enum)[1])


def _message_body(schema: Schema) -> Optional[Schema]:
    """The body schema of an E2AP message envelope, else None."""
    if schema.keys != ("p", "c", "v"):
        return None
    spec = schema.fields[2][1]
    return spec.schema if spec.kind == "nested" and spec.schema.cls is not None else None


def _emit_lanes(emitter, mod: _Mod, schema: Schema) -> None:
    """A kernel's two entry points, one per direction: an E2AP envelope's
    object lanes (``encode_msg``, ``route``), else a payload's dict lanes
    (``encode``, ``decode``).  A union gets no kernel."""
    if schema.cases:
        raise _Unsupported("case list")
    if _message_body(schema) is None:
        emitter._emit_encode(mod, schema)
        emitter._emit_decode(mod, schema)
    else:
        emitter._emit_encode(mod, schema, obj=True)
        emitter._emit_decode(mod, schema, "row" if schema.name == _ROW_SCHEMA else "obj")


def _struct_fields(fn: "_Fn", schema: Schema, expr: str, obj: bool) -> List[Tuple[str, Spec, str]]:
    """Guard the struct at ``expr`` — a dict with exactly the schema's
    keys, or with ``obj`` an instance of exactly its class — and return
    each field's ``(key, spec, expression)``.  With ``obj`` the envelope,
    which has no class, is the message itself: its discriminators are
    constants of the kernel, which is picked by the message's class."""
    if not obj:
        fn.w(f"if type({expr}) is not dict: return None")
        fn.w(f"if tuple({expr}.keys()) != {schema.keys!r}: return None")
        return [(key, spec, f"{expr}[{key!r}]") for key, spec in schema.fields]
    if schema.cls is None:
        return [(key, spec, expr) for key, spec in schema.fields]
    fn.w(f"if type({expr}) is not {_cls_ref(fn.mod, schema.cls)}: return None")
    return [(key, spec, f"{expr}.{attr}") for (key, spec), attr in zip(schema.fields, schema.attrs)]


def _construct(mod: _Mod, schema: Schema, exprs: List[str], obj: bool) -> str:
    """A decoded struct: its dict display, or with ``obj`` its
    constructor call (the envelope: its body)."""
    if not obj:
        return "{" + ", ".join(f"{key!r}: {x}" for key, x in zip(schema.keys, exprs)) + "}"
    if schema.cls is None:
        return exprs[-1]
    return f"{_cls_ref(mod, schema.cls)}({', '.join(exprs)})"


#: spec kind → (tag cell, struct code, exact Python type) for the flat
#: cells whose width never depends on the value.
_FIXED_CELLS = {"int": (b"\x03", "q", "int"), "f64": (b"\x04", "d", "float")}


class _FlatEmitter:
    """Emits flat-codec kernels (codec name ``"fb"``)."""

    codec_name = "fb"

    # -- encode ------------------------------------------------------

    def build(self, schema: Schema) -> _Mod:
        mod = _Mod(f"fb {schema.name}")
        self._elem_enc: Dict[Tuple[str, bool], str] = {}
        self._elem_layout: Dict[str, str] = {}  # fixed-layout encoders only
        self._elem_dec: Dict[Tuple[str, bool], str] = {}
        _emit_lanes(self, mod, schema)
        return mod

    def _emit_encode(self, mod: _Mod, schema: Schema, obj: bool = False) -> None:
        """``encode(V)`` from the dict tree, or with ``obj`` ``encode_msg(m)``
        from the message dataclass: one wire."""
        fn = _Fn(mod, "encode_msg", "m") if obj else _Fn(mod, "encode", "V")
        size, emit = self._enc_dict(fn, schema, "m" if obj else "V", obj)
        fn.w("P = []")
        fn.w("A = P.append")
        segs = _Segs(fn)
        segs.const(b"FR\x01\x00")
        if size.fixed:
            segs.const(_I.pack(size.const))
        else:
            segs.scalar("I", size.render())
        segs.const(b"\x00" * 8)
        emit(segs)
        segs.flush()
        fn.w("return b''.join(P)")
        fn.close()

    def _enc_dict(
        self, fn: _Fn, schema: Schema, expr: str, obj: bool = False
    ) -> Tuple[_Size, Callable]:
        """Analyze a dict (with ``obj``, a dataclass): write guards and
        bindings now, return the chunk size and an emitter producing
        tag+count+directory+values."""
        return self._dict_chunk([
            (key,) + self._enc_field(fn, spec, x, obj)
            for key, spec, x in _struct_fields(fn, schema, expr, obj)
        ])

    @staticmethod
    def _dict_chunk(entries: List[Tuple[str, _Size, Callable]]) -> Tuple[_Size, Callable]:
        """Chunk size and tag+count+directory+values emitter of a dict
        whose ``(key, size, emit)`` fields are already analyzed."""
        total = _Size(5)
        for key, size, _emit in entries:
            total = total + _Size(6 + len(key.encode("utf-8"))) + size

        def emit(segs: _Segs) -> None:
            segs.const(b"\x08" + _I.pack(len(entries)))
            for key, size, _emit in entries:
                raw = key.encode("utf-8")
                segs.const(_H.pack(len(raw)) + raw)
                if size.fixed:
                    segs.const(_I.pack(size.const))
                else:
                    segs.scalar("I", size.render())
            for _key, _size, field_emit in entries:
                field_emit(segs)

        return total, emit

    def _enc_field(
        self, fn: _Fn, spec: Spec, expr: str, obj: bool = False
    ) -> Tuple[_Size, Callable]:
        mod = fn.mod
        kind = spec.kind
        if kind == "const_int":
            value = spec.value
            if not (_INT64_MIN <= value <= _INT64_MAX):
                raise _Unsupported("const outside int64")
            cell = b"\x03" + _Q.pack(value)
            return _Size(9), lambda segs: segs.const(cell)
        if kind == "int":
            x = mod.name("v")
            fn.w(f"{x} = {expr}")
            if obj and spec.enum is not None:
                # A member is exactly of its enum's type; the walker
                # lowers anything else.
                fn.w(f"if type({x}) is not {_cls_ref(mod, spec.enum)}: return None")
            else:
                fn.w(
                    f"if type({x}) is not int or not "
                    f"({_INT64_MIN} <= {x} <= {_INT64_MAX}): return None"
                )
            return _Size(9), lambda segs: (
                segs.const(b"\x03"), segs.scalar("q", x)
            )
        if kind == "bool":
            x = mod.name("v")
            fn.w(f"{x} = {expr}")
            fn.w(f"if {x} is not True and {x} is not False: return None")
            return _Size(1), lambda segs: segs.scalar(
                "1s", f"(b'\\x02' if {x} else b'\\x01')"
            )
        if kind == "f64":
            x = mod.name("v")
            fn.w(f"{x} = {expr}")
            fn.w(f"if type({x}) is not float: return None")
            return _Size(9), lambda segs: (
                segs.const(b"\x04"), segs.scalar("d", x)
            )
        if kind == "str":
            x = mod.name("v")
            r = mod.name("r")
            fn.w(f"{x} = {expr}")
            fn.w(f"if type({x}) is not str: return None")
            fn.w(f"{r} = {x}.encode('utf-8')")
            return _Size(5, (f"len({r})",)), lambda segs: (
                segs.const(b"\x05"),
                segs.scalar("I", f"len({r})"),
                segs.raw(r),
            )
        if kind == "bytes":
            x = mod.name("v")
            fn.w(f"{x} = {expr}")
            fn.w(f"if type({x}) is not bytes: return None")
            return _Size(5, (f"len({x})",)), lambda segs: (
                segs.const(b"\x06"),
                segs.scalar("I", f"len({x})"),
                segs.raw(x),
            )
        if kind == "opt":
            if spec.inner.kind != "int":
                raise _Unsupported("opt of non-int")
            c = mod.name("c")
            fn.w(f"{c} = _fopt_int({expr})")
            fn.w(f"if {c} is None: return None")
            return _Size(0, (f"len({c})",)), lambda segs: segs.raw(c)
        if kind == "nested":
            x = mod.name("v")
            fn.w(f"{x} = {expr}")
            return self._enc_dict(fn, spec.schema, x, obj)
        if kind == "strmap":
            c = mod.name("c")
            fn.w(f"{c} = _fstrmap({expr})")
            fn.w(f"if {c} is None: return None")
            return _Size(0, (f"len({c})",)), lambda segs: segs.raw(c)
        if kind == "seq":
            elem = spec.elem.kind
            c = mod.name("c")
            if elem == "int":
                fn.w(f"{c} = _fseq_int({expr})")
            elif elem == "str":
                fn.w(f"{c} = _fseq_str({expr})")
            elif elem == "nested":
                ename = self._elem_encoder(mod, spec.elem.schema, obj)
                layout = self._elem_layout.get(ename)
                if layout is None:
                    fn.w(f"{c} = _fseq_map({ename}, {expr})")
                else:
                    fn.w(f"{c} = _fseq_fixed({ename}, {layout}, {expr})")
            else:
                raise _Unsupported(f"seq of {elem}")
            fn.w(f"if {c} is None: return None")
            return _Size(0, (f"len({c})",)), lambda segs: segs.raw(c)
        raise _Unsupported(kind)

    def _elem_encoder(self, mod: _Mod, schema: Schema, obj: bool = False) -> str:
        got = self._elem_enc.get((schema.name, obj))
        if got is not None:
            return got
        fn = mod.fn("_eo" if obj else "_e", "x")
        self._elem_enc[(schema.name, obj)] = fn.name
        if schema.fields and all(spec.kind in _FIXED_CELLS for _key, spec in schema.fields):
            self._elem_layout[fn.name] = self._enc_fixed_dict(fn, schema, obj)
            fn.close()
            return fn.name
        size, emit = self._enc_dict(fn, schema, "x", obj)
        fn.w("P = []")
        fn.w("A = P.append")
        segs = _Segs(fn)
        emit(segs)
        segs.flush()
        fn.w("return b''.join(P)")
        fn.close()
        return fn.name

    def _enc_fixed_dict(self, fn: _Fn, schema: Schema, obj: bool = False) -> str:
        """Element body for a dict (with ``obj``, a dataclass) of only
        ``Int``/``F64`` fields; returns the name of its
        :class:`_RowLayout` constant, the same cells for the
        :class:`Rows` lane of ``_fseq_fixed``.

        The whole element is one ``pack``, so the guards are folded: one
        key-order (class) test, one unpack, one type expression, and
        the int64 range is left to ``pack`` itself (``struct.error``
        deoptimizes like any other guard).
        """
        names = [fn.mod.name("v") for _field in schema.fields]
        cells = [_FIXED_CELLS[spec.kind] for _key, spec in schema.fields]
        types = [
            _cls_ref(fn.mod, spec.enum) if obj and getattr(spec, "enum", None) else pytype
            for (_key, spec), (_t, _f, pytype) in zip(schema.fields, cells)
        ]
        if obj:
            fn.w(f"if type(x) is not {_cls_ref(fn.mod, schema.cls)}: return None")
            fn.w(f"{', '.join(names)} = {', '.join('x.' + attr for attr in schema.attrs)}")
        else:
            fn.w(f"if type(x) is not dict or tuple(x) != {schema.keys!r}: return None")
            fn.w(f"{', '.join(names)}, = x.values()")
        fn.w(
            "if "
            + " or ".join(f"type({x}) is not {pytype}" for x, pytype in zip(names, types))
            + ": return None"
        )
        _size, emit = self._dict_chunk([
            (key, _Size(9), lambda segs, x=x, tag=tag, fmt=fmt: (segs.const(tag), segs.scalar(fmt, x)))
            for (key, _spec), x, (tag, fmt, _p) in zip(schema.fields, names, cells)
        ])
        segs = _Segs(fn)
        emit(segs)
        # The run alternates a constant (tag; the first also the
        # directory) and a value cell: exactly what a row needs.
        consts = [fn.mod.const_bytes(payload) for kind, payload in segs.run if kind == "c"]
        codes = "".join(kind for kind, _payload in segs.run if kind != "c")
        fn.w(f"try: return {segs.take()}")
        fn.w("except _StructError: return None")
        return fn.mod.const(f"_RowLayout({schema.keys!r}, ({', '.join(consts)},), {codes!r})")

    # -- decode ------------------------------------------------------

    def _emit_decode(self, mod: _Mod, schema: Schema, lane: str = "tree") -> None:
        """``decode`` (the dict tree), or the route kernel: the same
        checks, returning the body's leaves (``lane="row"``,
        ``_row_return``) or the message dataclass (``lane="obj"``)."""
        fn = _Fn(mod, "decode" if lane == "tree" else "route", "data")
        # Every read's end is compared with ``N`` before it is made: a
        # short frame is declined, never read past.
        fn.w("N = len(data)")
        row = [] if lane == "row" else None
        off = _Off(None, 0)
        runs = _DecRuns(fn, off, "N")
        # The header (magic, root size, zero pad) opens the first fused
        # run; the root size is checked once every read is made.
        runs.const(b"FR\x01\x00")
        runs.capture("I", "rs")
        runs.const(b"\x00" * 8)
        result = self._dec_dict(fn, schema, runs, off, row, lane == "obj")
        runs.flush()
        fn.w("if 16 + rs > N: return None")
        fn.check_members()
        fn.w(f"return {result}" if row is None else _row_return(row))
        fn.close()

    def _dec_dict(
        self, fn: _Fn, schema: Schema, runs: _DecRuns, off: _Off,
        row: Optional[List[str]] = None, obj: bool = False,
    ) -> str:
        """The dict display (with ``obj``, the constructor call) of
        ``schema`` read at ``off``; its leaf expressions are also
        appended to ``row`` in wire order."""
        mod = fn.mod
        runs.const(b"\x08" + _I.pack(len(schema.fields)))
        dir_sizes: List[Optional[str]] = []
        field_sizes: List[_Size] = []
        analyzed = []
        probe = _SizeProbe(self)
        for key, spec in schema.fields:
            size = probe.size(spec)
            field_sizes.append(size)
            raw = key.encode("utf-8")
            runs.const(_H.pack(len(raw)) + raw)
            if size.fixed:
                runs.const(_I.pack(size.const))
                dir_sizes.append(None)
            else:
                s = mod.name("s")
                runs.capture("I", s)
                dir_sizes.append(s)
        exprs = []
        for (key, spec), s in zip(schema.fields, dir_sizes):
            expr = self._dec_field(fn, spec, runs, off, s, row, obj)
            exprs.append(expr)
            if row is not None and spec.kind != "nested":
                row.append(expr)
        return _construct(mod, schema, exprs, obj)

    def _dec_field(
        self, fn: _Fn, spec: Spec, runs: _DecRuns, off: _Off, s: Optional[str],
        row: Optional[List[str]] = None, obj: bool = False,
    ) -> str:
        mod = fn.mod
        kind = spec.kind
        if kind == "const_int":
            runs.const(b"\x03" + _Q.pack(spec.value))
            return str(spec.value)
        if kind == "int":
            x = mod.name("x")
            runs.const(b"\x03")
            runs.capture("q", x)
            return fn.member(spec.enum, x) if obj and spec.enum is not None else x
        if kind == "bool":
            t = mod.name("t")
            x = mod.name("x")
            runs.capture("B", t)
            runs.flush()
            fn.w(f"if {t} == 2: {x} = True")
            fn.w(f"elif {t} == 1: {x} = False")
            fn.w("else: return None")
            return x
        if kind == "f64":
            x = mod.name("x")
            runs.const(b"\x04")
            runs.capture("d", x)
            return x
        if kind in ("str", "bytes"):
            # The tag and the length word end the run before the value.
            l = mod.name("l")
            r = mod.name("r")
            runs.const(b"\x05" if kind == "str" else b"\x06")
            runs.capture("I", l)
            runs.flush()
            body = off.expr()
            if s is not None:
                fn.w(f"if {s} != 5 + {l}: return None")
            off.rebase(fn, f"{body} + {l}")
            fn.w(f"if {off.base} > N: return None")
            fn.w(f"{r} = data[{body}:{off.base}]")
            return fn.utf8(r) if kind == "str" else r
        if kind == "opt":
            q = mod.const_struct("<q")
            x = mod.name("x")
            t = mod.name("t")
            nxt = mod.name("o")
            runs.capture("B", t)
            runs.flush()
            body = off.expr()
            fn.w(f"if {t} == 0:")
            fn.w(f"    if {s} != 1: return None")
            fn.w(f"    {x} = None")
            fn.w(f"    {nxt} = {body}")
            fn.w(f"elif {t} == 3:")
            fn.w(f"    if {s} != 9 or {body} + 8 > N: return None")
            fn.w(f"    {x} = {q}.unpack_from(data, {body})[0]")
            fn.w(f"    {nxt} = {body} + 8")
            fn.w("else: return None")
            off.base = nxt
            off.k = 0
            return x
        if kind == "nested":
            if s is None:
                return self._dec_dict(fn, spec.schema, runs, off, row, obj)
            # A variable-size table: its directory size places every
            # field after it for the walker, so it must be the extent
            # the kernel read.
            begin = _Off(off.base, off.k + runs.width).expr()
            x = self._dec_dict(fn, spec.schema, runs, off, row, obj)
            runs.flush()
            fn.w(f"if {off.expr()} - ({begin}) != {s}: return None")
            return x
        if kind in ("seq", "strmap"):
            n = mod.name("n")
            x = mod.name("x")
            # The cell's start, before its tag and count join the run.
            start = _Off(off.base, off.k + runs.width).expr()
            runs.const(b"\x08" if kind == "strmap" else b"\x07")
            runs.capture("I", n)
            runs.flush()
            body = off.expr()
            if kind == "strmap":
                r = mod.name("r")
                nxt = mod.name("o")
                fn.w(f"{r} = _dfstrmap(data, {body}, {n}, N)")
                fn.w(f"if {r} is None: return None")
                fn.w(f"{x}, {nxt} = {r}")
                fn.w(f"if {nxt} - ({start}) != {s}: return None")
                off.base = nxt
                off.k = 0
                return x
            elem = spec.elem.kind
            if elem == "int":
                sz9 = mod.const_bytes(_SZ9)
                fn.w(f"if {s} != 5 + 13 * {n}: return None")
                fn.w(f"if data[{body}:{body} + 4 * {n}] != {sz9} * {n}: return None")
                fn.w(f"{x} = _dfseq_int(data, {body} + 4 * {n}, {n})")
                fn.w(f"if {x} is None: return None")
                off.rebase(fn, f"{body} + 13 * {n}")
                return x
            if elem == "str":
                call = f"_dfseq_str(data, {body}, {n}, N)"
            elif elem == "nested":
                dname = self._elem_decoder(mod, spec.elem.schema, obj)
                call = f"_dfseq_map({dname}, data, {body}, {n}, N)"
            else:
                raise _Unsupported(f"seq of {elem}")
            r = mod.name("r")
            nxt = mod.name("o")
            fn.w(f"{r} = {call}")
            fn.w(f"if {r} is None: return None")
            fn.w(f"{x}, {nxt} = {r}")
            fn.w(f"if {nxt} - ({start}) != {s}: return None")
            off.base = nxt
            off.k = 0
            return x
        raise _Unsupported(kind)

    def _elem_decoder(self, mod: _Mod, schema: Schema, obj: bool = False) -> str:
        got = self._elem_dec.get((schema.name, obj))
        if got is not None:
            return got
        fn = mod.fn("_do" if obj else "_d", "data, o0, N")
        self._elem_dec[(schema.name, obj)] = fn.name
        off = _Off("o0", 0)
        runs = _DecRuns(fn, off, "N")
        result = self._dec_dict(fn, schema, runs, off, obj=obj)
        runs.flush()
        fn.check_members()
        fn.w(f"return {result}, {off.expr()}")
        fn.close()
        return fn.name


class _SizeProbe:
    """Computes a field's encoded-size expression shape (fixed or not)
    without emitting code; mirrors the encode-side size model."""

    def __init__(self, emitter) -> None:
        self.emitter = emitter

    def size(self, spec: Spec) -> _Size:
        kind = spec.kind
        if kind in ("int", "const_int", "f64"):
            return _Size(9)
        if kind == "bool":
            return _Size(1)
        if kind == "nested":
            total = _Size(5)
            for key, child in spec.schema.fields:
                child_size = self.size(child)
                total = total + _Size(6 + len(key.encode("utf-8"))) + child_size
            return total
        # str, bytes, opt, seq, strmap are runtime-sized
        return _Size(0, ("?",))




class _PerEmitter:
    """Emits PER-codec kernels (codec name ``"asn"``).

    Cell model: every dict-entry value is an *aligned cell* — the
    writer's lazy alignment means each cell self-pads before the next
    key's length determinant — so constant regions (tags, counts, key
    cells, constant ints) fold into literal bytes.  Only inside lists
    do elements pack nibble-tight; those go through the phase-tracking
    helpers or generated per-element functions threading ``(ph, pd)``.
    """

    codec_name = "asn"

    def build(self, schema: Schema) -> _Mod:
        mod = _Mod(f"asn {schema.name}")
        self._elem_enc: Dict[Tuple[str, bool], str] = {}
        self._elem_dec: Dict[Tuple[str, bool], str] = {}
        _emit_lanes(self, mod, schema)
        return mod

    # -- encode ------------------------------------------------------

    def _emit_encode(self, mod: _Mod, schema: Schema, obj: bool = False) -> None:
        """``encode(V)``, or with ``obj`` ``encode_msg(m)`` (as on ``fb``)."""
        fn = _Fn(mod, "encode_msg", "m") if obj else _Fn(mod, "encode", "V")
        emit = self._enc_dict(fn, schema, "m" if obj else "V", obj)
        fn.w("P = []")
        fn.w("A = P.append")
        segs = _Segs(fn)
        emit(segs)
        segs.flush()
        fn.w("return b''.join(P)")
        fn.close()

    def _enc_dict(self, fn: _Fn, schema: Schema, expr: str, obj: bool = False) -> Callable:
        count = len(schema.fields)
        if count >= 0x80:
            raise _Unsupported("dict too wide")
        entries = []
        for key, spec, x in _struct_fields(fn, schema, expr, obj):
            kraw = key.encode("utf-8")
            if len(kraw) >= 0x80:
                raise _Unsupported("key too long")
            field_emit = self._enc_field(fn, spec, x, obj)
            entries.append((kraw, field_emit))

        def emit(segs: _Segs) -> None:
            segs.const(b"\x80" + _B1[count])
            for kraw, field_emit in entries:
                segs.const(_B1[len(kraw)] + kraw)
                field_emit(segs)

        return emit

    def _enc_field(self, fn: _Fn, spec: Spec, expr: str, obj: bool = False) -> Callable:
        mod = fn.mod
        kind = spec.kind
        if kind == "const_int":
            cell = _pint(spec.value)
            return lambda segs: segs.const(cell)
        if kind == "int":
            x = mod.name("v")
            fn.w(f"{x} = {expr}")
            fn.w(f"if type({x}) is not {self._int_type(fn, spec, obj)}: return None")
            return lambda segs: segs.raw(f"_pint({x})")
        if kind == "bool":
            x = mod.name("v")
            fn.w(f"{x} = {expr}")
            fn.w(f"if {x} is not True and {x} is not False: return None")
            return lambda segs: segs.raw(f"(b'\\x20' if {x} else b'\\x10')")
        if kind == "f64":
            x = mod.name("v")
            d8 = mod.const_struct(">d")
            fn.w(f"{x} = {expr}")
            fn.w(f"if type({x}) is not float: return None")
            return lambda segs: (
                segs.const(b"\x40"), segs.raw(f"{d8}.pack({x})")
            )
        if kind == "str":
            x = mod.name("v")
            r = mod.name("r")
            fn.w(f"{x} = {expr}")
            fn.w(f"if type({x}) is not str: return None")
            fn.w(f"{r} = {x}.encode('utf-8')")
            return lambda segs: (
                segs.const(b"\x50"), segs.raw(f"_poct({r})")
            )
        if kind == "bytes":
            x = mod.name("v")
            fn.w(f"{x} = {expr}")
            fn.w(f"if type({x}) is not bytes: return None")
            return lambda segs: (
                segs.const(b"\x60"), segs.raw(f"_poct({x})")
            )
        if kind == "opt":
            if spec.inner.kind != "int":
                raise _Unsupported("opt of non-int")
            c = mod.name("c")
            fn.w(f"{c} = _popt_int({expr})")
            fn.w(f"if {c} is None: return None")
            return lambda segs: segs.raw(c)
        if kind == "nested":
            x = mod.name("v")
            fn.w(f"{x} = {expr}")
            return self._enc_dict(fn, spec.schema, x, obj)
        if kind == "strmap":
            x = mod.name("v")
            fn.w(f"{x} = {expr}")
            fn.w(f"if type({x}) is not dict: return None")
            return lambda segs: (
                segs.const(b"\x80"),
                segs.raw(f"_vlb(len({x}))"),
                segs.stmt(f"if not _pstrmap(P, {x}): return None"),
            )
        if kind == "seq":
            x = mod.name("v")
            fn.w(f"{x} = {expr}")
            elem = spec.elem.kind
            if elem == "nested" and obj:
                ename = self._elem_encoder(fn.mod, spec.elem.schema, obj)
                fn.w(f"if type({x}) is not list: return None")
                tail = lambda segs: segs.stmt(f"if not _pseq_objs(P, {ename}, {x}): return None")
            elif elem == "nested":
                ename = self._elem_encoder(fn.mod, spec.elem.schema)
                keys = mod.const(repr(spec.elem.schema.keys))
                fn.w(
                    f"if type({x}) is not list and (type({x}) is not _Rows "
                    f"or {x}.keys != {keys}): return None"
                )
                tail = lambda segs: segs.stmt(
                    f"if not _pseq_rows(P, {ename}, {keys}, {x}): return None"
                )
            else:
                fn.w(f"if type({x}) is not list: return None")
                if elem == "int":
                    tail = lambda segs: segs.stmt(
                        f"if not _pseq_int(P, {x}): return None"
                    )
                elif elem == "str":
                    tail = lambda segs: segs.stmt(
                        f"if not _pseq_str(P, {x}): return None"
                    )
                else:
                    raise _Unsupported(f"seq of {elem}")
            return lambda segs: (
                segs.const(b"\x70"),
                segs.raw(f"_vlb(len({x}))"),
                tail(segs),
            )
        raise _Unsupported(kind)

    def _int_type(self, fn: _Fn, spec: Spec, obj: bool) -> str:
        return _cls_ref(fn.mod, spec.enum) if obj and spec.enum is not None else "int"

    def _elem_encoder(self, mod: _Mod, schema: Schema, obj: bool = False) -> str:
        got = self._elem_enc.get((schema.name, obj))
        if got is not None:
            return got
        if not schema.fields:
            raise _Unsupported("empty seq element")
        # Fields arrive positionally, in wire order: the sequence checked
        # a Rows' keys once, and ``_pseq_rows`` checks each dict's.  On
        # the object lane the element itself arrives and is read here.
        args = [f"a{index}" for index in range(len(schema.fields))]
        if obj:
            fn = mod.fn("_po", "P, ph, pd, x")
            fn.w(f"if type(x) is not {_cls_ref(mod, schema.cls)}: return None")
            fn.w(f"{', '.join(args)} = {', '.join('x.' + attr for attr in schema.attrs)}")
        else:
            fn = mod.fn("_pe", "P, ph, pd, " + ", ".join(args))
        self._elem_enc[(schema.name, obj)] = fn.name
        emits = []
        for (key, spec), arg in zip(schema.fields[:-1], args):
            emits.append((key.encode("utf-8"), self._enc_field(fn, spec, arg, obj)))
        last_key, last_spec = schema.fields[-1]
        last = self._enc_last(fn, last_spec, args[-1], obj)
        fn.w("A = P.append")
        fn.w("if ph:")
        fn.w(f"    A(_B1[(pd << 4) | 8])")
        fn.w("else:")
        fn.w(f"    A({fn.mod.const_bytes(_B1[0x80])})")
        segs = _Segs(fn)
        segs.const(_B1[len(schema.fields)])
        for kraw, field_emit in emits:
            segs.const(_B1[len(kraw)] + kraw)
            field_emit(segs)
        lraw = last_key.encode("utf-8")
        segs.const(_B1[len(lraw)] + lraw)
        last(segs)
        fn.close()
        return fn.name

    def _enc_last(self, fn: _Fn, spec: Spec, expr: str, obj: bool = False) -> Callable:
        """The final field of a list element: its trailing pad nibble
        belongs to the next element, so it may end mid-byte and returns
        the (phase, pending-nibble) pair instead of self-padding."""
        mod = fn.mod
        kind = spec.kind
        x = mod.name("v")
        fn.w(f"{x} = {expr}")
        if kind == "int":
            fn.w(f"if type({x}) is not {self._int_type(fn, spec, obj)}: return None")
            m = mod.name("m")

            def emit(segs: _Segs) -> None:
                segs.stmt(f"if 0 <= {x} < 64:")
                segs.stmt(f"    A(_B1[0x34 | ({x} >> 4)])")
                segs.stmt(f"    return (4, {x} & 0xF)")
                segs.stmt(f"if -64 < {x} < 0:")
                segs.stmt(f"    {m} = -{x}")
                segs.stmt(f"    A(_B1[0x3C | ({m} >> 4)])")
                segs.stmt(f"    return (4, {m} & 0xF)")
                segs.stmt(f"A(_pint({x}))")
                segs.stmt("return (0, 0)")

            return emit
        if kind == "bool":
            fn.w(f"if {x} is not True and {x} is not False: return None")

            def emit(segs: _Segs) -> None:
                segs.stmt(f"return (4, 2 if {x} else 1)")

            return emit
        if kind == "str":
            r = mod.name("r")
            fn.w(f"if type({x}) is not str: return None")
            fn.w(f"{r} = {x}.encode('utf-8')")

            def emit(segs: _Segs) -> None:
                segs.const(b"\x50")
                segs.raw(f"_poct({r})")
                segs.stmt("return (0, 0)")

            return emit
        if kind == "bytes":
            fn.w(f"if type({x}) is not bytes: return None")

            def emit(segs: _Segs) -> None:
                segs.const(b"\x60")
                segs.raw(f"_poct({x})")
                segs.stmt("return (0, 0)")

            return emit
        if kind == "f64":
            d8 = mod.const_struct(">d")
            fn.w(f"if type({x}) is not float: return None")

            def emit(segs: _Segs) -> None:
                segs.const(b"\x40")
                segs.raw(f"{d8}.pack({x})")
                segs.stmt("return (0, 0)")

            return emit
        raise _Unsupported(f"element tail {kind}")

    # -- decode ------------------------------------------------------

    def _emit_decode(self, mod: _Mod, schema: Schema, lane: str = "tree") -> None:
        """``decode``, or the route kernel of ``lane`` (as on ``fb``)."""
        fn = _Fn(mod, "decode" if lane == "tree" else "route", "data")
        # Every single-byte read is compared with ``N`` before it is
        # made, as on ``fb``: a short frame is declined, never read past.
        fn.w("N = len(data)")
        row = [] if lane == "row" else None
        off = _Off(None, 0)
        runs = _DecRuns(fn, off)
        result = self._dec_dict(fn, schema, runs, off, row, lane == "obj")
        runs.flush()
        fn.check_members()
        fn.w(f"return {result}" if row is None else _row_return(row))
        fn.close()

    def _mask(
        self, fn: _Fn, runs: _DecRuns, off: _Off, mask: int, want: int, need: int = 1
    ) -> None:
        """Check the tag bits at ``off``, which ``need`` bytes must fit after."""
        runs.flush()
        end = _Off(off.base, off.k + need).expr()
        fn.w(f"if {end} > N or data[{off.expr()}] & {mask:#x} != {want:#x}: return None")
        off.advance(1)

    def _dec_dict(
        self, fn: _Fn, schema: Schema, runs: _DecRuns, off: _Off,
        row: Optional[List[str]] = None, obj: bool = False,
    ) -> str:
        runs.const(b"\x80" + _B1[len(schema.fields)])
        exprs = []
        for key, spec in schema.fields:
            kraw = key.encode("utf-8")
            runs.const(_B1[len(kraw)] + kraw)
            expr = self._dec_field(fn, spec, runs, off, row, obj)
            exprs.append(expr)
            if row is not None and spec.kind != "nested":
                row.append(expr)
        return _construct(fn.mod, schema, exprs, obj)

    def _dec_field(
        self, fn: _Fn, spec: Spec, runs: _DecRuns, off: _Off,
        row: Optional[List[str]] = None, obj: bool = False,
    ) -> str:
        mod = fn.mod
        kind = spec.kind
        if kind == "const_int":
            cell = _pint(spec.value)
            if -64 < spec.value < 64:
                runs.const(cell[:1])
                self._mask(fn, runs, off, 0xF0, cell[1])
            else:
                self._mask(fn, runs, off, 0xFC, cell[0] & 0xFC)
                runs.const(cell[1:])
            return str(spec.value)
        if kind == "int":
            x = self._dec_int(fn, runs, off)
            return fn.member(spec.enum, x) if obj and spec.enum is not None else x
        if kind == "bool":
            runs.flush()
            t = mod.name("t")
            x = mod.name("x")
            fn.w(f"if {_Off(off.base, off.k + 1).expr()} > N: return None")
            fn.w(f"{t} = data[{off.expr()}] >> 4")
            fn.w(f"if {t} == 2: {x} = True")
            fn.w(f"elif {t} == 1: {x} = False")
            fn.w("else: return None")
            off.advance(1)
            return x
        if kind == "f64":
            self._mask(fn, runs, off, 0xF0, 0x40, 9)
            d8 = mod.const_struct(">d")
            x = mod.name("x")
            fn.w(f"{x} = {d8}.unpack_from(data, {off.expr()})[0]")
            off.advance(8)
            return x
        if kind in ("str", "bytes"):
            want = 0x50 if kind == "str" else 0x60
            self._mask(fn, runs, off, 0xF0, want)
            r = mod.name("r")
            raw = mod.name("w")
            nxt = mod.name("o")
            fn.w(f"{r} = _doct(data, {off.expr()}, N)")
            fn.w(f"if {r} is None: return None")
            fn.w(f"{raw}, {nxt} = {r}")
            off.base = nxt
            off.k = 0
            return fn.utf8(raw) if kind == "str" else raw
        if kind == "opt":
            runs.flush()
            b = mod.name("b")
            x = mod.name("x")
            nxt = mod.name("o")
            start = off.expr()
            fn.w(f"if {start} + 1 > N: return None")
            fn.w(f"{b} = data[{start}]")
            fn.w(f"if {b} & 0xF0 == 0:")
            fn.w(f"    {x} = None")
            fn.w(f"    {nxt} = {start} + 1")
            fn.w(f"elif {b} & 0xF4 == 0x34:")
            fn.w(f"    if {start} + 2 > N: return None")
            fn.w(f"    {x} = (({b} & 3) << 4) | (data[{start} + 1] >> 4)")
            fn.w(f"    if {b} & 8: {x} = -{x}")
            fn.w(f"    {nxt} = {start} + 2")
            fn.w(f"elif {b} & 0xF4 == 0x30:")
            self._dec_int_long(fn, b, x, nxt, f"{start} + 1", indent=1)
            fn.w("else: return None")
            off.base = nxt
            off.k = 0
            return x
        if kind == "nested":
            return self._dec_dict(fn, spec.schema, runs, off, row, obj)
        if kind == "strmap":
            self._mask(fn, runs, off, 0xF0, 0x80)
            r = mod.name("r")
            n = mod.name("n")
            o = mod.name("o")
            x = mod.name("x")
            fn.w(f"{r} = _dvl(data, {off.expr()}, N)")
            fn.w(f"if {r} is None: return None")
            fn.w(f"{n}, {o} = {r}")
            fn.w(f"{r} = _dpstrmap(data, {o}, {n}, N)")
            fn.w(f"if {r} is None: return None")
            fn.w(f"{x}, {o} = {r}")
            off.base = o
            off.k = 0
            return x
        if kind == "seq":
            self._mask(fn, runs, off, 0xF0, 0x70)
            r = mod.name("r")
            n = mod.name("n")
            o = mod.name("o")
            x = mod.name("x")
            fn.w(f"{r} = _dvl(data, {off.expr()}, N)")
            fn.w(f"if {r} is None: return None")
            fn.w(f"{n}, {o} = {r}")
            elem = spec.elem.kind
            if elem == "int":
                fn.w(f"{r} = _dpseq_int(data, {o}, {n}, N)")
            elif elem == "str":
                fn.w(f"{r} = _dpseq_str(data, {o}, {n}, N)")
            elif elem == "nested":
                dname = self._elem_decoder(mod, spec.elem.schema, obj)
                ph = mod.name("ph")
                v = mod.name("e")
                fn.w(f"{x} = []")
                fn.w(f"{ph} = 0")
                fn.w(f"for _ in range({n}):")
                fn.w(f"    {r} = {dname}(data, {o}, {ph}, N)")
                fn.w(f"    if {r} is None: return None")
                fn.w(f"    {v}, {o}, {ph} = {r}")
                fn.w(f"    {x}.append({v})")
                fn.w(f"if {ph}: {o} += 1")
                off.base = o
                off.k = 0
                return x
            else:
                raise _Unsupported(f"seq of {elem}")
            fn.w(f"if {r} is None: return None")
            fn.w(f"{x}, {o} = {r}")
            off.base = o
            off.k = 0
            return x
        raise _Unsupported(kind)

    def _dec_int(self, fn: _Fn, runs: _DecRuns, off: _Off) -> str:
        mod = fn.mod
        runs.flush()
        b = mod.name("b")
        x = mod.name("x")
        nxt = mod.name("o")
        start = off.expr()
        # Both forms of an int cell take at least two bytes.
        fn.w(f"if {start} + 2 > N: return None")
        fn.w(f"{b} = data[{start}]")
        fn.w(f"if {b} & 0xF4 == 0x34:")
        fn.w(f"    {x} = (({b} & 3) << 4) | (data[{start} + 1] >> 4)")
        fn.w(f"    if {b} & 8: {x} = -{x}")
        fn.w(f"    {nxt} = {start} + 2")
        fn.w(f"elif {b} & 0xF4 == 0x30:")
        self._dec_int_long(fn, b, x, nxt, f"{start} + 1", indent=1)
        fn.w("else: return None")
        off.base = nxt
        off.k = 0
        return x

    def _dec_int_long(
        self, fn: _Fn, b: str, x: str, nxt: str, at: str, indent: int
    ) -> None:
        mod = fn.mod
        pad = "    " * indent
        r = mod.name("r")
        ln = mod.name("l")
        raw = mod.name("w")
        fn.w(f"{pad}{r} = _dvl(data, {at}, N)")
        fn.w(f"{pad}if {r} is None: return None")
        fn.w(f"{pad}{ln}, {nxt} = {r}")
        fn.w(f"{pad}{raw} = data[{nxt}:{nxt} + {ln}]")
        fn.w(f"{pad}if len({raw}) != {ln}: return None")
        fn.w(f"{pad}{x} = int.from_bytes({raw}, 'big')")
        fn.w(f"{pad}if {b} & 8: {x} = -{x}")
        fn.w(f"{pad}{nxt} += {ln}")

    def _elem_decoder(self, mod: _Mod, schema: Schema, obj: bool = False) -> str:
        got = self._elem_dec.get((schema.name, obj))
        if got is not None:
            return got
        if not schema.fields:
            raise _Unsupported("empty seq element")
        fn = mod.fn("_qo" if obj else "_qe", "data, o, ph, N")
        self._elem_dec[(schema.name, obj)] = fn.name
        fn.w("if o + 2 > N: return None")
        fn.w("if ph:")
        fn.w("    if data[o] & 0xF != 8: return None")
        fn.w("else:")
        fn.w("    if data[o] != 0x80: return None")
        fn.w(f"if data[o + 1] != {len(schema.fields)}: return None")
        base = mod.name("o")
        fn.w(f"{base} = o + 2")
        off = _Off(base, 0)
        runs = _DecRuns(fn, off)
        exprs = []
        for key, spec in schema.fields[:-1]:
            kraw = key.encode("utf-8")
            runs.const(_B1[len(kraw)] + kraw)
            exprs.append(self._dec_field(fn, spec, runs, off, obj=obj))
        last_key, last_spec = schema.fields[-1]
        lraw = last_key.encode("utf-8")
        runs.const(_B1[len(lraw)] + lraw)
        runs.flush()
        kind = last_spec.kind
        start = off.expr()
        if kind == "int":
            b = mod.name("b")
            x = mod.name("x")
            nxt = mod.name("o")
            phx = mod.name("ph")
            fn.w(f"if {start} + 2 > N: return None")
            fn.w(f"{b} = data[{start}]")
            fn.w(f"if {b} & 0xF4 == 0x34:")
            fn.w(f"    {x} = (({b} & 3) << 4) | (data[{start} + 1] >> 4)")
            fn.w(f"    if {b} & 8: {x} = -{x}")
            fn.w(f"    {nxt} = {start} + 1")
            fn.w(f"    {phx} = 4")
            fn.w(f"elif {b} & 0xF4 == 0x30:")
            self._dec_int_long(fn, b, x, nxt, f"{start} + 1", indent=1)
            fn.w(f"    {phx} = 0")
            fn.w("else: return None")
            exprs.append(fn.member(last_spec.enum, x) if obj and last_spec.enum is not None else x)
            tail = f"{nxt}, {phx}"
        elif kind == "bool":
            t = mod.name("t")
            x = mod.name("x")
            fn.w(f"if {start} + 1 > N: return None")
            fn.w(f"{t} = data[{start}] >> 4")
            fn.w(f"if {t} == 2: {x} = True")
            fn.w(f"elif {t} == 1: {x} = False")
            fn.w("else: return None")
            exprs.append(x)
            tail = f"{start}, 4"
        elif kind in ("str", "bytes"):
            want = 0x50 if kind == "str" else 0x60
            r = mod.name("r")
            raw = mod.name("w")
            nxt = mod.name("o")
            fn.w(f"if {start} + 1 > N or data[{start}] & 0xF0 != {want:#x}: return None")
            fn.w(f"{r} = _doct(data, {start} + 1, N)")
            fn.w(f"if {r} is None: return None")
            fn.w(f"{raw}, {nxt} = {r}")
            exprs.append(fn.utf8(raw) if kind == "str" else raw)
            tail = f"{nxt}, 0"
        elif kind == "f64":
            d8 = mod.const_struct(">d")
            x = mod.name("x")
            fn.w(f"if {start} + 9 > N or data[{start}] & 0xF0 != 0x40: return None")
            fn.w(f"{x} = {d8}.unpack_from(data, {start} + 1)[0]")
            exprs.append(x)
            tail = f"{start} + 9, 0"
        else:
            raise _Unsupported(f"element tail {kind}")
        fn.check_members()
        fn.w(f"return {_construct(mod, schema, exprs, obj)}, {tail}")
        fn.close()
        return fn.name


# -- the route lanes -------------------------------------------------
# ``decode_route`` hands every E2AP message over as its dataclass, and
# one class as a *row*: the tuple of its body's leaves in wire order, no
# object built.  Every envelope kernel has a ``route`` entry point for
# it; the walker builds the same answer off the body through
# :func:`routed`.  ``Codec.decode_route`` (:func:`_router`) is the one
# place that picks.

#: (RIC_INDICATION, INITIATING): the message the ingest hot path routes.
ROW_ROUTED = (5, 0)
_ROW_SCHEMA = "envelope_%d_%d" % ROW_ROUTED


def _row_return(row: List[str]) -> str:
    """The route kernel's return: the body's leaves, not the envelope's
    two constant discriminators (the dispatch has read them)."""
    return f"return ({', '.join(row[2:])},)"


@functools.lru_cache(maxsize=None)
def _row_reader() -> Callable[[Any], tuple]:
    """``body → row`` for the lanes without a route kernel, generated
    from the schema the route kernels are: nested structs unrolled into
    locals, one tuple display of every leaf."""
    lines = ["def row(v0):"]
    leaves: List[str] = []

    def walk(var: str, sch: Schema) -> None:
        for key, spec in sch.fields:
            if spec.kind == "nested":
                sub = f"v{len(lines)}"
                lines.append(f"    {sub} = {var}[{key!r}]")
                walk(sub, spec.schema)
            else:
                leaves.append(f"{var}[{key!r}]")

    walk("v0", _schema.message_schema(*ROW_ROUTED))
    lines.append(f"    return ({', '.join(leaves)},)")
    ns: Dict[str, Any] = {}
    exec(compile("\n".join(lines), "<row reader>", "exec"), ns)
    return ns["row"]


def envelope(tree) -> Tuple[int, int, Any]:
    """``(p, c, v)`` of a walked E2AP envelope; a tree without two int
    discriminators and a body is refused with :class:`CodecError`."""
    try:
        procedure, msg_class, body = tree["p"], tree["c"], tree["v"]
    except (KeyError, TypeError) as exc:
        raise CodecError(f"not an E2AP envelope: {exc!r}") from exc
    if type(procedure) is not int or type(msg_class) is not int:
        raise CodecError(f"E2AP discriminators are not ints: {procedure!r}, {msg_class!r}")
    return procedure, msg_class, body


def routed(procedure, msg_class, body) -> Tuple[Any, Any, Any]:
    """``decode_route``'s answer off the walker's body (kernels off, a
    frame the kernel declines, ``pb``): a :data:`ROW_ROUTED` body as the
    row the route kernels return, a registered message's body as its
    dataclass (``from_value``), a body of an unknown pair as it is.  A
    body that does not fit raises :class:`CodecError` naming its class
    and wire field here, inside the caller's containment."""
    if (procedure, msg_class) == ROW_ROUTED:
        try:
            return procedure, msg_class, _row_reader()(body)
        except (KeyError, TypeError) as exc:
            cls = _schema.message_schema(*ROW_ROUTED).cls
            raise _schema.conversion_error(cls, body, exc) from exc
    sch = _schema.message_schema(procedure, msg_class)
    if sch is None:
        return procedure, msg_class, body
    return procedure, msg_class, sch.cls.from_value(body)


# -- kernel cache and dispatch ---------------------------------------

_EMITTERS = {
    "fb": _FlatEmitter(),
    "asn": _PerEmitter(),
}

#: the codecs that have kernels; any other ("pb") stays on its walker.
CODECS = tuple(_EMITTERS)


class Kernel:
    """A compiled (schema × codec) pair: generated source + entry points
    (an E2AP envelope has ``encode_msg`` and ``route``, a payload
    ``encode`` and ``decode``; the other two are None)."""

    __slots__ = ("name", "source", "encode", "decode", "encode_msg", "route")

    def __init__(self, name: str, source: str, encode, decode, encode_msg, route) -> None:
        self.name = name
        self.source = source
        self.encode = encode
        self.decode = decode
        self.encode_msg = encode_msg
        self.route = route

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Kernel {self.name}>"


#: ("env", codec, procedure, msg_class) | ("pay", codec, name) → Kernel|None
_KERNELS: Dict[Tuple, Optional[Kernel]] = {}


def build_kernel_source(codec_name: str, schema: Schema) -> Optional[str]:
    """Render the kernel source for a schema (fresh every call; the CI
    determinism gate diffs two renders).  None if unsupported."""
    try:
        return _EMITTERS[codec_name].build(schema).render()
    except _Unsupported:
        return None


def _build(codec_name: str, schema: Schema) -> Optional[Kernel]:
    emitter = _EMITTERS.get(codec_name)
    if emitter is None:  # interpretive-only codec ("pb", vendor schemes)
        return None
    try:
        mod = emitter.build(schema)
        source = mod.render()
        ns = mod.compile()
    except _Unsupported:
        return None
    return Kernel(
        schema.name, source,
        ns.get("encode"), ns.get("decode"), ns.get("encode_msg"), ns.get("route"),
    )


def envelope_kernel(codec_name: str, procedure: int, msg_class: int):
    key = ("env", codec_name, procedure, msg_class)
    try:
        return _KERNELS[key]
    except KeyError:
        pass
    sch = _schema.envelope_schema(procedure, msg_class)
    if sch is None:
        # The pair came off the wire: caching it would let a peer grow
        # the table without bound.  Only registered pairs are kept.
        return None
    # Builds are deterministic, so a concurrent duplicate is identical.
    return _KERNELS.setdefault(key, _build(codec_name, sch))


def payload_kernel(codec_name: str, name: str):
    key = ("pay", codec_name, name)
    try:
        return _KERNELS[key]
    except KeyError:
        pass
    sch = _schema.payload_schema(name)
    kern = _build(codec_name, sch) if sch is not None else None
    return _KERNELS.setdefault(key, kern)


# -- envelope probes (decode-side schema discovery) ------------------
# Each probe reads the constant envelope prefix straight off the wire
# to recover (procedure, msg_class) without a generic decode.

_ENV_FB = (
    b"\x08\x03\x00\x00\x00"
    b"\x01\x00p\x09\x00\x00\x00"
    b"\x01\x00c\x09\x00\x00\x00"
    b"\x01\x00v"
)
_PAIR = struct.Struct("<bqbq")


def _probe_fb(data):
    if len(data) < 60 or data[:4] != b"FR\x01\x00":
        return None
    if data[16:38] != _ENV_FB:
        return None
    t1, p, t2, c = _PAIR.unpack_from(data, 42)
    if t1 != 3 or t2 != 3:
        return None
    return p, c


def _probe_asn(data):
    if len(data) < 10 or data[0] != 0x80 or data[1] != 3:
        return None
    if data[2] != 1 or data[3] != 0x70:  # key "p"
        return None
    b = data[4]
    if b & 0xF4 != 0x34 or b & 8:
        return None
    p = ((b & 3) << 4) | (data[5] >> 4)
    if data[6] != 1 or data[7] != 0x63:  # key "c"
        return None
    b = data[8]
    if b & 0xF4 != 0x34 or b & 8:
        return None
    c = ((b & 3) << 4) | (data[9] >> 4)
    return p, c


_PROBES = {"fb": _probe_fb, "asn": _probe_asn}


# -- codec-facing entry points ---------------------------------------


#: codec → exact message class → its envelope kernel's ``encode_msg``
#: (None: no kernel).  Only registered classes are kept, so the table
#: never outgrows the registry; a codec without kernels has no table.
_ENCODE_MSG: Dict[str, Dict[type, Optional[Callable]]] = {"fb": {}, "asn": {}}


def _encoder_miss(codec_name: str, cls: type) -> Optional[Callable]:
    sch = _schema.message_schema(cls.procedure, cls.msg_class)
    if sch is None or sch.cls is not cls:
        return None
    kern = envelope_kernel(codec_name, cls.procedure, cls.msg_class)
    encode_msg = None if kern is None else kern.encode_msg
    _ENCODE_MSG[codec_name][cls] = encode_msg
    return encode_msg


def kernel_encode_msg(codec_name: str, msg) -> Optional[bytes]:
    """Encode an E2AP message dataclass straight from its attributes via
    its envelope kernel, or None for the walker (kernels off, a codec
    without kernels, a message the kernel declines).  A kernel that ran
    counts a hit, or a decline in ``codec.kernel.encode_fallbacks``."""
    if not ENABLED:
        return None
    encoders = _ENCODE_MSG.get(codec_name)
    if encoders is None:
        return None
    try:
        encode_msg = encoders[type(msg)]
    except KeyError:
        encode_msg = _encoder_miss(codec_name, type(msg))
    if encode_msg is None:
        return None
    out = encode_msg(msg)
    if out is None:
        _enc_fall()
    else:
        _enc_hit()
    return out


class _Routes:
    """One codec's route dispatch: the octets of an envelope's ``p`` and
    ``c`` cells → ``(procedure, msg_class, route kernel)``.

    One slice and one dict hit pick the kernel, with no validation in
    front of it: the kernel checks every byte the probe would (they are
    constants of its envelope).  A miss asks the probe, and an entry is
    kept only for a registered pair whose cells are exactly what its
    encoder writes, so the table never outgrows the registry whatever a
    peer sends."""

    __slots__ = ("name", "cells", "canonical", "probe", "table")

    def __init__(self, name: str, cells: slice, canonical: Callable[[int, int], bytes]) -> None:
        self.name = name
        self.cells = cells
        self.canonical = canonical
        self.probe = _PROBES[name]
        self.table: Dict[bytes, Tuple[int, int, Callable]] = {}

    def miss(self, data, cells: bytes):
        pc = self.probe(data)
        if pc is None:
            return None
        kern = envelope_kernel(self.name, pc[0], pc[1])
        if kern is None or kern.route is None:
            return None
        entry = (pc[0], pc[1], kern.route)
        if cells == self.canonical(*pc):
            self.table[cells] = entry
        return entry


_ROUTES = {
    "fb": _Routes("fb", slice(42, 60), lambda p, c: _PAIR.pack(3, p, 3, c)),
    "asn": _Routes("asn", slice(4, 10), lambda p, c: _PSP[p] + b"\x01c" + _PSP[c]),
}


def _router(codec: Codec) -> Callable[[Any], Tuple[Any, Any, Any]]:
    """``codec.decode_route``, built once per codec: its route table's
    ``get``, the cell slice, the probe's miss and the counters are bound
    in the closure, so a frame pays no attribute or table lookup before
    its kernel runs."""
    routes = _ROUTES.get(codec.name)
    kernels = routes is not None
    cells = get = miss = None
    if kernels:
        cells, get, miss = routes.cells, routes.table.get, routes.miss
    hit, fall, copied = _dec_hit, _dec_fall, _copied

    def decode_route(data) -> Tuple[Any, Any, Any]:
        """``(procedure, msg_class, body)`` of an E2AP frame on any
        codec: a registered message as its dataclass, a
        ``RicIndication`` as its row, the body of an unknown pair as
        the walker reads it.

        The route kernel answers first: ``(p, c)`` is read once
        (:class:`_Routes`) and picks it.  Kernels off, a codec without
        kernels (``pb``) or a frame no kernel takes go to the walker and
        :func:`routed`.  A frame that is not a well-formed E2AP message
        raises :class:`CodecError`, whichever lane read it.  A buffer
        that is not ``bytes`` is copied once (``bytes.copied``): what is
        routed owns its octets, whatever the caller does with the
        buffer afterwards."""
        if type(data) is not bytes:
            data = bytes(data)  # repro-lint: disable=RL007 — the message must not alias a mutable buffer
            copied()
        if ENABLED and kernels:
            key = data[cells]
            entry = get(key) or miss(data, key)
            if entry is not None:
                out = entry[2](data)
                if out is not None:
                    hit()
                    return entry[0], entry[1], out
                fall()
        return routed(*envelope(codec.decode(data)))

    return decode_route


#: read as ``codec.decode_route``: the codec's router, built on the
#: first read and kept on the instance, which later reads find first.
Codec.decode_route = functools.cached_property(_router)
Codec.decode_route.__set_name__(Codec, "decode_route")


def payload_encode(codec_name: str, name: str, tree) -> Optional[bytes]:
    """Encode an E2SM payload via its named schema kernel."""
    if not ENABLED:
        return None
    kern = payload_kernel(codec_name, name)
    if kern is None:
        return None
    out = kern.encode(tree)
    if out is None:
        _enc_fall()
    else:
        _enc_hit()
    return out


def payload_decode(codec_name: str, name: str, data):
    """Decode an E2SM payload via its named schema kernel."""
    if not ENABLED:
        return None
    kern = payload_kernel(codec_name, name)
    if kern is None:
        return None
    out = kern.decode(data)
    if out is None:
        _dec_fall()
    else:
        _dec_hit()
    return out
