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
types, int ranges, constant wire bytes) and returns ``None`` on any
mismatch; the codec then falls back to its interpretive walker, which
remains the behavioral oracle.  A kernel may therefore be *stricter*
than the interpreter (rejecting is always sound — the fallback
reproduces the interpretive result) but must never accept input the
interpreter would reject differently.  Unexpected exceptions inside a
kernel are also treated as a fallback, unless ``REPRO_CODEC_KERNEL_STRICT``
is set (the differential tests set it so real bugs cannot hide inside
the deoptimization path).

``REPRO_CODEC_INTERPRETIVE=1`` (or :func:`set_kernels_enabled`) turns
kernels off entirely, keeping the interpretive path selectable as the
differential-testing oracle.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.codec import schema as _schema
from repro.core.codec.schema import (
    Bool,
    Bytes,
    ConstInt,
    F64,
    Int,
    Nested,
    Opt,
    Schema,
    Seq,
    Spec,
    Str,
    StrMap,
)
from repro.metrics import counters

_enc_hits = counters.get_counter("codec.kernel.encode_hits")
_enc_falls = counters.get_counter("codec.kernel.encode_fallbacks")
_dec_hits = counters.get_counter("codec.kernel.decode_hits")
_dec_falls = counters.get_counter("codec.kernel.decode_fallbacks")

# -- flags -----------------------------------------------------------

#: Kernels on unless the oracle is requested via the environment.
ENABLED = os.environ.get("REPRO_CODEC_INTERPRETIVE", "") not in ("1", "true", "yes")

#: Re-raise unexpected kernel exceptions instead of deoptimizing
#: (differential tests).  A mutable cell so generated dispatch closures
#: observe updates.
_STRICT = [os.environ.get("REPRO_CODEC_KERNEL_STRICT", "") in ("1", "true", "yes")]


def kernels_enabled() -> bool:
    return ENABLED


def set_kernels_enabled(enabled: bool) -> None:
    """Toggle generated kernels globally (tests, benchmarks)."""
    global ENABLED
    ENABLED = bool(enabled)


def set_strict(strict: bool) -> None:
    """Escalate unexpected kernel exceptions instead of falling back."""
    _STRICT[0] = bool(strict)


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


# -- shared wire constants -------------------------------------------

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

_Q = struct.Struct("<q")
_I = struct.Struct("<I")
_H = struct.Struct("<H")
_D = struct.Struct("<d")
_D8 = struct.Struct(">d")
_BQ = struct.Struct("<Bq")

_B1 = tuple(bytes((i,)) for i in range(256))

#: flat: size word of an int64 cell, repeated for Seq(Int) blocks.
_SZ9 = b"\x09\x00\x00\x00"

#: PER: padded 2-byte cells for small ints (tag|sign|small-flag|6 bits,
#: then 4 zero pad bits supplied by the following alignment).
_PSP = tuple(
    bytes((0x34 | (v >> 4), (v & 0xF) << 4)) for v in range(64)
)
_PSN = tuple(
    bytes((0x3C | (m >> 4), (m & 0xF) << 4)) for m in range(64)
)

#: PER: combined length determinant + partial-fragment marker for
#: octet strings shorter than one fragment.
_OCT2 = tuple(bytes((l, (l << 3) & 0xFF)) for l in range(24))


# -- runtime helpers shared by generated kernels ---------------------
# These are injected into every generated module's namespace; they
# return None/False on any shape violation so the kernel deoptimizes.


def _vlb(length: int) -> bytes:
    """PER length determinant as bytes (mirrors BitWriter.write_varlen)."""
    if length < 0x80:
        return _B1[length]
    if length < 0x4000:
        return bytes((0x80 | (length >> 8), length & 0xFF))
    return b"\xc0" + length.to_bytes(4, "big")


#: Fragment count → ``Struct("0s" + "24s" * n)``: every full fragment of
#: an octet string cut in one C pass (the leading ``0s`` seeds the
#: marker join).  A peer repeats a handful of payload sizes; the caps
#: bound the table (entries, and layout size per entry) under
#: adversarial lengths — an uncached count just compiles its layout.
_FRAG_CUTS: Dict[int, struct.Struct] = {}
_FRAG_CUTS_MAX = 128
_FRAG_CUT_WIDEST = 4096


def _frag_cut(full: int) -> struct.Struct:
    cut = struct.Struct("0s" + "24s" * full)
    if len(_FRAG_CUTS) < _FRAG_CUTS_MAX and full <= _FRAG_CUT_WIDEST:
        _FRAG_CUTS[full] = cut
    return cut


def _pfrag(raw: bytes) -> bytes:
    """PER fragmented octet-string body (mirrors write_fragmented)."""
    full, rem = divmod(len(raw), 24)
    if full:
        head = b"\xc0".join((_FRAG_CUTS.get(full) or _frag_cut(full)).unpack_from(raw))
        if rem:
            return head + _B1[rem << 3] + raw[full * 24:]
        return head
    if rem:
        return _B1[rem << 3] + raw
    return b""


def _poct(raw: bytes) -> bytes:
    """PER length determinant + fragments for an aligned octet string."""
    l = len(raw)
    if l < 24:
        return _OCT2[l] + raw if l else b"\x00"
    return _vlb(l) + _pfrag(raw)


def _pint(x: int) -> bytes:
    """PER aligned integer cell (small 2-byte padded form or long form)."""
    if 0 <= x < 64:
        return _PSP[x]
    if -64 < x < 0:
        return _PSN[-x]
    if x < 0:
        sign, mag = 8, -x
    else:
        sign, mag = 0, x
    n = (mag.bit_length() + 7) // 8 or 1
    return _B1[0x30 | sign] + _vlb(n) + mag.to_bytes(n, "big")


def _popt_int(x) -> Optional[bytes]:
    """PER cell for Opt(Int): None or any int."""
    if x is None:
        return b"\x00"
    if type(x) is int:
        return _pint(x)
    return None


def _pseq_int(P: list, items: list) -> bool:
    """PER list-of-int body with bit-phase tracking across elements."""
    A = P.append
    ph = 0
    pd = 0
    for x in items:
        if type(x) is not int:
            return False
        if 0 <= x < 64:
            s, m = 0, x
        elif -64 < x < 0:
            s, m = 8, -x
        else:
            s = 8 if x < 0 else 0
            mag = -x if x < 0 else x
            n = (mag.bit_length() + 7) // 8 or 1
            if ph:
                A(_B1[(pd << 4) | 3])
                A(_B1[(s & 8) << 4])
                ph = 0
            else:
                A(_B1[0x30 | s])
            A(_vlb(n))
            A(mag.to_bytes(n, "big"))
            continue
        if ph:
            A(_B1[(pd << 4) | 3])
            A(_B1[(s << 4) | 0x40 | m])
            ph = 0
        else:
            A(_B1[0x34 | s | (m >> 4)])
            pd = m & 0xF
            ph = 4
    if ph:
        A(_B1[pd << 4])
    return True


def _pseq_str(P: list, items: list) -> bool:
    """PER list-of-str body (string cells keep octet alignment)."""
    A = P.append
    for x in items:
        if type(x) is not str:
            return False
        raw = x.encode("utf-8")
        A(b"\x50")
        A(_poct(raw))
    return True


def _dvl(data: bytes, o: int):
    """PER length determinant read; (value, new offset) or None."""
    first = data[o]
    if first < 0x80:
        return first, o + 1
    if first & 0x40 == 0:
        return ((first & 0x3F) << 8) | data[o + 1], o + 2
    if first != 0xC0:
        return None
    return int.from_bytes(data[o + 1:o + 5], "big"), o + 5


def _dfrag(data: bytes, o: int, length: int):
    """PER fragmented octet-string read; (bytes, new offset) or None."""
    full, rem = divmod(length, 24)
    chunks = []
    if full:
        end = o + full * 25
        block = bytearray(data[o:end])
        if len(block) != full * 25 or block[::25] != b"\xc0" * full:
            return None
        del block[::25]
        chunks.append(bytes(block))
        o = end
    if rem:
        if o >= len(data) or data[o] >> 3 != rem:
            return None
        piece = data[o + 1:o + 1 + rem]
        if len(piece) != rem:
            return None
        chunks.append(piece)
        o += 1 + rem
    return b"".join(chunks), o


def _doct(data: bytes, o: int):
    """PER aligned octet string (determinant + fragments)."""
    r = _dvl(data, o)
    if r is None:
        return None
    length, o = r
    return _dfrag(data, o, length)


def _dpseq_int(data: bytes, o: int, n: int):
    """PER list-of-int body read with phase tracking; (list, o) or None."""
    out = []
    ap = out.append
    ph = 0
    for _ in range(n):
        if ph:
            b0 = data[o] & 0xF
            if b0 != 3:
                return None
            b1 = data[o + 1]
            if b1 & 0x40:
                m = b1 & 0x3F
                ap(-m if b1 & 0x80 else m)
                o += 2
                ph = 0
            else:
                neg = b1 & 0x80
                r = _dvl(data, o + 2)
                if r is None:
                    return None
                ln, o = r
                raw = data[o:o + ln]
                if len(raw) != ln:
                    return None
                m = int.from_bytes(raw, "big")
                ap(-m if neg else m)
                o += ln
                ph = 0
        else:
            b0 = data[o]
            if b0 & 0xF4 == 0x34:
                m = ((b0 & 3) << 4) | (data[o + 1] >> 4)
                ap(-m if b0 & 8 else m)
                o += 1
                ph = 4
            elif b0 & 0xF4 == 0x30:
                r = _dvl(data, o + 1)
                if r is None:
                    return None
                ln, o = r
                raw = data[o:o + ln]
                if len(raw) != ln:
                    return None
                m = int.from_bytes(raw, "big")
                ap(-m if b0 & 8 else m)
                o += ln
            else:
                return None
    if ph:
        o += 1
    return out, o


def _dpseq_str(data: bytes, o: int, n: int):
    """PER list-of-str body read; (list, o) or None."""
    out = []
    for _ in range(n):
        if data[o] & 0xF0 != 0x50:
            return None
        r = _doct(data, o + 1)
        if r is None:
            return None
        raw, o = r
        out.append(raw.decode("utf-8"))
    return out, o


def _fseq_int(items) -> Optional[bytes]:
    """flat list-of-int chunk (tag, count, fused size block, cells)."""
    if type(items) is not list:
        return None
    n = len(items)
    parts = [b"\x07", _I.pack(n), _SZ9 * n]
    ap = parts.append
    pack = _BQ.pack
    for x in items:
        if type(x) is int and _INT64_MIN <= x <= _INT64_MAX:
            ap(pack(3, x))
        else:
            return None
    return b"".join(parts)


def _fseq_str(items) -> Optional[bytes]:
    """flat list-of-str chunk."""
    if type(items) is not list:
        return None
    raws = []
    for x in items:
        if type(x) is not str:
            return None
        raws.append(x.encode("utf-8"))
    n = len(raws)
    parts = [b"\x07", _I.pack(n)]
    ap = parts.append
    for raw in raws:
        ap(_I.pack(5 + len(raw)))
    for raw in raws:
        ap(b"\x05")
        ap(_I.pack(len(raw)))
        ap(raw)
    return b"".join(parts)


def _fseq_map(fn, items) -> Optional[bytes]:
    """flat list chunk with per-element generated encoder ``fn``."""
    if type(items) is not list:
        return None
    enc = []
    ap = enc.append
    for item in items:
        e = fn(item)
        if e is None:
            return None
        ap(e)
    n = len(enc)
    sizes = struct.pack("<%dI" % n, *map(len, enc)) if n else b""
    return b"".join([b"\x07", _I.pack(n), sizes] + enc)


#: ``tag + count + n equal size words`` of a fixed-layout list, keyed
#: on (element size, n).  A node reports the same few UE/bearer counts
#: period after period; the cap bounds it under adversarial counts.
_FIXED_HEADS: Dict[Tuple[int, int], bytes] = {}
_FIXED_HEADS_MAX = 256


def _fseq_fixed(fn, size: int, items) -> Optional[bytes]:
    """flat list chunk whose elements all encode to ``size`` octets."""
    if type(items) is not list:
        return None
    n = len(items)
    head = _FIXED_HEADS.get((size, n))
    if head is None:
        head = b"\x07" + _I.pack(n) + _I.pack(size) * n
        if len(_FIXED_HEADS) < _FIXED_HEADS_MAX:
            _FIXED_HEADS[(size, n)] = head
    parts = [head]
    parts.extend(map(fn, items))
    if None in parts:
        return None
    return b"".join(parts)


def _fopt_int(x) -> Optional[bytes]:
    """flat cell for Opt(Int)."""
    if x is None:
        return b"\x00"
    if type(x) is int and _INT64_MIN <= x <= _INT64_MAX:
        return b"\x03" + _Q.pack(x)
    return None


def _fstrmap(d) -> Optional[bytes]:
    """flat dict chunk for an open str→str table."""
    if type(d) is not dict:
        return None
    parts = [b"\x08", _I.pack(len(d))]
    ap = parts.append
    vals = []
    vap = vals.append
    for k, v in d.items():
        if type(k) is not str or type(v) is not str:
            return None
        kr = k.encode("utf-8")
        vr = v.encode("utf-8")
        ap(_H.pack(len(kr)))
        ap(kr)
        ap(_I.pack(5 + len(vr)))
        vap(b"\x05")
        vap(_I.pack(len(vr)))
        vap(vr)
    return b"".join(parts + vals)


def _dfseq_int(data: bytes, o: int, n: int):
    """flat list-of-int cells read (size block already verified)."""
    end = o + 9 * n
    block = data[o:end]
    if len(block) != 9 * n:
        return None
    out = []
    ap = out.append
    for t, v in _BQ.iter_unpack(block):
        if t != 3:
            return None
        ap(v)
    return out


def _dfseq_map(fn, data: bytes, o: int, n: int):
    """flat list read via generated element decoder; (list, o) or None."""
    try:
        sizes = struct.unpack_from("<%dI" % n, data, o)
    except struct.error:
        return None
    o += 4 * n
    out = []
    ap = out.append
    for size in sizes:
        r = fn(data, o)
        if r is None:
            return None
        v, no = r
        if no - o != size:
            return None
        ap(v)
        o = no
    return out, o


def _dfseq_str(data: bytes, o: int, n: int):
    """flat list-of-str read; (list, o) or None."""
    try:
        sizes = struct.unpack_from("<%dI" % n, data, o)
    except struct.error:
        return None
    o += 4 * n
    out = []
    ap = out.append
    for size in sizes:
        if data[o:o + 1] != b"\x05":
            return None
        ln = _I.unpack_from(data, o + 1)[0]
        if size != 5 + ln:
            return None
        raw = data[o + 5:o + 5 + ln]
        if len(raw) != ln:
            return None
        ap(raw.decode("utf-8"))
        o += size
    return out, o


def _dfstrmap(data: bytes, o: int, n: int):
    """flat str→str table read; (dict, o) or None."""
    sizes = []
    keys = []
    for _ in range(n):
        try:
            klen = _H.unpack_from(data, o)[0]
        except struct.error:
            return None
        raw = data[o + 2:o + 2 + klen]
        if len(raw) != klen:
            return None
        keys.append(raw.decode("utf-8"))
        try:
            sizes.append(_I.unpack_from(data, o + 2 + klen)[0])
        except struct.error:
            return None
        o += 6 + klen
    out = {}
    for key, size in zip(keys, sizes):
        if data[o:o + 1] != b"\x05":
            return None
        ln = _I.unpack_from(data, o + 1)[0]
        if size != 5 + ln:
            return None
        raw = data[o + 5:o + 5 + ln]
        if len(raw) != ln:
            return None
        out[key] = raw.decode("utf-8")
        o += size
    return out, o


#: Namespace seeded into every generated module.
_RUNTIME: Dict[str, Any] = {
    "_Struct": struct.Struct,
    "_B1": _B1,
    "_PSP": _PSP,
    "_PSN": _PSN,
    "_vlb": _vlb,
    "_pfrag": _pfrag,
    "_poct": _poct,
    "_pint": _pint,
    "_popt_int": _popt_int,
    "_pseq_int": _pseq_int,
    "_pseq_str": _pseq_str,
    "_dvl": _dvl,
    "_dfrag": _dfrag,
    "_doct": _doct,
    "_dpseq_int": _dpseq_int,
    "_dpseq_str": _dpseq_str,
    "_fseq_int": _fseq_int,
    "_fseq_str": _fseq_str,
    "_fseq_map": _fseq_map,
    "_fseq_fixed": _fseq_fixed,
    "_StructError": struct.error,
    "_fopt_int": _fopt_int,
    "_fstrmap": _fstrmap,
    "_dfseq_int": _dfseq_int,
    "_dfseq_map": _dfseq_map,
    "_dfseq_str": _dfseq_str,
    "_dfstrmap": _dfstrmap,
}


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

    def w(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

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
        self.consts: Dict[Tuple, str] = {}
        self.const_lines: List[str] = []
        self.n = 0

    def name(self, prefix: str) -> str:
        self.n += 1
        return f"{prefix}{self.n}"

    def const_bytes(self, value: bytes) -> str:
        key = ("b", value)
        got = self.consts.get(key)
        if got is None:
            got = f"_C{len(self.consts)}"
            self.consts[key] = got
            self.const_lines.append(f"{got} = {value!r}")
        return got

    def const_struct(self, fmt: str) -> str:
        key = ("S", fmt)
        got = self.consts.get(key)
        if got is None:
            got = f"_C{len(self.consts)}"
            self.consts[key] = got
            self.const_lines.append(f"{got} = _Struct({fmt!r})")
        return got

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
    bytes + scalar captures) collapse into one ``unpack_from`` whose
    constant captures are compared as a batch."""

    def __init__(self, fn: _Fn, off: _Off) -> None:
        self.fn = fn
        self.off = off
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
        uname = fn.mod.name("u")
        fn.w(f"{uname} = {sname}.unpack_from(data, {start})")
        checks = []
        for index, (kind, payload) in enumerate(run):
            if kind == "c":
                checks.append(f"{uname}[{index}] != {fn.mod.const_bytes(payload)}")
            else:
                fn.w(f"{payload} = {uname}[{index}]")
        if checks:
            fn.w(f"if {' or '.join(checks)}: return None")
        self.off.advance(width)


#: spec kind → (tag cell, struct code, exact Python type) for the flat
#: cells whose width never depends on the value.
_FIXED_CELLS = {"int": (b"\x03", "q", "int"), "f64": (b"\x04", "d", "float")}


class _FlatEmitter:
    """Emits flat-codec kernels (codec name ``"fb"``)."""

    codec_name = "fb"

    # -- encode ------------------------------------------------------

    def build(self, schema: Schema) -> _Mod:
        mod = _Mod(f"fb {schema.name}")
        self._elem_enc: Dict[str, str] = {}
        self._elem_size: Dict[str, int] = {}  # fixed-layout encoders only
        self._elem_dec: Dict[str, str] = {}
        self._emit_encode(mod, schema)
        self._emit_decode(mod, schema)
        return mod

    def _emit_encode(self, mod: _Mod, schema: Schema) -> None:
        fn = _Fn(mod, "encode", "V")
        size, emit = self._enc_dict(fn, schema, "V")
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
        self, fn: _Fn, schema: Schema, expr: str
    ) -> Tuple[_Size, Callable]:
        """Analyze a dict: write guards/bindings now, return the chunk
        size and an emitter producing tag+count+directory+values."""
        keys = schema.keys
        fn.w(f"if type({expr}) is not dict: return None")
        fn.w(f"if tuple({expr}.keys()) != {keys!r}: return None")
        return self._dict_chunk([
            (key,) + self._enc_field(fn, spec, f"{expr}[{key!r}]")
            for key, spec in schema.fields
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
        self, fn: _Fn, spec: Spec, expr: str
    ) -> Tuple[_Size, Callable]:
        mod = fn.mod
        kind = spec.kind
        if kind == "const_int":
            value = spec.value
            if not (_INT64_MIN <= value <= _INT64_MAX):
                raise _Unsupported("const outside int64")
            fn.w(f"if type({expr}) is not int or {expr} != {value}: return None")
            cell = b"\x03" + _Q.pack(value)
            return _Size(9), lambda segs: segs.const(cell)
        if kind == "int":
            x = mod.name("v")
            fn.w(f"{x} = {expr}")
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
            return self._enc_dict(fn, spec.schema, x)
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
                ename = self._elem_encoder(mod, spec.elem.schema)
                esize = self._elem_size.get(ename)
                if esize is None:
                    fn.w(f"{c} = _fseq_map({ename}, {expr})")
                else:
                    fn.w(f"{c} = _fseq_fixed({ename}, {esize}, {expr})")
            else:
                raise _Unsupported(f"seq of {elem}")
            fn.w(f"if {c} is None: return None")
            return _Size(0, (f"len({c})",)), lambda segs: segs.raw(c)
        raise _Unsupported(kind)

    def _elem_encoder(self, mod: _Mod, schema: Schema) -> str:
        got = self._elem_enc.get(schema.name)
        if got is not None:
            return got
        fn = mod.fn("_e", "x")
        self._elem_enc[schema.name] = fn.name
        if schema.fields and all(spec.kind in _FIXED_CELLS for _key, spec in schema.fields):
            self._elem_size[fn.name] = self._enc_fixed_dict(fn, schema)
            fn.close()
            return fn.name
        size, emit = self._enc_dict(fn, schema, "x")
        fn.w("P = []")
        fn.w("A = P.append")
        segs = _Segs(fn)
        emit(segs)
        segs.flush()
        fn.w("return b''.join(P)")
        fn.close()
        return fn.name

    def _enc_fixed_dict(self, fn: _Fn, schema: Schema) -> int:
        """Element body for a dict of only ``Int``/``F64`` fields; returns
        its constant encoded size.

        The whole element is one ``pack``, so the guards are folded: one
        key-order test, one ``values()`` unpack, one type expression,
        and the int64 range is left to ``pack`` itself
        (``struct.error`` deoptimizes like any other guard).
        """
        names = [fn.mod.name("v") for _field in schema.fields]
        cells = [_FIXED_CELLS[spec.kind] for _key, spec in schema.fields]
        fn.w(f"if type(x) is not dict or tuple(x) != {schema.keys!r}: return None")
        fn.w(f"{', '.join(names)}, = x.values()")
        fn.w(
            "if "
            + " or ".join(f"type({x}) is not {pytype}" for x, (_t, _f, pytype) in zip(names, cells))
            + ": return None"
        )
        size, emit = self._dict_chunk([
            (key, _Size(9), lambda segs, x=x, tag=tag, fmt=fmt: (segs.const(tag), segs.scalar(fmt, x)))
            for (key, _spec), x, (tag, fmt, _p) in zip(schema.fields, names, cells)
        ])
        segs = _Segs(fn)
        emit(segs)
        fn.w(f"try: return {segs.take()}")
        fn.w("except _StructError: return None")
        return size.const

    # -- decode ------------------------------------------------------

    def _emit_decode(self, mod: _Mod, schema: Schema) -> None:
        fn = _Fn(mod, "decode", "data")
        fn.w("if data[:4] != b'FR\\x01\\x00': return None")
        iu = mod.const_struct("<I")
        fn.w(f"rs = {iu}.unpack_from(data, 4)[0]")
        fn.w("if 16 + rs > len(data): return None")
        off = _Off(None, 16)
        runs = _DecRuns(fn, off)
        result = self._dec_dict(fn, schema, runs, off)
        runs.flush()
        fn.w(f"return {result}")
        fn.close()

    def _dec_dict(
        self, fn: _Fn, schema: Schema, runs: _DecRuns, off: _Off
    ) -> str:
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
        parts = []
        for (key, spec), s in zip(schema.fields, dir_sizes):
            parts.append(
                f"{key!r}: " + self._dec_field(fn, spec, runs, off, s)
            )
        return "{" + ", ".join(parts) + "}"

    def _dec_field(
        self, fn: _Fn, spec: Spec, runs: _DecRuns, off: _Off, s: Optional[str]
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
            return x
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
            runs.flush()
            iu = mod.const_struct("<I")
            tag = 5 if kind == "str" else 6
            l = mod.name("l")
            r = mod.name("r")
            start = off.expr()
            fn.w(f"if data[{start}] != {tag}: return None")
            fn.w(f"{l} = {iu}.unpack_from(data, {start} + 1)[0]")
            if s is not None:
                fn.w(f"if {s} != 5 + {l}: return None")
            fn.w(f"{r} = data[{start} + 5:{start} + 5 + {l}]")
            fn.w(f"if len({r}) != {l}: return None")
            off.rebase(fn, f"{start} + 5 + {l}")
            if kind == "str":
                x = mod.name("x")
                fn.w(f"{x} = {r}.decode('utf-8')")
                return x
            return r
        if kind == "opt":
            runs.flush()
            q = mod.const_struct("<q")
            x = mod.name("x")
            t = mod.name("t")
            nxt = mod.name("o")
            start = off.expr()
            fn.w(f"{t} = data[{start}]")
            fn.w(f"if {t} == 0:")
            fn.w(f"    if {s} != 1: return None")
            fn.w(f"    {x} = None")
            fn.w(f"    {nxt} = {start} + 1")
            fn.w(f"elif {t} == 3:")
            fn.w(f"    if {s} != 9: return None")
            fn.w(f"    {x} = {q}.unpack_from(data, {start} + 1)[0]")
            fn.w(f"    {nxt} = {start} + 9")
            fn.w("else: return None")
            off.base = nxt
            off.k = 0
            return x
        if kind == "nested":
            return self._dec_dict(fn, spec.schema, runs, off)
        if kind in ("seq", "strmap"):
            runs.flush()
            iu = mod.const_struct("<I")
            n = mod.name("n")
            x = mod.name("x")
            start = off.expr()
            tag = 8 if kind == "strmap" else 7
            fn.w(f"if data[{start}] != {tag}: return None")
            fn.w(f"{n} = {iu}.unpack_from(data, {start} + 1)[0]")
            if kind == "strmap":
                r = mod.name("r")
                nxt = mod.name("o")
                fn.w(f"{r} = _dfstrmap(data, {start} + 5, {n})")
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
                fn.w(
                    f"if data[{start} + 5:{start} + 5 + 4 * {n}] != "
                    f"{sz9} * {n}: return None"
                )
                fn.w(f"{x} = _dfseq_int(data, {start} + 5 + 4 * {n}, {n})")
                fn.w(f"if {x} is None: return None")
                off.rebase(fn, f"{start} + 5 + 13 * {n}")
                return x
            if elem == "str":
                helper = "_dfseq_str"
                call = f"{helper}(data, {start} + 5, {n})"
            elif elem == "nested":
                dname = self._elem_decoder(mod, spec.elem.schema)
                call = f"_dfseq_map({dname}, data, {start} + 5, {n})"
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

    def _elem_decoder(self, mod: _Mod, schema: Schema) -> str:
        got = self._elem_dec.get(schema.name)
        if got is not None:
            return got
        fn = mod.fn("_d", "data, o0")
        self._elem_dec[schema.name] = fn.name
        off = _Off("o0", 0)
        runs = _DecRuns(fn, off)
        result = self._dec_dict(fn, schema, runs, off)
        runs.flush()
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


def _pstrmap(P: list, d) -> bool:
    """PER str→str table entries (tag + count emitted by the kernel)."""
    A = P.append
    for k, v in d.items():
        if type(k) is not str or type(v) is not str:
            return False
        kr = k.encode("utf-8")
        if len(kr) >= 0x80:
            return False
        A(_B1[len(kr)])
        A(kr)
        A(b"\x50")
        A(_poct(v.encode("utf-8")))
    return True


def _dpstrmap(data: bytes, o: int, n: int):
    """PER str→str table read; (dict, o) or None."""
    out = {}
    for _ in range(n):
        kl = data[o]
        if kl >= 0x80:
            return None
        kraw = data[o + 1:o + 1 + kl]
        if len(kraw) != kl:
            return None
        o += 1 + kl
        if data[o] & 0xF0 != 0x50:
            return None
        r = _doct(data, o + 1)
        if r is None:
            return None
        vraw, o = r
        out[kraw.decode("utf-8")] = vraw.decode("utf-8")
    return out, o


_RUNTIME["_pstrmap"] = _pstrmap
_RUNTIME["_dpstrmap"] = _dpstrmap


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
        self._elem_enc: Dict[str, str] = {}
        self._elem_dec: Dict[str, str] = {}
        self._emit_encode(mod, schema)
        self._emit_decode(mod, schema)
        return mod

    # -- encode ------------------------------------------------------

    def _emit_encode(self, mod: _Mod, schema: Schema) -> None:
        fn = _Fn(mod, "encode", "V")
        emit = self._enc_dict(fn, schema, "V")
        fn.w("P = []")
        fn.w("A = P.append")
        segs = _Segs(fn)
        emit(segs)
        segs.flush()
        fn.w("return b''.join(P)")
        fn.close()

    def _enc_dict(self, fn: _Fn, schema: Schema, expr: str) -> Callable:
        count = len(schema.fields)
        if count >= 0x80:
            raise _Unsupported("dict too wide")
        fn.w(f"if type({expr}) is not dict: return None")
        fn.w(f"if tuple({expr}.keys()) != {schema.keys!r}: return None")
        entries = []
        for key, spec in schema.fields:
            kraw = key.encode("utf-8")
            if len(kraw) >= 0x80:
                raise _Unsupported("key too long")
            field_emit = self._enc_field(fn, spec, f"{expr}[{key!r}]")
            entries.append((kraw, field_emit))

        def emit(segs: _Segs) -> None:
            segs.const(b"\x80" + _B1[count])
            for kraw, field_emit in entries:
                segs.const(_B1[len(kraw)] + kraw)
                field_emit(segs)

        return emit

    def _enc_field(self, fn: _Fn, spec: Spec, expr: str) -> Callable:
        mod = fn.mod
        kind = spec.kind
        if kind == "const_int":
            value = spec.value
            fn.w(f"if type({expr}) is not int or {expr} != {value}: return None")
            cell = _pint(value)
            return lambda segs: segs.const(cell)
        if kind == "int":
            x = mod.name("v")
            fn.w(f"{x} = {expr}")
            fn.w(f"if type({x}) is not int: return None")
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
            return self._enc_dict(fn, spec.schema, x)
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
            fn.w(f"if type({x}) is not list: return None")
            elem = spec.elem.kind
            if elem == "int":
                tail = lambda segs: segs.stmt(
                    f"if not _pseq_int(P, {x}): return None"
                )
            elif elem == "str":
                tail = lambda segs: segs.stmt(
                    f"if not _pseq_str(P, {x}): return None"
                )
            elif elem == "nested":
                ename = self._elem_encoder(fn.mod, spec.elem.schema)
                ph = mod.name("ph")
                pd = mod.name("pd")
                it = mod.name("it")
                r = mod.name("r")

                def tail(segs: _Segs, ph=ph, pd=pd, it=it, r=r) -> None:
                    segs.stmt(f"{ph} = 0")
                    segs.stmt(f"{pd} = 0")
                    segs.stmt(f"for {it} in {x}:")
                    segs.stmt(f"    {r} = {ename}(P, {it}, {ph}, {pd})")
                    segs.stmt(f"    if {r} is None: return None")
                    segs.stmt(f"    {ph}, {pd} = {r}")
                    segs.stmt(f"if {ph}: A(_B1[{pd} << 4])")
            else:
                raise _Unsupported(f"seq of {elem}")
            return lambda segs: (
                segs.const(b"\x70"),
                segs.raw(f"_vlb(len({x}))"),
                tail(segs),
            )
        raise _Unsupported(kind)

    def _elem_encoder(self, mod: _Mod, schema: Schema) -> str:
        got = self._elem_enc.get(schema.name)
        if got is not None:
            return got
        if not schema.fields:
            raise _Unsupported("empty seq element")
        fn = mod.fn("_pe", "P, x, ph, pd")
        self._elem_enc[schema.name] = fn.name
        fn.w("if type(x) is not dict: return None")
        fn.w(f"if tuple(x.keys()) != {schema.keys!r}: return None")
        interior = schema.fields[:-1]
        last_key, last_spec = schema.fields[-1]
        emits = []
        for key, spec in interior:
            emits.append(
                (key.encode("utf-8"), self._enc_field(fn, spec, f"x[{key!r}]"))
            )
        last = self._enc_last(fn, last_spec, f"x[{last_key!r}]")
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

    def _enc_last(self, fn: _Fn, spec: Spec, expr: str) -> Callable:
        """The final field of a list element: its trailing pad nibble
        belongs to the next element, so it may end mid-byte and returns
        the (phase, pending-nibble) pair instead of self-padding."""
        mod = fn.mod
        kind = spec.kind
        x = mod.name("v")
        fn.w(f"{x} = {expr}")
        if kind == "int":
            fn.w(f"if type({x}) is not int: return None")
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

    def _emit_decode(self, mod: _Mod, schema: Schema) -> None:
        fn = _Fn(mod, "decode", "data")
        off = _Off(None, 0)
        runs = _DecRuns(fn, off)
        result = self._dec_dict(fn, schema, runs, off)
        runs.flush()
        fn.w(f"return {result}")
        fn.close()

    def _mask(self, fn: _Fn, runs: _DecRuns, off: _Off, mask: int, want: int) -> None:
        runs.flush()
        fn.w(f"if data[{off.expr()}] & {mask:#x} != {want:#x}: return None")
        off.advance(1)

    def _dec_dict(
        self, fn: _Fn, schema: Schema, runs: _DecRuns, off: _Off
    ) -> str:
        runs.const(b"\x80" + _B1[len(schema.fields)])
        parts = []
        for key, spec in schema.fields:
            kraw = key.encode("utf-8")
            runs.const(_B1[len(kraw)] + kraw)
            parts.append(f"{key!r}: " + self._dec_field(fn, spec, runs, off))
        return "{" + ", ".join(parts) + "}"

    def _dec_field(
        self, fn: _Fn, spec: Spec, runs: _DecRuns, off: _Off
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
            return self._dec_int(fn, runs, off)
        if kind == "bool":
            runs.flush()
            t = mod.name("t")
            x = mod.name("x")
            fn.w(f"{t} = data[{off.expr()}] >> 4")
            fn.w(f"if {t} == 2: {x} = True")
            fn.w(f"elif {t} == 1: {x} = False")
            fn.w("else: return None")
            off.advance(1)
            return x
        if kind == "f64":
            self._mask(fn, runs, off, 0xF0, 0x40)
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
            fn.w(f"{r} = _doct(data, {off.expr()})")
            fn.w(f"if {r} is None: return None")
            fn.w(f"{raw}, {nxt} = {r}")
            off.base = nxt
            off.k = 0
            if kind == "str":
                x = mod.name("x")
                fn.w(f"{x} = {raw}.decode('utf-8')")
                return x
            return raw
        if kind == "opt":
            runs.flush()
            b = mod.name("b")
            x = mod.name("x")
            nxt = mod.name("o")
            start = off.expr()
            fn.w(f"{b} = data[{start}]")
            fn.w(f"if {b} & 0xF0 == 0:")
            fn.w(f"    {x} = None")
            fn.w(f"    {nxt} = {start} + 1")
            fn.w(f"elif {b} & 0xF4 == 0x34:")
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
            return self._dec_dict(fn, spec.schema, runs, off)
        if kind == "strmap":
            self._mask(fn, runs, off, 0xF0, 0x80)
            r = mod.name("r")
            n = mod.name("n")
            o = mod.name("o")
            x = mod.name("x")
            fn.w(f"{r} = _dvl(data, {off.expr()})")
            fn.w(f"if {r} is None: return None")
            fn.w(f"{n}, {o} = {r}")
            fn.w(f"{r} = _dpstrmap(data, {o}, {n})")
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
            fn.w(f"{r} = _dvl(data, {off.expr()})")
            fn.w(f"if {r} is None: return None")
            fn.w(f"{n}, {o} = {r}")
            elem = spec.elem.kind
            if elem == "int":
                fn.w(f"{r} = _dpseq_int(data, {o}, {n})")
            elif elem == "str":
                fn.w(f"{r} = _dpseq_str(data, {o}, {n})")
            elif elem == "nested":
                dname = self._elem_decoder(mod, spec.elem.schema)
                ph = mod.name("ph")
                v = mod.name("e")
                fn.w(f"{x} = []")
                fn.w(f"{ph} = 0")
                fn.w(f"for _ in range({n}):")
                fn.w(f"    {r} = {dname}(data, {o}, {ph})")
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
        fn.w(f"{pad}{r} = _dvl(data, {at})")
        fn.w(f"{pad}if {r} is None: return None")
        fn.w(f"{pad}{ln}, {nxt} = {r}")
        fn.w(f"{pad}{raw} = data[{nxt}:{nxt} + {ln}]")
        fn.w(f"{pad}if len({raw}) != {ln}: return None")
        fn.w(f"{pad}{x} = int.from_bytes({raw}, 'big')")
        fn.w(f"{pad}if {b} & 8: {x} = -{x}")
        fn.w(f"{pad}{nxt} += {ln}")

    def _elem_decoder(self, mod: _Mod, schema: Schema) -> str:
        got = self._elem_dec.get(schema.name)
        if got is not None:
            return got
        if not schema.fields:
            raise _Unsupported("empty seq element")
        fn = mod.fn("_qe", "data, o, ph")
        self._elem_dec[schema.name] = fn.name
        fn.w("if ph:")
        fn.w("    if data[o] & 0xF != 8: return None")
        fn.w("else:")
        fn.w("    if data[o] != 0x80: return None")
        fn.w(f"if data[o + 1] != {len(schema.fields)}: return None")
        base = mod.name("o")
        fn.w(f"{base} = o + 2")
        off = _Off(base, 0)
        runs = _DecRuns(fn, off)
        parts = []
        for key, spec in schema.fields[:-1]:
            kraw = key.encode("utf-8")
            runs.const(_B1[len(kraw)] + kraw)
            parts.append(f"{key!r}: " + self._dec_field(fn, spec, runs, off))
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
            parts.append(f"{last_key!r}: {x}")
            fn.w(f"return {{{', '.join(parts)}}}, {nxt}, {phx}")
        elif kind == "bool":
            t = mod.name("t")
            x = mod.name("x")
            fn.w(f"{t} = data[{start}] >> 4")
            fn.w(f"if {t} == 2: {x} = True")
            fn.w(f"elif {t} == 1: {x} = False")
            fn.w("else: return None")
            parts.append(f"{last_key!r}: {x}")
            fn.w(f"return {{{', '.join(parts)}}}, {start}, 4")
        elif kind in ("str", "bytes"):
            want = 0x50 if kind == "str" else 0x60
            r = mod.name("r")
            raw = mod.name("w")
            nxt = mod.name("o")
            fn.w(f"if data[{start}] & 0xF0 != {want:#x}: return None")
            fn.w(f"{r} = _doct(data, {start} + 1)")
            fn.w(f"if {r} is None: return None")
            fn.w(f"{raw}, {nxt} = {r}")
            if kind == "str":
                x = mod.name("x")
                fn.w(f"{x} = {raw}.decode('utf-8')")
                parts.append(f"{last_key!r}: {x}")
            else:
                parts.append(f"{last_key!r}: {raw}")
            fn.w(f"return {{{', '.join(parts)}}}, {nxt}, 0")
        elif kind == "f64":
            d8 = mod.const_struct(">d")
            x = mod.name("x")
            fn.w(f"if data[{start}] & 0xF0 != 0x40: return None")
            fn.w(f"{x} = {d8}.unpack_from(data, {start} + 1)[0]")
            parts.append(f"{last_key!r}: {x}")
            fn.w(f"return {{{', '.join(parts)}}}, {start} + 9, 0")
        else:
            raise _Unsupported(f"element tail {kind}")
        fn.close()
        return fn.name


# -- kernel cache and dispatch ---------------------------------------

_EMITTERS = {
    "fb": _FlatEmitter(),
    "asn": _PerEmitter(),
}


class Kernel:
    """A compiled (schema × codec) pair: generated source + entry points."""

    __slots__ = ("name", "source", "encode", "decode")

    def __init__(self, name: str, source: str, encode, decode) -> None:
        self.name = name
        self.source = source
        self.encode = encode
        self.decode = decode

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
    return Kernel(schema.name, source, ns["encode"], ns["decode"])


def envelope_kernel(codec_name: str, procedure: int, msg_class: int):
    key = ("env", codec_name, procedure, msg_class)
    try:
        return _KERNELS[key]
    except KeyError:
        pass
    sch = _schema.envelope_schema(procedure, msg_class)
    kern = _build(codec_name, sch) if sch is not None else None
    # Builds are deterministic, so a concurrent duplicate is identical.
    return _KERNELS.setdefault(key, kern)


def payload_kernel(codec_name: str, name: str):
    key = ("pay", codec_name, name)
    try:
        return _KERNELS[key]
    except KeyError:
        pass
    sch = _schema.payload_schema(name)
    kern = _build(codec_name, sch) if sch is not None else None
    return _KERNELS.setdefault(key, kern)


def clear_kernels() -> None:
    _KERNELS.clear()


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


def kernel_encode(codec_name: str, tree) -> Optional[bytes]:
    """Encode via a specialized kernel, or None to use the interpreter."""
    if not ENABLED:
        return None
    try:
        if type(tree) is not dict or len(tree) != 3:
            return None
        p = tree.get("p")
        c = tree.get("c")
        if type(p) is not int or type(c) is not int:
            return None
        kern = envelope_kernel(codec_name, p, c)
        if kern is None:
            return None
        out = kern.encode(tree)
    except Exception:
        if _STRICT[0]:
            raise
        _enc_falls.incr()
        return None
    if out is None:
        _enc_falls.incr()
    else:
        _enc_hits.incr()
    return out


def kernel_decode(codec_name: str, data):
    """Decode via a specialized kernel, or None to use the interpreter."""
    if not ENABLED:
        return None
    try:
        pc = _PROBES[codec_name](data)
        if pc is None:
            return None
        kern = envelope_kernel(codec_name, pc[0], pc[1])
        if kern is None:
            return None
        out = kern.decode(data)
    except Exception:
        if _STRICT[0]:
            raise
        _dec_falls.incr()
        return None
    if out is None:
        _dec_falls.incr()
    else:
        _dec_hits.incr()
    return out


def payload_encode(codec_name: str, name: str, tree) -> Optional[bytes]:
    """Encode an E2SM payload via its named schema kernel."""
    if not ENABLED:
        return None
    try:
        kern = payload_kernel(codec_name, name)
        if kern is None:
            return None
        out = kern.encode(tree)
    except Exception:
        if _STRICT[0]:
            raise
        _enc_falls.incr()
        return None
    if out is None:
        _enc_falls.incr()
    else:
        _enc_hits.incr()
    return out


def payload_decode(codec_name: str, name: str, data):
    """Decode an E2SM payload via its named schema kernel."""
    if not ENABLED:
        return None
    try:
        kern = payload_kernel(codec_name, name)
        if kern is None:
            return None
        out = kern.decode(data)
    except Exception:
        if _STRICT[0]:
            raise
        _dec_falls.incr()
        return None
    if out is None:
        _dec_falls.incr()
    else:
        _dec_hits.incr()
    return out
