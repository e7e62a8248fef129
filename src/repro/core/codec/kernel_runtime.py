"""Runtime of the generated codec kernels.

Every module :mod:`repro.core.codec.codegen` renders is executed in a
copy of :data:`_RUNTIME`: the wire constants and the helpers a kernel
calls for what its flat text does not unroll — PER integers, octet
strings and list bodies with their bit phase, ``fb`` list chunks, the
fixed-layout plans of :class:`~repro.core.codec.base.Rows` sequences.
A helper returns None/False on any shape violation — a read past the
end of the frame and invalid utf-8 included — so the kernel that
called it declines (DESIGN.md §11); it never raises on a frame.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, Optional, Tuple

from repro.core.codec.base import Rows

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


# -- helpers ---------------------------------------------------------


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


def _pseq_rows(P: list, fn, keys: Tuple[str, ...], items) -> bool:
    """PER list-of-struct body: every element through the generated
    positional encoder ``fn``, the bit phase threaded across elements.
    ``items`` is a list of dicts with exactly ``keys`` in order, or a
    :class:`Rows` whose keys the kernel has already checked; each of
    its rows goes in as it is, with no dict built."""
    ph = pd = 0
    if type(items) is list:
        for x in items:
            if type(x) is not dict or tuple(x) != keys:
                return False
            r = fn(P, ph, pd, *x.values())
            if r is None:
                return False
            ph, pd = r
    else:
        for row in zip(*[iter(items.values)] * len(keys)):
            r = fn(P, ph, pd, *row)
            if r is None:
                return False
            ph, pd = r
    if ph:
        P.append(_B1[pd << 4])
    return True


def _pseq_objs(P: list, fn, items: list) -> bool:
    """PER list-of-struct body on the object lane: every element (the
    dataclass itself) through the generated encoder ``fn``, which reads
    and checks it, the bit phase threaded across elements."""
    ph = pd = 0
    for x in items:
        r = fn(P, ph, pd, x)
        if r is None:
            return False
        ph, pd = r
    if ph:
        P.append(_B1[pd << 4])
    return True


def _dvl(data: bytes, o: int, N: int):
    """PER length determinant read; (value, new offset) or None.  Every
    PER reader takes ``N``, the ``len(data)`` its kernel took once."""
    if o >= N:
        return None
    first = data[o]
    if first < 0x80:
        return first, o + 1
    if first & 0x40 == 0:
        if o + 2 > N:
            return None
        return ((first & 0x3F) << 8) | data[o + 1], o + 2
    if first != 0xC0 or o + 5 > N:
        return None
    return int.from_bytes(data[o + 1:o + 5], "big"), o + 5


def _dfrag(data: bytes, o: int, length: int, N: int):
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
        if o >= N or data[o] >> 3 != rem:
            return None
        piece = data[o + 1:o + 1 + rem]
        if len(piece) != rem:
            return None
        chunks.append(piece)
        o += 1 + rem
    return b"".join(chunks), o


def _doct(data: bytes, o: int, N: int):
    """PER aligned octet string (determinant + fragments)."""
    r = _dvl(data, o, N)
    if r is None:
        return None
    length, o = r
    return _dfrag(data, o, length, N)


def _dpseq_int(data: bytes, o: int, n: int, N: int):
    """PER list-of-int body read with phase tracking; (list, o) or None."""
    out = []
    ap = out.append
    ph = 0
    for _ in range(n):
        if o + 2 > N:  # both forms of an int cell take two bytes or more
            return None
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
                r = _dvl(data, o + 2, N)
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
                r = _dvl(data, o + 1, N)
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


def _dpseq_str(data: bytes, o: int, n: int, N: int):
    """PER list-of-str body read; (list, o) or None."""
    out = []
    for _ in range(n):
        if o >= N or data[o] & 0xF0 != 0x50:
            return None
        r = _doct(data, o + 1, N)
        if r is None:
            return None
        raw, o = r
        try:
            out.append(raw.decode("utf-8"))
        except UnicodeDecodeError:
            return None
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


#: struct code of a fixed-layout cell → the exact type of its value.
_CELL_TYPES = {"q": int, "d": float}


class _RowLayout:
    """One fixed-layout element as the emitter laid it out: its wire
    keys, the constant octets before each value (the first also carries
    the element's tag, count and directory) and each value's struct
    code.  A generated kernel holds one per fixed-layout sequence."""

    __slots__ = ("keys", "consts", "codes", "size")

    def __init__(self, keys: Tuple[str, ...], consts: Tuple[bytes, ...], codes: str) -> None:
        self.keys = keys
        self.consts = consts
        self.codes = codes
        self.size = sum(map(len, consts)) + 8 * len(codes)


class _FixedPlan:
    """A fixed-layout list of ``n`` elements: its head (tag, count and
    ``n`` equal size words), and — set up by the first :class:`Rows` of
    that size — the whole chunk as one ``pack``: its argument template
    (the head, then every cell's constant followed by a slot for its
    value), spare copies of the template, and the exact type every
    value must have."""

    __slots__ = ("head", "pack", "template", "spare", "types")

    def __init__(self, head: bytes) -> None:
        self.head = head
        self.pack = None

    def set_up_rows(self, layout: _RowLayout, n: int) -> None:
        cells = "".join(f"{len(c)}s{code}" for c, code in zip(layout.consts, layout.codes))
        template = [self.head]
        for const in layout.consts * n:
            template += (const, None)
        self.template = template
        self.spare = []
        self.types = [_CELL_TYPES[code] for code in layout.codes] * n
        self.pack = struct.Struct(f"<{len(self.head)}s" + cells * n).pack


#: (row layout, n) → :class:`_FixedPlan`, the one cache of the
#: fixed-layout lane.  A node reports the same few UE/bearer counts
#: period after period; the caps bound the table under adversarial
#: counts: a full table starts over (so plans of rebuilt kernels cannot
#: crowd out live ones), and a plan of more values than the widest kept
#: is built for its call only.
_FIXED_PLANS: Dict[Tuple[_RowLayout, int], _FixedPlan] = {}
_FIXED_PLANS_MAX = 64
_FIXED_PLAN_WIDEST = 4096


def _fixed_plan(layout: _RowLayout, n: int) -> _FixedPlan:
    plan = _FIXED_PLANS.get((layout, n))
    if plan is None:
        plan = _FixedPlan(b"\x07" + _I.pack(n) + _I.pack(layout.size) * n)
        if n * len(layout.codes) <= _FIXED_PLAN_WIDEST:
            if len(_FIXED_PLANS) >= _FIXED_PLANS_MAX:
                _FIXED_PLANS.clear()
            _FIXED_PLANS[(layout, n)] = plan
    return plan


def _fseq_fixed(fn, layout: _RowLayout, items) -> Optional[bytes]:
    """flat list chunk of a fixed-layout sequence (DESIGN.md §11).

    :class:`Rows` with ``layout``'s keys whose every value has its
    cell's exact type are one ``pack`` of the whole chunk.  Everything
    else takes the list lane — a list of dicts through the element
    encoder ``fn``, and rows it would deoptimize (a bool, an ``IntEnum``
    or a float in an int cell, an int in a float cell, a value outside
    int64) lowered to that list first — so both lanes write one wire.
    """
    if type(items) is Rows:
        values = items.values
        if items.keys == layout.keys:
            n = len(values) // len(layout.codes)
            plan = _fixed_plan(layout, n)
            if plan.pack is None:
                plan.set_up_rows(layout, n)
            if list(map(type, values)) == plan.types:
                try:
                    args = plan.spare.pop()
                except IndexError:  # first use, or every copy busy on another thread
                    args = plan.template[:]
                args[2::2] = values
                try:
                    return plan.pack(*args)
                except struct.error:  # outside int64: the list lane deoptimizes
                    pass
                finally:
                    plan.spare.append(args)
        items = items.to_value()
    if type(items) is not list:
        return None
    parts = [_fixed_plan(layout, len(items)).head]
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


def _dfseq_map(fn, data: bytes, o: int, n: int, end: int):
    """flat list read via generated element decoder; (list, o) or None.
    ``end`` is ``len(data)``, taken once by the calling kernel."""
    if o + 4 * n > end:
        return None
    sizes = struct.unpack_from("<%dI" % n, data, o)
    o += 4 * n
    out = []
    ap = out.append
    for size in sizes:
        r = fn(data, o, end)
        if r is None:
            return None
        v, no = r
        if no - o != size:
            return None
        ap(v)
        o = no
    return out, o


def _dfseq_str(data: bytes, o: int, n: int, end: int):
    """flat list-of-str read; (list, o) or None."""
    if o + 4 * n > end:
        return None
    sizes = struct.unpack_from("<%dI" % n, data, o)
    o += 4 * n
    out = []
    ap = out.append
    for size in sizes:
        if o + 5 > end or data[o] != 5:
            return None
        ln = _I.unpack_from(data, o + 1)[0]
        if size != 5 + ln or o + size > end:
            return None
        try:
            ap(data[o + 5:o + size].decode("utf-8"))
        except UnicodeDecodeError:
            return None
        o += size
    return out, o


def _dfstrmap(data: bytes, o: int, n: int, end: int):
    """flat str→str table read; (dict, o) or None."""
    sizes = []
    keys = []
    out = {}
    try:
        for _ in range(n):
            if o + 2 > end:
                return None
            klen = _H.unpack_from(data, o)[0]
            if o + 6 + klen > end:
                return None
            keys.append(data[o + 2:o + 2 + klen].decode("utf-8"))
            sizes.append(_I.unpack_from(data, o + 2 + klen)[0])
            o += 6 + klen
        for key, size in zip(keys, sizes):
            if o + 5 > end or data[o] != 5:
                return None
            ln = _I.unpack_from(data, o + 1)[0]
            if size != 5 + ln or o + size > end:
                return None
            out[key] = data[o + 5:o + size].decode("utf-8")
            o += size
    except UnicodeDecodeError:
        return None
    return out, o


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


def _dpstrmap(data: bytes, o: int, n: int, N: int):
    """PER str→str table read; (dict, o) or None."""
    out = {}
    for _ in range(n):
        if o >= N:
            return None
        kl = data[o]
        if kl >= 0x80:
            return None
        kraw = data[o + 1:o + 1 + kl]
        o += 1 + kl
        if len(kraw) != kl or o >= N or data[o] & 0xF0 != 0x50:
            return None
        r = _doct(data, o + 1, N)
        if r is None:
            return None
        vraw, o = r
        try:
            out[kraw.decode("utf-8")] = vraw.decode("utf-8")
        except UnicodeDecodeError:
            return None
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
    "_pseq_rows": _pseq_rows,
    "_pseq_objs": _pseq_objs,
    "_dvl": _dvl,
    "_dfrag": _dfrag,
    "_doct": _doct,
    "_dpseq_int": _dpseq_int,
    "_dpseq_str": _dpseq_str,
    "_fseq_int": _fseq_int,
    "_fseq_str": _fseq_str,
    "_fseq_map": _fseq_map,
    "_fseq_fixed": _fseq_fixed,
    "_RowLayout": _RowLayout,
    "_Rows": Rows,
    "_StructError": struct.error,
    "_fopt_int": _fopt_int,
    "_fstrmap": _fstrmap,
    "_dfseq_int": _dfseq_int,
    "_dfseq_map": _dfseq_map,
    "_dfseq_str": _dfseq_str,
    "_dfstrmap": _dfstrmap,
    "_pstrmap": _pstrmap,
    "_dpstrmap": _dpstrmap,
}
