"""repro-lint rule catalog (RL001, RL002, RL005, RL007).

Each rule is a small class with a ``code``, a one-line ``summary`` and
a ``check(parsed)`` generator yielding :class:`Finding` objects.  Rules
register themselves into :data:`RULES` at import; the driver in
:mod:`repro.analysis.lint` handles scoping, pragmas and output formats,
so a rule only encodes the invariant itself.  DESIGN.md §12 maps each
rule to the PR-5/PR-6 contract it guards.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

__all__ = ["Finding", "ParsedFile", "RULES", "register"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    code: str
    path: str  # forward-slash path relative to the repo root
    line: int  # 1-based; 0 for whole-file findings
    col: int
    message: str

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


@dataclass
class ParsedFile:
    """A file the driver hands to every in-scope rule."""

    path: str
    lines: List[str]
    tree: Optional[ast.AST]  # None when the file does not parse


RULES: Dict[str, "object"] = {}


def register(rule_cls):
    """Class decorator adding a rule instance to the registry."""
    rule = rule_cls()
    if rule.code in RULES:
        raise ValueError(f"duplicate rule code {rule.code}")
    RULES[rule.code] = rule
    return rule_cls


# -- RL001 ------------------------------------------------------------


@register
class NoWallClockRule:
    """Deadlines and durations must use the monotonic clock.

    ``time.time()`` jumps under NTP slews and broke the fig7/fig9
    deadline math once already (PR 3).  Genuine wall-clock needs
    (human-facing timestamps) carry a pragma explaining why.
    """

    code = "RL001"
    summary = "time.time() used; deadlines/durations require time.monotonic()"

    def check(self, parsed: ParsedFile) -> Iterator[Finding]:
        if parsed.tree is None:
            return
        module_aliases = set()  # names bound to the time module
        func_aliases = set()  # names bound to the time.time function
        for node in ast.walk(parsed.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        module_aliases.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name == "time":
                            func_aliases.add(alias.asname or "time")
        for node in ast.walk(parsed.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            hit = False
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "time"
                and isinstance(func.value, ast.Name)
                and func.value.id in module_aliases
            ):
                hit = True
            elif isinstance(func, ast.Name) and func.id in func_aliases:
                hit = True
            if hit:
                yield Finding(
                    self.code,
                    parsed.path,
                    node.lineno,
                    node.col_offset,
                    "time.time() is wall-clock and jumps under NTP; use "
                    "time.monotonic() for deadlines and durations "
                    "(pragma-disable only for human-facing timestamps)",
                )


# -- RL002 ------------------------------------------------------------


@register
class NoBroadExceptRule:
    """Decode/dispatch paths must catch ``CodecError``, not all.

    Every decoder, and every SM payload read under its schema, refuses
    malformed input with ``CodecError`` and nothing else.  A broad
    ``except Exception`` in a containment handler swallows programming
    errors (AttributeError from a refactor, assertion failures) along
    with the malformed input it is meant to contain; this rule keeps
    containment handlers narrow.
    """

    code = "RL002"
    summary = "broad exception handler; catch CodecError or concrete types"

    _BROAD = {"Exception", "BaseException"}

    def _names(self, node: Optional[ast.expr]) -> Iterator[str]:
        if node is None:
            yield "<bare>"
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Tuple):
            for elt in node.elts:
                yield from self._names(elt)

    def check(self, parsed: ParsedFile) -> Iterator[Finding]:
        if parsed.tree is None:
            return
        for node in ast.walk(parsed.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            names = list(self._names(node.type))
            if "<bare>" in names or self._BROAD.intersection(names):
                caught = "bare except" if "<bare>" in names else "except " + ", ".join(names)
                yield Finding(
                    self.code,
                    parsed.path,
                    node.lineno,
                    node.col_offset,
                    f"{caught}: containment handlers must catch CodecError "
                    "(or the concrete exceptions); broad handlers hide "
                    "programming errors as contained decode faults",
                )


# -- RL005 ------------------------------------------------------------


@register
class MetricRegistryRule:
    """Metric names must be declared in ``repro.metrics.names``.

    Guards the stale-gauge/typo'd-counter bug class: a name used at a
    call site but absent from the registry is either a typo or an
    undeclared instrument nobody will find in an export.  Conversely
    (:meth:`check_tree`), a declaration no call site emits is a retired
    instrument an export would still promise.
    """

    code = "RL005"
    summary = "metric name not declared in repro.metrics.names, or declared and never emitted"

    _KINDS = {
        "get_counter": "counter",
        "get_gauge": "gauge",
        "get_histogram": "histogram",
    }

    def _call_kind(self, func: ast.expr) -> Optional[str]:
        if isinstance(func, ast.Name):
            return self._KINDS.get(func.id)
        if isinstance(func, ast.Attribute):
            return self._KINDS.get(func.attr)
        return None

    @staticmethod
    def _fstring_parts(node: ast.JoinedStr) -> Optional[List[str]]:
        """Literal pieces around placeholders, or None if odd shapes."""
        parts: List[str] = [""]
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                parts[-1] += value.value
            elif isinstance(value, ast.FormattedValue):
                parts.append("")
            else:
                return None
        return parts

    def _resolutions(
        self, scope: ast.AST, name: str
    ) -> Optional[List[ast.expr]]:
        """All values assigned to ``name`` inside ``scope``; None when
        any assignment shape is beyond simple ``name = <expr>``."""
        values: List[ast.expr] = []
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        values.append(node.value)
                    elif isinstance(target, (ast.Tuple, ast.List)):
                        for elt in target.elts:
                            if isinstance(elt, ast.Name) and elt.id == name:
                                return None
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                target = node.target
                if isinstance(target, ast.Name) and target.id == name:
                    if node.value is None:
                        return None
                    values.append(node.value)
            elif isinstance(node, ast.arg) and node.arg == name:
                return None  # parameter: caller-supplied, dynamic
        return values or None

    def _calls(self, parsed: ParsedFile):
        """``(kind, call, literals)`` per metric call site; ``literals``
        are the Constant/JoinedStr values the name argument resolves to,
        or None when it is dynamic."""
        # enclosing function scope per call node
        scopes: Dict[int, ast.AST] = {}
        for scope in ast.walk(parsed.tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for sub in ast.walk(scope):
                    scopes[id(sub)] = scope
        for node in ast.walk(parsed.tree):
            if not isinstance(node, ast.Call):
                continue
            kind = self._call_kind(node.func)
            if kind is None or not node.args:
                continue
            arg = node.args[0]
            values = [arg]
            if isinstance(arg, ast.Name):
                values = self._resolutions(scopes.get(id(node), parsed.tree), arg.id)
            if values is not None and not all(
                isinstance(value, (ast.Constant, ast.JoinedStr)) for value in values
            ):
                values = None
            yield kind, node, values

    def check(self, parsed: ParsedFile) -> Iterator[Finding]:
        if parsed.tree is None:
            return
        from repro.metrics import names as registry

        for kind, call, values in self._calls(parsed):
            for value in values or (None,):
                message = self._undeclared(registry, kind, value)
                if message:
                    yield Finding(self.code, parsed.path, call.lineno, call.col_offset, message)

    def _undeclared(self, registry, kind: str, value: Optional[ast.expr]) -> Optional[str]:
        """Why the resolved name ``value`` (None: dynamic) fails, if it does."""
        if value is None:
            return (
                f"dynamic {kind} name: the registry check cannot resolve this "
                "argument; use a literal/f-string (declared in "
                "repro.metrics.names) or pragma-disable with a justification"
            )
        if isinstance(value, ast.Constant):
            if isinstance(value.value, str) and registry.declared(kind, value.value):
                return None
            return (
                f"{kind} name {value.value!r} is not declared in "
                "repro.metrics.names; declare it (or its pattern) there"
            )
        parts = self._fstring_parts(value)
        if parts is not None and registry.declared_parts(kind, parts):
            return None
        shown = "{}".join(parts) if parts else "<f-string>"
        return (
            f"{kind} name pattern {shown!r} is not declared in "
            "repro.metrics.names; declare the pattern there"
        )

    def check_tree(self, files: Sequence[ParsedFile]) -> Iterator[Finding]:
        """The converse: every name and pattern declared in the registry
        has a resolved call site of its kind, so a retired instrument
        cannot linger as a declaration."""
        from repro.metrics.names import match_declared

        registry = next((f for f in files if f.path == "src/repro/metrics/names.py"), None)
        if registry is None or registry.tree is None:
            return
        uses: Dict[str, list] = {kind: [] for kind in self._KINDS.values()}
        for parsed in files:
            for kind, _call, values in self._calls(parsed) if parsed.tree else ():
                uses[kind] += [
                    v.value if isinstance(v, ast.Constant) else tuple(self._fstring_parts(v) or ())
                    for v in values or ()
                ]
        for node in registry.tree.body:
            targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
            # COUNTERS / COUNTER_PATTERNS -> "counter", and so on.
            kind = getattr(targets[0], "id", "").split("_")[0].rstrip("S").lower()
            if kind not in uses or node.value is None:
                continue
            for const in ast.walk(node.value):
                if isinstance(const, ast.Constant) and isinstance(const.value, str) and not any(
                    match_declared(const.value, use) for use in uses[kind]
                ):
                    yield Finding(
                        self.code, registry.path, const.lineno, const.col_offset,
                        f"{kind} {const.value!r} is declared but no call site "
                        "under src/repro emits it; delete the declaration",
                    )


# -- RL007 ------------------------------------------------------------


@register
class NoHotPathBytesCopyRule:
    """Hot-path modules must not materialize buffers with ``bytes()``
    or ``.tobytes()``.

    The zero-copy data plane (DESIGN.md §15) threads memoryview and
    bytearray values through framing, the transports and the codec
    dispatchers without copying; one ``bytes(...)`` call on such a
    value, or one ``view.tobytes()``, silently re-introduces the
    O(payload) copy the layer exists to avoid — and keeps "working" forever, visible only as a
    throughput regression.  Genuine materialization points (a queue
    hand-off where the buffer outlives the caller, an unhashable view
    needed as a cache key) carry a pragma stating why the copy is
    owed.
    """

    code = "RL007"
    summary = "bytes(...) or .tobytes() materialization of a buffer in a hot-path module"

    def check(self, parsed: ParsedFile) -> Iterator[Finding]:
        if parsed.tree is None:
            return
        for node in ast.walk(parsed.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "tobytes":
                call = ".tobytes()"
            elif not (isinstance(func, ast.Name) and func.id == "bytes"):
                continue
            elif len(node.args) != 1 or node.keywords:
                # bytes() / bytes(n, encoding, ...) are allocations or
                # decodes, not buffer copies.
                continue
            elif isinstance(node.args[0], ast.Constant):
                # bytes(5) allocates; bytes(b"lit") is the same object.
                continue
            else:
                call = "bytes(...)"
            yield Finding(
                self.code,
                parsed.path,
                node.lineno,
                node.col_offset,
                f"{call} materializes a buffer-protocol value in a "
                "hot-path module: pass the view through (framing, codecs "
                "and transports accept buffer-protocol inputs) or "
                "pragma-disable with the reason the copy is owed",
            )
