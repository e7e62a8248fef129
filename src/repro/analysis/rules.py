"""repro-lint rule catalog (RL001–RL002, RL004–RL007).

Each rule is a small class with a ``code``, a one-line ``summary`` and
a ``check(parsed, config)`` generator yielding :class:`Finding`
objects.  Rules register themselves into :data:`RULES` at import; the
driver in :mod:`repro.analysis.lint` handles scoping, pragmas, the
baseline and output formats, so a rule only encodes the invariant
itself.  DESIGN.md §12 maps each rule to the PR-5/PR-6 contract it
guards.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from repro.analysis.config import LintConfig

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
    text: str
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

    def check(self, parsed: ParsedFile, config: LintConfig) -> Iterator[Finding]:
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
    """Decode/dispatch paths must catch ``DECODE_ERRORS``, not all.

    A broad ``except Exception`` in a containment handler swallows
    programming errors (AttributeError from a refactor, assertion
    failures) along with the malformed-input errors it is meant to
    contain — PR 3 narrowed these once; this rule keeps them narrow.
    """

    code = "RL002"
    summary = "broad exception handler; catch DECODE_ERRORS or concrete types"

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

    def check(self, parsed: ParsedFile, config: LintConfig) -> Iterator[Finding]:
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
                    f"{caught}: containment handlers must catch DECODE_ERRORS "
                    "(or the concrete exceptions); broad handlers hide "
                    "programming errors as contained decode faults",
                )


# -- RL004 ------------------------------------------------------------


@register
class BoundedBlockingRule:
    """Shard selector loops must never block without a timeout.

    An unbounded ``select()``/``wait()``/``get()`` inside a shard loop
    turns shutdown into a hang and starves the wake-pipe protocol; the
    loops are written to poll with small timeouts so ``stop()`` and
    quiesce converge.
    """

    code = "RL004"
    summary = "unbounded blocking call inside a shard loop function"

    def check(self, parsed: ParsedFile, config: LintConfig) -> Iterator[Finding]:
        if parsed.tree is None:
            return
        for node in ast.walk(parsed.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name not in config.loop_functions:
                continue
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if not (
                    isinstance(func, ast.Attribute)
                    and func.attr in config.blocking_calls
                ):
                    continue
                has_bound = bool(call.args) or any(
                    kw.arg == "timeout" for kw in call.keywords
                )
                if not has_bound:
                    yield Finding(
                        self.code,
                        parsed.path,
                        call.lineno,
                        call.col_offset,
                        f".{func.attr}() without a timeout inside loop "
                        f"function {node.name}(): shard loops must stay "
                        "responsive to stop()/wake (pass a timeout)",
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

    def check(self, parsed: ParsedFile, config: LintConfig) -> Iterator[Finding]:
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

    def check_tree(self, files: Sequence[ParsedFile], config: LintConfig) -> Iterator[Finding]:
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


# -- RL006 ------------------------------------------------------------

GENERATED_BEGIN = "# repro-lint: generated begin sha256="
GENERATED_END = "# repro-lint: generated end"


def region_digest(lines: Sequence[str]) -> str:
    """Digest of the lines strictly between the region markers."""
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@register
class GeneratedRegionRule:
    """Generated regions must not be edited by hand.

    A region is delimited by ``# repro-lint: generated begin
    sha256=<hex>`` / ``# repro-lint: generated end``; the digest pins
    the exact content.  Regenerate with the emitting tool (e.g.
    ``python -m repro.core.codec.manifest --write``) instead of
    editing — hand edits desynchronize the artifact from its source of
    truth and the codegen equivalence oath with it.
    """

    code = "RL006"
    summary = "generated region edited by hand (digest mismatch) or malformed"

    def check(self, parsed: ParsedFile, config: LintConfig) -> Iterator[Finding]:
        lines = parsed.lines
        index = 0
        regions = 0
        while index < len(lines):
            stripped = lines[index].strip()
            if not stripped.startswith(GENERATED_BEGIN):
                index += 1
                continue
            declared = stripped[len(GENERATED_BEGIN):].strip()
            begin_line = index + 1
            end = None
            for j in range(index + 1, len(lines)):
                if lines[j].strip() == GENERATED_END:
                    end = j
                    break
            if end is None:
                yield Finding(
                    self.code,
                    parsed.path,
                    begin_line,
                    0,
                    "generated region has no matching "
                    f"{GENERATED_END!r} marker",
                )
                return
            regions += 1
            actual = region_digest(lines[index + 1 : end])
            if actual != declared:
                yield Finding(
                    self.code,
                    parsed.path,
                    begin_line,
                    0,
                    "generated region content does not match its declared "
                    f"sha256 (declared {declared[:12]}…, actual "
                    f"{actual[:12]}…): regenerate with the emitting tool "
                    "instead of editing by hand",
                )
            index = end + 1
        if parsed.path in config.generated_required and regions == 0:
            yield Finding(
                self.code,
                parsed.path,
                1,
                0,
                "file is declared generated but contains no generated-region "
                "markers; regenerate it with the emitting tool",
            )


# -- RL007 ------------------------------------------------------------


@register
class NoHotPathBytesCopyRule:
    """Hot-path modules must not materialize buffers with ``bytes()``.

    The zero-copy data plane (DESIGN.md §15) threads memoryview and
    bytearray values through framing, the transports and the codec
    dispatchers without copying; one ``bytes(...)`` call on such a
    value silently re-introduces the O(payload) copy the layer exists
    to avoid — and keeps "working" forever, visible only as a
    throughput regression.  Genuine materialization points (a queue
    hand-off where the buffer outlives the caller, an unhashable view
    needed as a cache key) carry a pragma stating why the copy is
    owed.
    """

    code = "RL007"
    summary = "bytes(...) materialization of a buffer in a hot-path module"

    def check(self, parsed: ParsedFile, config: LintConfig) -> Iterator[Finding]:
        if parsed.tree is None:
            return
        for node in ast.walk(parsed.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Name) and func.id == "bytes"):
                continue
            if len(node.args) != 1 or node.keywords:
                # bytes() / bytes(n, encoding, ...) are allocations or
                # decodes, not buffer copies.
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant):
                # bytes(5) allocates; bytes(b"lit") is the same object.
                continue
            yield Finding(
                self.code,
                parsed.path,
                node.lineno,
                node.col_offset,
                "bytes(...) materializes a buffer-protocol value in a "
                "hot-path module: pass the view through (framing, codecs "
                "and transports accept buffer-protocol inputs) or "
                "pragma-disable with the reason the copy is owed",
            )
