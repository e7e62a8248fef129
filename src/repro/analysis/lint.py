"""repro-lint driver: file walking, pragmas, CLI.

Usage (from the repo root)::

    PYTHONPATH=src python -m repro.analysis.lint              # human output
    PYTHONPATH=src python -m repro.analysis.lint --json       # machine output

Exit status: 0 when no (non-suppressed) findings, 1 when there are, 2
on usage errors.  A justified exception is a pragma at the site, with
its reason::

    risky_call()  # repro-lint: disable=RL001,RL005 — why the call is owed

A pragma on its own line applies to the next line; ``disable-file=``
within the first ten lines suppresses a code for the whole file.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.config import ALL_ROOTS, RULE_SCOPES
from repro.analysis.rules import RULES, Finding, ParsedFile

_PRAGMA = re.compile(r"#\s*repro-lint:\s*(disable|disable-file)=([A-Z0-9,\s]+)")


# -- pragmas ----------------------------------------------------------


def _pragmas(lines: Sequence[str]) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Per-line and per-file disabled codes.

    Returns (line → codes) with 1-based line numbers; a pragma that is
    the whole line also covers the following line.
    """
    by_line: Dict[int, Set[str]] = {}
    file_wide: Set[str] = set()
    for number, line in enumerate(lines, start=1):
        match = _PRAGMA.search(line)
        if not match:
            continue
        codes = {code.strip() for code in match.group(2).split(",") if code.strip()}
        if match.group(1) == "disable-file":
            if number <= 10:
                file_wide.update(codes)
            continue
        by_line.setdefault(number, set()).update(codes)
        if line.strip().startswith("#"):
            by_line.setdefault(number + 1, set()).update(codes)
    return by_line, file_wide


def _suppressed(finding: Finding, by_line: Dict[int, Set[str]], file_wide: Set[str]) -> bool:
    if finding.code in file_wide:
        return True
    return finding.code in by_line.get(finding.line, ())


# -- driver -----------------------------------------------------------


def _relpath(path: Path, root: Path) -> str:
    return path.resolve().relative_to(root.resolve()).as_posix()


def iter_python_files(paths: Iterable[Path]) -> Iterable[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def parse_file(path: Path, root: Path) -> ParsedFile:
    text = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(text)
    except SyntaxError:
        tree = None
    return ParsedFile(path=_relpath(path, root), lines=text.splitlines(), tree=tree)


def _in_scope(relpath: str, scopes: Tuple[str, ...]) -> bool:
    return any(relpath.startswith(prefix) for prefix in scopes)


def lint_paths(
    paths: Sequence[Path],
    root: Path,
    rules: Optional[Sequence[str]] = None,
) -> Tuple[List[Finding], List[Finding]]:
    """Run every (selected) rule over every file under ``paths``.

    Returns ``(findings, suppressed)``: pragma-suppressed findings are
    split out.
    """
    selected = {code: RULES[code] for code in (rules or sorted(RULES))}
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    files: Dict[str, ParsedFile] = {}
    raw: List[Finding] = []
    for path in iter_python_files(paths):
        parsed = parse_file(path, root)
        files[parsed.path] = parsed
        for code, rule in selected.items():
            if _in_scope(parsed.path, RULE_SCOPES[code]):
                raw.extend(rule.check(parsed))
    # A cross-file rule runs only when the walk covered its whole scope.
    for code, rule in selected.items():
        scopes = RULE_SCOPES[code]
        if hasattr(rule, "check_tree") and all(_walked(s, paths, root) for s in scopes):
            in_scope = [f for f in files.values() if _in_scope(f.path, scopes)]
            raw.extend(rule.check_tree(in_scope))
    pragmas = {path: _pragmas(parsed.lines) for path, parsed in files.items()}
    for finding in raw:
        (suppressed if _suppressed(finding, *pragmas[finding.path]) else findings).append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings, suppressed


def _walked(scope: str, paths: Sequence[Path], root: Path) -> bool:
    """Whether one of ``paths`` contains the scope prefix ``scope``."""
    target = (root / scope).resolve()
    for path in paths:
        try:
            target.relative_to(path.resolve())
        except ValueError:
            continue
        return True
    return False


# -- CLI --------------------------------------------------------------


def _human(findings: Sequence[Finding]) -> str:
    out = [f"{f.location()} {f.code} {f.message}" for f in findings]
    return "\n".join(out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST lint for repo concurrency/codec contracts (RL001, RL002, RL005, RL007)",
    )
    parser.add_argument(
        "paths", nargs="*", help=f"files/dirs to lint (default: {', '.join(ALL_ROOTS)})"
    )
    parser.add_argument("--root", default=".", help="repo root for relative paths")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--rules", help="comma-separated subset of rule codes to run"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for code in sorted(RULES):
            print(f"{code}  {RULES[code].summary}")
        return 0

    root = Path(args.root)
    if not root.is_dir():
        print(f"repro-lint: --root {args.root!r} is not a directory", file=sys.stderr)
        return 2
    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        paths = [root / sub for sub in ALL_ROOTS if (root / sub).is_dir()]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"repro-lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    rules = None
    if args.rules:
        rules = [code.strip() for code in args.rules.split(",") if code.strip()]
        unknown = [code for code in rules if code not in RULES]
        if unknown:
            print(f"repro-lint: unknown rule(s): {', '.join(unknown)}", file=sys.stderr)
            return 2

    findings, suppressed = lint_paths(paths, root, rules=rules)
    if args.json:
        print(
            json.dumps(
                {
                    "findings": [vars(f) for f in findings],
                    "suppressed": [vars(f) for f in suppressed],
                    "summary": {"findings": len(findings), "suppressed": len(suppressed)},
                },
                indent=2,
            )
        )
    else:
        if findings:
            print(_human(findings))
        print(f"repro-lint: {len(findings)} finding(s), {len(suppressed)} suppressed")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
