"""repro-lint driver: file walking, pragmas, baseline, CLI.

Usage (from the repo root)::

    PYTHONPATH=src python -m repro.analysis.lint              # human output
    PYTHONPATH=src python -m repro.analysis.lint --json       # machine output
    PYTHONPATH=src python -m repro.analysis.lint --write-baseline

Exit status: 0 when no *new* (non-baselined, non-suppressed) findings,
1 when there are, 2 on usage errors.  The baseline file grandfathers
intentional findings; each entry carries a human comment explaining
why the construct is kept.  Suppression at a single site is a pragma::

    risky_call()  # repro-lint: disable=RL001,RL005

A pragma on its own line applies to the next line; ``disable-file=``
within the first ten lines suppresses a code for the whole file.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import re
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.config import ALL_ROOTS, DEFAULT_CONFIG, LintConfig
from repro.analysis.rules import RULES, Finding, ParsedFile

_PRAGMA = re.compile(r"#\s*repro-lint:\s*(disable|disable-file)=([A-Z0-9,\s]+)")

BASELINE_DEFAULT = ".repro-lint-baseline.json"


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


# -- baseline ---------------------------------------------------------


def fingerprint(finding: Finding, line_text: str, occurrence: int) -> str:
    """Stable identity for a finding: code, path, the *text* of the
    offending line (not its number — the baseline survives unrelated
    edits above it) and an occurrence index for duplicates."""
    payload = f"{finding.code}|{finding.path}|{line_text.strip()}|{occurrence}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _fingerprints(findings: Sequence[Finding], files: Dict[str, ParsedFile]) -> List[str]:
    counts: Dict[Tuple[str, str, str], int] = {}
    prints = []
    for finding in findings:
        parsed = files.get(finding.path)
        line_text = ""
        if parsed is not None and 1 <= finding.line <= len(parsed.lines):
            line_text = parsed.lines[finding.line - 1]
        key = (finding.code, finding.path, line_text.strip())
        occurrence = counts.get(key, 0)
        counts[key] = occurrence + 1
        prints.append(fingerprint(finding, line_text, occurrence))
    return prints


def load_baseline(path: Path) -> Dict[str, dict]:
    if not path.exists():
        return {}
    data = json.loads(path.read_text())
    return {entry["fingerprint"]: entry for entry in data.get("entries", [])}


def write_baseline(
    path: Path, findings: Sequence[Finding], prints: Sequence[str],
    old: Optional[Dict[str, dict]] = None,
) -> None:
    old = old or {}
    entries = []
    for finding, fp in zip(findings, prints):
        entry = {
            "fingerprint": fp,
            "code": finding.code,
            "path": finding.path,
            "line": finding.line,
            "comment": old.get(fp, {}).get("comment", "TODO: justify or fix"),
        }
        entries.append(entry)
    entries.sort(key=lambda e: (e["path"], e["line"], e["code"]))
    path.write_text(json.dumps({"version": 1, "entries": entries}, indent=2) + "\n")


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
    return ParsedFile(
        path=_relpath(path, root),
        text=text,
        lines=text.splitlines(),
        tree=tree,
    )


def _in_scope(relpath: str, scopes: Tuple[str, ...]) -> bool:
    return any(relpath.startswith(prefix) for prefix in scopes)


def lint_paths(
    paths: Sequence[Path],
    root: Path,
    config: LintConfig = DEFAULT_CONFIG,
    rules: Optional[Sequence[str]] = None,
) -> Tuple[List[Finding], List[Finding], Dict[str, ParsedFile]]:
    """Run every (selected) rule over every file under ``paths``.

    Returns ``(findings, suppressed, files)``: pragma-suppressed
    findings are split out, baseline filtering is the caller's job.
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
            if _in_scope(parsed.path, config.rule_scopes.get(code, ("",))):
                raw.extend(rule.check(parsed, config))
    # A cross-file rule runs only when the walk covered its whole scope.
    for code, rule in selected.items():
        scopes = config.rule_scopes.get(code, ("",))
        if hasattr(rule, "check_tree") and all(_any_parent_walked(s, paths, root) for s in scopes):
            in_scope = [f for f in files.values() if _in_scope(f.path, scopes)]
            raw.extend(rule.check_tree(in_scope, config))
    pragmas = {path: _pragmas(parsed.lines) for path, parsed in files.items()}
    for finding in raw:
        (suppressed if _suppressed(finding, *pragmas[finding.path]) else findings).append(finding)
    for required in config.generated_required:
        if required not in files and _any_parent_walked(required, paths, root):
            findings.append(
                Finding(
                    "RL006",
                    required,
                    0,
                    0,
                    "required generated file is missing; regenerate it "
                    "(python -m repro.core.codec.manifest --write)",
                )
            )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings, suppressed, files


def _any_parent_walked(required: str, paths: Sequence[Path], root: Path) -> bool:
    target = (root / required).resolve()
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
        description="AST lint for repo concurrency/codec contracts (RL001-RL006)",
    )
    parser.add_argument(
        "paths", nargs="*", help=f"files/dirs to lint (default: {', '.join(ALL_ROOTS)})"
    )
    parser.add_argument("--root", default=".", help="repo root for relative paths")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--baseline",
        default=BASELINE_DEFAULT,
        help="baseline file of grandfathered findings (relative to --root)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true", help="ignore any baseline file"
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record all current findings as the new baseline and exit 0",
    )
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

    findings, suppressed, files = lint_paths(paths, root, rules=rules)
    prints = _fingerprints(findings, files)

    baseline_path = root / args.baseline
    if args.write_baseline:
        old = load_baseline(baseline_path)
        write_baseline(baseline_path, findings, prints, old)
        print(f"repro-lint: wrote {len(findings)} finding(s) to {baseline_path}")
        return 0

    baseline = {} if args.no_baseline else load_baseline(baseline_path)
    new: List[Finding] = []
    grandfathered: List[Finding] = []
    for finding, fp in zip(findings, prints):
        (grandfathered if fp in baseline else new).append(finding)

    if args.json:
        print(
            json.dumps(
                {
                    "new": [vars(f) for f in new],
                    "baselined": [vars(f) for f in grandfathered],
                    "suppressed": [vars(f) for f in suppressed],
                    "summary": {
                        "new": len(new),
                        "baselined": len(grandfathered),
                        "suppressed": len(suppressed),
                    },
                },
                indent=2,
            )
        )
    else:
        if new:
            print(_human(new))
        print(
            f"repro-lint: {len(new)} new finding(s), "
            f"{len(grandfathered)} baselined, {len(suppressed)} suppressed"
        )
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
