"""repro-lint analyzer tests: per-rule fixtures, pragmas, CLI.

Fixture snippets are written into a tmp tree shaped like the repo
(``src/repro/...``) because RL002–RL005 are scoped to production code.
The last test class pins the real repo: the full tree lints clean.
"""

import json
import textwrap
from pathlib import Path

from repro.analysis.config import RULE_SCOPES
from repro.analysis.lint import lint_paths, main
from repro.analysis.rules import RULES

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_lint(tmp_path, relpath, source, rules=None):
    """Write one fixture file and lint the tmp tree."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return lint_paths([tmp_path], tmp_path, rules)


def codes(findings):
    return [f.code for f in findings]


class TestRL001WallClock:
    def test_time_time_flagged(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "src/repro/mod.py",
            """
            import time
            deadline = time.time() + 5.0
            """,
        )
        assert codes(findings) == ["RL001"]
        assert "monotonic" in findings[0].message

    def test_module_alias_and_from_import_flagged(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "src/repro/mod.py",
            """
            import time as clock
            from time import time as now
            a = clock.time()
            b = now()
            """,
        )
        assert codes(findings) == ["RL001", "RL001"]

    def test_monotonic_clean(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "src/repro/mod.py",
            """
            import time
            deadline = time.monotonic() + 5.0
            elapsed = time.perf_counter()
            """,
        )
        assert findings == []

    def test_unrelated_dot_time_clean(self, tmp_path):
        # obj.time() where obj is not the time module must not match.
        findings, _ = run_lint(
            tmp_path,
            "src/repro/mod.py",
            """
            import time
            stamp = record.time()
            """,
        )
        assert findings == []

    def test_applies_to_tests_too(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "tests/test_mod.py",
            """
            import time
            deadline = time.time() + 5.0
            """,
        )
        assert codes(findings) == ["RL001"]


class TestRL002BroadExcept:
    def test_except_exception_flagged(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "src/repro/mod.py",
            """
            try:
                decode(b"")
            except Exception:
                pass
            """,
        )
        assert codes(findings) == ["RL002"]
        assert "CodecError" in findings[0].message

    def test_bare_and_tuple_flagged(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "src/repro/mod.py",
            """
            try:
                decode(b"")
            except (ValueError, Exception):
                pass
            try:
                decode(b"")
            except:
                pass
            """,
        )
        assert codes(findings) == ["RL002", "RL002"]

    def test_narrow_handlers_clean(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "src/repro/mod.py",
            """
            try:
                decode(b"")
            except CodecError:
                pass
            try:
                decode(b"")
            except (KeyError, ValueError) as exc:
                raise CodecError(str(exc))
            """,
        )
        assert findings == []

    def test_scoped_to_src_only(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "tests/test_mod.py",
            """
            try:
                decode(b"")
            except Exception:
                pass
            """,
        )
        assert findings == []


class TestRL005MetricRegistry:
    def test_undeclared_literal_flagged(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "src/repro/mod.py",
            """
            n = counters.get_counter("server.rx.no_such_metric")
            """,
        )
        assert codes(findings) == ["RL005"]
        assert "server.rx.no_such_metric" in findings[0].message

    def test_declared_literal_clean(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "src/repro/mod.py",
            """
            n = counters.get_counter("server.rx.decode_error")
            """,
        )
        assert findings == []

    def test_declared_fstring_pattern_clean(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "src/repro/mod.py",
            """
            def track(conn):
                return counters.get_counter(f"overload.conn.{conn}.drops")
            """,
        )
        assert findings == []

    def test_undeclared_fstring_flagged(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "src/repro/mod.py",
            """
            def track(shard):
                return counters.get_counter(f"server.bogus.{shard}.rx")
            """,
        )
        assert codes(findings) == ["RL005"]

    def test_name_resolving_to_literal_clean(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "src/repro/mod.py",
            """
            def track(eof):
                if eof:
                    name = "tcp.close.eof"
                else:
                    name = "tcp.close.framing"
                return counters.get_counter(name)
            """,
        )
        # every assignment to `name` is a declared literal → resolvable.
        assert findings == []

    def test_parameter_name_is_dynamic_finding(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "src/repro/mod.py",
            """
            def track(name):
                return counters.get_counter(name)
            """,
        )
        assert codes(findings) == ["RL005"]
        assert "dynamic" in findings[0].message

    def test_gauge_and_histogram_kinds(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "src/repro/mod.py",
            """
            def track(scope, stage):
                g = metrics.get_gauge(f"queue.{scope}.depth")
                h = metrics.get_histogram(f"trace.{stage}")
                bad = metrics.get_gauge("inproc.shard.depth")
            """,
        )
        assert codes(findings) == ["RL005"]

    REGISTRY = """
        COUNTERS = frozenset({"server.rx.decode_error", "server.rx.never_emitted"})
        COUNTER_PATTERNS = ("tcp.close.{code}",)
        GAUGES = frozenset()
        GAUGE_PATTERNS = ("queue.{scope}.depth",)
        """

    def test_declared_but_unused_flagged_on_the_registry(self, tmp_path):
        (tmp_path / "src/repro/metrics").mkdir(parents=True)
        (tmp_path / "src/repro/metrics/names.py").write_text(textwrap.dedent(self.REGISTRY))
        findings, _ = run_lint(
            tmp_path,
            "src/repro/mod.py",
            """
            def track(reason, scope):
                counters.get_counter("server.rx.decode_error")
                counters.get_counter(f"tcp.close.{reason}")
                return metrics.get_gauge(f"queue.{scope}.depth")
            """,
        )
        assert [(f.code, f.path, f.line) for f in findings] == [
            ("RL005", "src/repro/metrics/names.py", 2)
        ]
        assert "server.rx.never_emitted" in findings[0].message

    def test_a_use_of_the_wrong_kind_does_not_count(self, tmp_path):
        (tmp_path / "src/repro/metrics").mkdir(parents=True)
        (tmp_path / "src/repro/metrics/names.py").write_text(
            'COUNTERS = frozenset()\nGAUGE_PATTERNS = ("queue.{scope}.depth",)\n'
        )
        findings, _ = run_lint(
            tmp_path,
            "src/repro/mod.py",
            """
            def track(scope):
                return counters.get_counter(f"queue.{scope}.depth")
            """,
        )
        assert [f.path for f in findings] == [
            "src/repro/metrics/names.py",  # a gauge nothing emits ...
            "src/repro/mod.py",  # ... and an undeclared counter
        ]

    def test_converse_needs_the_whole_scope_walked(self, tmp_path):
        """Linting the registry alone cannot tell what is emitted."""
        names = tmp_path / "src/repro/metrics/names.py"
        names.parent.mkdir(parents=True)
        names.write_text(textwrap.dedent(self.REGISTRY))
        findings, _ = lint_paths([names], tmp_path)
        assert findings == []


class TestPragmas:
    def test_same_line_pragma_suppresses(self, tmp_path):
        findings, suppressed = run_lint(
            tmp_path,
            "src/repro/mod.py",
            """
            import time
            stamp = time.time()  # repro-lint: disable=RL001
            """,
        )
        assert findings == []
        assert codes(suppressed) == ["RL001"]

    def test_own_line_pragma_covers_next_line(self, tmp_path):
        findings, suppressed = run_lint(
            tmp_path,
            "src/repro/mod.py",
            """
            import time
            # repro-lint: disable=RL001
            stamp = time.time()
            """,
        )
        assert findings == []
        assert codes(suppressed) == ["RL001"]

    def test_pragma_is_code_specific(self, tmp_path):
        findings, suppressed = run_lint(
            tmp_path,
            "src/repro/mod.py",
            """
            import time
            stamp = time.time()  # repro-lint: disable=RL002
            """,
        )
        assert codes(findings) == ["RL001"]
        assert suppressed == []

    def test_disable_file_in_header(self, tmp_path):
        findings, suppressed = run_lint(
            tmp_path,
            "src/repro/mod.py",
            """
            # repro-lint: disable-file=RL001
            import time
            a = time.time()
            b = time.time()
            """,
        )
        assert findings == []
        assert codes(suppressed) == ["RL001", "RL001"]

    def test_disable_file_after_line_ten_ignored(self, tmp_path):
        filler = "\n".join(f"x{i} = {i}" for i in range(12))
        findings, _ = run_lint(
            tmp_path,
            "src/repro/mod.py",
            filler
            + "\n# repro-lint: disable-file=RL001\nimport time\ny = time.time()\n",
        )
        assert codes(findings) == ["RL001"]


class TestRL007HotPathBytesCopy:
    HOT = "src/repro/core/transport/framing.py"

    def test_bytes_of_view_flagged_in_hot_path(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            self.HOT,
            """
            def feed(chunk):
                view = memoryview(chunk)
                return bytes(view)
            """,
        )
        assert codes(findings) == ["RL007"]
        assert "materializes" in findings[0].message

    def test_tobytes_of_view_flagged_in_hot_path(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            self.HOT,
            """
            def feed(chunk, a, b):
                view = memoryview(chunk)
                return view[a:b].tobytes()
            """,
        )
        assert codes(findings) == ["RL007"]
        assert ".tobytes()" in findings[0].message

    def test_pragma_with_reason_suppresses(self, tmp_path):
        findings, suppressed = run_lint(
            tmp_path,
            self.HOT,
            """
            def feed(chunk):
                return bytes(chunk)  # repro-lint: disable=RL007 — queue outlives the caller's buffer
            """,
        )
        assert findings == []
        assert codes(suppressed) == ["RL007"]

    def test_allocations_and_literals_clean(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            self.HOT,
            """
            zeros = bytes(16)
            empty = bytes()
            lit = bytes(b"already-bytes")
            decoded = bytes("x", "utf-8")
            """,
        )
        assert findings == []

    def test_cold_modules_out_of_scope(self, tmp_path):
        # The same construct outside the hot-path scope is fine: cold
        # paths may materialize freely.
        findings, _ = run_lint(
            tmp_path,
            "src/repro/core/server/server.py",
            """
            def snapshot(view):
                return bytes(view)
            """,
        )
        assert findings == []


class TestCli:
    def test_json_output(self, tmp_path, capsys):
        mod = tmp_path / "src" / "repro" / "mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("import time\nstamp = time.time()\n")
        assert main(["--root", str(tmp_path), str(mod), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"] == {"findings": 1, "suppressed": 0}
        assert payload["findings"][0]["code"] == "RL001"
        assert payload["findings"][0]["path"] == "src/repro/mod.py"

    def test_new_violation_still_fails(self, tmp_path, capsys):
        mod = tmp_path / "src" / "repro" / "mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("import time\nstamp = time.monotonic()\n")
        assert main(["--root", str(tmp_path)]) == 0
        mod.write_text(mod.read_text() + "later = time.time()\n")
        assert main(["--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "0 finding(s), 0 suppressed" in out
        assert "1 finding(s), 0 suppressed" in out

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RL001", "RL002", "RL005", "RL007"):
            assert code in out
        # Retired codes are not reused.
        assert set(RULES) == {f"RL00{i}" for i in (1, 2, 5, 7)}

    def test_rules_subset_and_unknown(self, tmp_path, capsys):
        mod = tmp_path / "src" / "repro" / "mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("import time\nstamp = time.time()\n")
        assert main(["--root", str(tmp_path), str(mod), "--rules", "RL002"]) == 0
        assert main(["--root", str(tmp_path), "--rules", "RL999"]) == 2
        capsys.readouterr()

    def test_bad_root_and_missing_path(self, tmp_path, capsys):
        assert main(["--root", str(tmp_path / "nope")]) == 2
        assert main(["--root", str(tmp_path), str(tmp_path / "ghost.py")]) == 2
        capsys.readouterr()


class TestRepoIsClean:
    def test_repo_lints_clean(self, capsys):
        """The whole tree produces zero findings."""
        assert main(["--root", str(REPO_ROOT)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_rule_scopes_cover_all_rules(self):
        assert set(RULE_SCOPES) == set(RULES)
