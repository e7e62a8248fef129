"""repro-lint analyzer tests: per-rule fixtures, pragmas, baseline, CLI.

Fixture snippets are written into a tmp tree shaped like the repo
(``src/repro/...``) because RL002–RL005 are scoped to production code.
The fixture config drops ``generated_required`` so the tmp tree is not
asked to contain the real kernel manifest; the CLI round-trip builds a
valid one instead.  The last two tests pin the real repo: the full
tree must lint clean against the committed baseline, and the committed
kernel manifest must match a fresh render of every codec kernel.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.config import DEFAULT_CONFIG, LintConfig
from repro.analysis.lint import (
    fingerprint,
    lint_paths,
    load_baseline,
    main,
    write_baseline,
)
from repro.analysis.rules import (
    GENERATED_BEGIN,
    GENERATED_END,
    RULES,
    Finding,
    region_digest,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

#: fixture trees do not carry the repo's generated artifacts.
FIXTURE_CONFIG = LintConfig(generated_required=())


def run_lint(tmp_path, relpath, source, rules=None, config=FIXTURE_CONFIG):
    """Write one fixture file and lint the tmp tree."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    findings, suppressed, _files = lint_paths([tmp_path], tmp_path, config, rules)
    return findings, suppressed


def codes(findings):
    return [f.code for f in findings]


def generated_file(body):
    """A file whose generated region carries the correct digest."""
    lines = textwrap.dedent(body).strip("\n").splitlines()
    digest = region_digest(lines)
    return "\n".join(
        [f"{GENERATED_BEGIN}{digest}", *lines, GENERATED_END, ""]
    )


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
        assert "DECODE_ERRORS" in findings[0].message

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
            except DECODE_ERRORS:
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


class TestRL004BoundedBlocking:
    def test_unbounded_get_in_loop_flagged(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "src/repro/mod.py",
            """
            class Shard:
                def _run(self):
                    while True:
                        item = self._queue.get()
            """,
        )
        assert codes(findings) == ["RL004"]
        assert "timeout" in findings[0].message

    def test_bounded_calls_clean(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "src/repro/mod.py",
            """
            class Shard:
                def _run(self):
                    while True:
                        item = self._queue.get(timeout=0.05)
                        ready = self._selector.select(0.1)
            """,
        )
        assert findings == []

    def test_non_loop_function_ignored(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "src/repro/mod.py",
            """
            class Shard:
                def drain(self):
                    return self._queue.get()
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
        findings, _, _ = lint_paths([names], tmp_path, FIXTURE_CONFIG)
        assert findings == []


class TestRL006GeneratedRegion:
    def test_intact_region_clean(self, tmp_path):
        findings, _ = run_lint(
            tmp_path,
            "src/repro/gen.py",
            generated_file("KERNELS = {'a': 1}"),
        )
        assert findings == []

    def test_hand_edit_flagged(self, tmp_path):
        text = generated_file("KERNELS = {'a': 1}")
        tampered = text.replace("{'a': 1}", "{'a': 2}")
        findings, _ = run_lint(tmp_path, "src/repro/gen.py", tampered)
        assert codes(findings) == ["RL006"]
        assert "does not match" in findings[0].message

    def test_missing_end_marker_flagged(self, tmp_path):
        text = generated_file("KERNELS = {'a': 1}").replace(GENERATED_END, "")
        findings, _ = run_lint(tmp_path, "src/repro/gen.py", text)
        assert codes(findings) == ["RL006"]
        assert "no matching" in findings[0].message

    def test_required_file_without_markers_flagged(self, tmp_path):
        config = LintConfig(generated_required=("src/repro/gen.py",))
        findings, _ = run_lint(
            tmp_path, "src/repro/gen.py", "KERNELS = {}\n", config=config
        )
        assert codes(findings) == ["RL006"]
        assert "no generated-region markers" in findings[0].message

    def test_required_file_missing_flagged(self, tmp_path):
        config = LintConfig(generated_required=("src/repro/gen.py",))
        findings, _ = run_lint(
            tmp_path, "src/repro/other.py", "x = 1\n", config=config
        )
        assert codes(findings) == ["RL006"]
        assert "missing" in findings[0].message


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


class TestBaseline:
    def _fixture_tree(self, tmp_path):
        mod = tmp_path / "src" / "repro" / "mod.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("import time\nstamp = time.time()\n")
        # the required generated artifact, rendered validly so the
        # default config does not add a missing-file finding.
        manifest = tmp_path / "src" / "repro" / "core" / "codec" / "kernel_manifest.py"
        manifest.parent.mkdir(parents=True)
        manifest.write_text(generated_file("KERNEL_SHA256 = {}"))
        return mod

    def test_write_then_rerun_is_clean(self, tmp_path, capsys):
        self._fixture_tree(tmp_path)
        assert main(["--root", str(tmp_path), "--write-baseline"]) == 0
        assert main(["--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "0 new finding(s), 1 baselined" in out

    def test_new_violation_still_fails(self, tmp_path, capsys):
        mod = self._fixture_tree(tmp_path)
        assert main(["--root", str(tmp_path), "--write-baseline"]) == 0
        mod.write_text(mod.read_text() + "later = time.time()\n")
        assert main(["--root", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "1 new finding(s), 1 baselined" in out

    def test_no_baseline_flag_surfaces_everything(self, tmp_path, capsys):
        self._fixture_tree(tmp_path)
        assert main(["--root", str(tmp_path), "--write-baseline"]) == 0
        assert main(["--root", str(tmp_path), "--no-baseline"]) == 1

    def test_fingerprint_survives_line_moves(self):
        before = Finding("RL001", "src/repro/mod.py", 10, 4, "msg")
        after = Finding("RL001", "src/repro/mod.py", 42, 4, "msg")
        text = "stamp = time.time()"
        assert fingerprint(before, text, 0) == fingerprint(after, text, 0)
        assert fingerprint(before, text, 0) != fingerprint(before, text, 1)

    def test_round_trip_preserves_comments(self, tmp_path):
        finding = Finding("RL001", "src/repro/mod.py", 2, 8, "msg")
        path = tmp_path / "baseline.json"
        write_baseline(path, [finding], ["abcd" * 4])
        loaded = load_baseline(path)
        assert loaded["abcd" * 4]["code"] == "RL001"
        loaded["abcd" * 4]["comment"] = "kept on purpose"
        path.write_text(
            json.dumps({"version": 1, "entries": list(loaded.values())})
        )
        write_baseline(path, [finding], ["abcd" * 4], load_baseline(path))
        assert load_baseline(path)["abcd" * 4]["comment"] == "kept on purpose"


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
        code = main(
            ["--root", str(tmp_path), str(mod), "--json", "--no-baseline"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"] == {"new": 1, "baselined": 0, "suppressed": 0}
        assert payload["new"][0]["code"] == "RL001"
        assert payload["new"][0]["path"] == "src/repro/mod.py"

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RL001", "RL002", "RL004", "RL005", "RL006", "RL007"):
            assert code in out
        # RL003 is retired, not reused.
        assert set(RULES) == {f"RL00{i}" for i in (1, 2, 4, 5, 6, 7)}

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
    def test_repo_lints_clean_against_committed_baseline(self, capsys):
        """The whole tree must produce zero new findings."""
        assert main(["--root", str(REPO_ROOT)]) == 0
        out = capsys.readouterr().out
        assert "0 new finding(s)" in out

    def test_kernel_manifest_matches_fresh_render(self):
        """The committed manifest pins the *current* kernel sources: a
        codegen change without `manifest --write` fails here, the same
        drift RL006 catches for hand edits."""
        from repro.core.codec.kernel_manifest import KERNEL_SHA256
        from repro.core.codec.manifest import kernel_digests

        fresh = kernel_digests()
        assert KERNEL_SHA256 == fresh

    def test_manifest_cli_in_a_fresh_interpreter_prints_the_committed_file(self):
        """Schemas register when their declaring modules are imported;
        the registry accessors load those modules themselves, so a
        process that imports nothing but the manifest CLI still sees
        every shape (a short registry would silently shrink this file
        and the collection-time parametrizations over it)."""
        import os
        import subprocess
        import sys

        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        out = subprocess.run(
            [sys.executable, "-m", "repro.core.codec.manifest"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        committed = REPO_ROOT / "src" / "repro" / "core" / "codec" / "kernel_manifest.py"
        assert out == committed.read_text(encoding="utf-8")

    def test_default_config_scopes_cover_all_rules(self):
        assert set(DEFAULT_CONFIG.rule_scopes) == set(RULES)
