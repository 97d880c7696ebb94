"""Tests for the repo-native lint (repro.devtools.lint).

Every rule has a red fixture under ``tests/fixtures/lint/`` carrying
``# expect: CODE`` markers on the exact lines the rule must flag; the
tests assert the found ``(code, line)`` set equals the annotated set,
so both false negatives *and* false positives (or drifting line
anchors) fail loudly.
"""

import json
import re
from pathlib import Path

import pytest

from repro.devtools.config import LintConfig, default_config_path
from repro.devtools.lint import (
    REGISTRY,
    UNKNOWN_PRAGMA_CODE,
    lint_paths,
    lint_source,
    main,
    pragma_lines,
)

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
REPO_ROOT = Path(__file__).resolve().parents[1]

EXPECT_RE = re.compile(r"expect:\s*([A-Z]{2,4}\d{3})")


def fixture_config() -> LintConfig:
    """Declarations matching the fixture files' docstrings."""
    return LintConfig.from_dict({
        "hot": [
            {"file": "tests/fixtures/lint/hot_kernel_bad.py"},
            {"file": "tests/fixtures/lint/clean.py"},
        ],
        "forksafety": {
            "files": ["tests/fixtures/lint/fork_safety_bad.py"],
            "worker_functions": ["_worker_task"],
            "allowed_worker_globals": ["_STATE"],
            "unpicklable_factories": ["VectorHeapFile"],
        },
        "api": {
            "frozen_dataclass_files": ["tests/fixtures/lint/api_bad.py"],
        },
    })


def expectations(path: Path) -> set[tuple[str, int]]:
    """Parse the ``# expect: CODE`` markers into a (code, line) set."""
    expected: set[tuple[str, int]] = set()
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        for code in EXPECT_RE.findall(line):
            expected.add((code, lineno))
    return expected


def run_fixture(name: str):
    path = FIXTURES / name
    return path, lint_source(str(path),
                             path.read_text(encoding="utf-8"),
                             fixture_config())


class TestRedFixtures:
    """Known-bad snippets must produce exactly the annotated findings."""

    @pytest.mark.parametrize("name", ["hot_kernel_bad.py",
                                      "fork_safety_bad.py", "api_bad.py"])
    def test_findings_match_annotations(self, name):
        path, result = run_fixture(name)
        found = {(f.code, f.line) for f in result.findings}
        assert found == expectations(path)
        assert not result.suppressed

    @pytest.mark.parametrize("code", sorted(REGISTRY))
    def test_every_rule_fires_on_some_fixture(self, code):
        all_codes = set()
        for name in ("hot_kernel_bad.py", "fork_safety_bad.py",
                     "api_bad.py"):
            _, result = run_fixture(name)
            all_codes.update(f.code for f in result.findings)
        assert code in all_codes, f"no fixture exercises {code}"

    def test_findings_are_errors(self):
        _, result = run_fixture("hot_kernel_bad.py")
        assert result.findings and all(
            f.severity == "error" for f in result.findings)
        assert not result.clean


class TestCleanFixture:
    def test_vectorised_code_stays_quiet_even_when_hot(self):
        path, result = run_fixture("clean.py")
        assert result.findings == []
        assert result.suppressed == []
        assert result.clean


class TestPragmas:
    def test_pragma_suppresses_same_line_finding(self):
        _, result = run_fixture("pragmas.py")
        surviving_errors = [f for f in result.findings
                            if f.severity == "error"]
        assert surviving_errors == []
        suppressed = sorted((f.code for f in result.suppressed))
        assert suppressed == ["API301", "API302", "API302", "API302"]

    def test_unknown_pragma_code_warns(self):
        path, result = run_fixture("pragmas.py")
        warnings = [f for f in result.findings
                    if f.code == UNKNOWN_PRAGMA_CODE]
        assert len(warnings) == 1
        assert warnings[0].severity == "warning"
        assert "HK999" in warnings[0].message
        assert (warnings[0].line
                in {line for _, line in expectations(path)})
        # Warnings never affect the exit-status notion of clean.
        assert result.clean

    def test_pragma_inside_string_literal_is_not_a_pragma(self):
        path = FIXTURES / "pragmas.py"
        source = path.read_text(encoding="utf-8")
        disabled, _ = pragma_lines(source, str(path))
        string_line = next(
            lineno for lineno, line in enumerate(source.splitlines(), 1)
            if line.startswith("PRAGMA_TEXT"))
        assert string_line not in disabled

    def test_multiple_codes_one_pragma(self):
        source = (
            "def f(a=[], b={}):  # lint: disable=API302, API301\n"
            "    return a, b\n")
        result = lint_source("x.py", source, fixture_config())
        assert [f.code for f in result.suppressed] == ["API302", "API302"]
        assert [f.code for f in result.findings] == []


class TestConfig:
    def test_suffix_matching(self):
        config = fixture_config()
        assert config.hot_decl_for(
            str(FIXTURES / "hot_kernel_bad.py")) is not None
        assert config.hot_decl_for(
            "/elsewhere/not_hot_kernel_bad.py") is None

    def test_function_include_list(self):
        config = LintConfig.from_dict({
            "hot": [{"file": "m.py", "functions": ["Klass.fast"],
                     "exclude": ["Klass.fast.helper"]}]})
        decl = config.hot_decl_for("src/m.py")
        assert decl.applies_to("Klass.fast")
        assert decl.applies_to("Klass.fast.inner")
        assert not decl.applies_to("Klass.fast.helper")
        assert not decl.applies_to("Klass.slow")

    def test_committed_config_loads_and_covers_the_hot_path(self):
        config = LintConfig.load(default_config_path())
        assert config.hot_decl_for("src/repro/core/filters.py")
        assert config.hot_decl_for("src/repro/btree/packed.py")
        assert config.forksafety.covers("src/repro/core/procpool.py")
        assert config.api.requires_frozen("src/repro/core/spec.py")


class TestWholeTree:
    def test_src_repro_is_lint_clean(self):
        """The acceptance criterion: the shipped tree lints clean."""
        result = lint_paths([REPO_ROOT / "src" / "repro"])
        errors = [f for f in result.findings if f.severity == "error"]
        assert errors == [], "\n".join(f.render() for f in errors)

    def test_in_tree_pragmas_all_justified(self):
        """Every committed pragma suppresses a real finding (no dead
        pragmas) and sits next to a justification comment block."""
        result = lint_paths([REPO_ROOT / "src" / "repro"])
        assert result.suppressed, "expected in-tree justified pragmas"
        for finding in result.suppressed:
            lines = Path(finding.path).read_text(
                encoding="utf-8").splitlines()
            above = "\n".join(lines[max(0, finding.line - 5):
                                    finding.line - 1])
            assert "#" in above, (
                f"pragma at {finding.path}:{finding.line} lacks a "
                f"justification comment")


class TestCli:
    def test_json_output_and_exit_code(self, capsys, tmp_path):
        config_path = tmp_path / "hotpaths.toml"
        config_path.write_text(
            '[[hot]]\nfile = "tests/fixtures/lint/hot_kernel_bad.py"\n',
            encoding="utf-8")
        status = main([str(FIXTURES / "hot_kernel_bad.py"),
                       "--config", str(config_path), "--format", "json"])
        assert status == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is False
        assert payload["counts"]["errors"] == len(payload["findings"])
        codes = {f["code"] for f in payload["findings"]}
        assert codes == {"HK101", "HK102", "HK103", "HK104", "HK105"}

    def test_clean_run_exits_zero_and_writes_report(self, capsys,
                                                    tmp_path):
        report = tmp_path / "report.json"
        status = main([str(FIXTURES / "clean.py"),
                       "--report", str(report)])
        assert status == 0
        assert json.loads(report.read_text(encoding="utf-8"))["clean"]

    def test_missing_path_is_usage_error(self, capsys):
        assert main([str(FIXTURES / "no_such_file.py")]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in REGISTRY:
            assert code in out
