"""Engine-level tests: suppressions, CLI exit codes, and the repo-wide
cleanliness gate."""

import io
import json
import re
import tokenize
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import all_rules, lint_paths
from repro.lint.engine import PARSE_ERROR, iter_python_files

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
REPO_ROOT = Path(__file__).parent.parent

#: one rule per property; a second check of the same property is a
#: liability (docs/static-analysis.md, "Audit")
RULE_IDS = ["mutable-default", "perf-counter-name", "pickle-safety",
            "spec-drift", "spec-not-frozen", "unordered-iteration",
            "unseeded-random", "wall-clock"]


class TestSuppressions:
    def test_inline_disable_silences_one_line(self):
        findings = lint_paths([FIXTURES / "suppressions.py"],
                              root=FIXTURES,
                              select=["unordered-iteration"])
        # the fixture has two identical violations; only the
        # un-suppressed second one may survive
        assert len(findings) == 1
        assert findings[0].line == 9

    def test_disable_file_silences_the_whole_module(self):
        findings = lint_paths([FIXTURES / "suppressions.py"],
                              root=FIXTURES, select=["wall-clock"])
        assert findings == []

    def test_directives_in_strings_do_not_suppress(self, tmp_path):
        src = tmp_path / "m.py"
        src.write_text(
            'NOTE = "# repro-lint: disable-file=wall-clock"\n'
            "import time\n"
            "t = time.time()\n")
        findings = lint_paths([src], root=tmp_path, select=["wall-clock"])
        assert len(findings) == 1


class TestDriver:
    def test_parse_error_becomes_a_finding(self):
        findings = lint_paths([FIXTURES / "parse_error.py.txt"],
                              root=FIXTURES)
        assert len(findings) == 1
        assert findings[0].rule_id == PARSE_ERROR
        assert "cannot parse" in findings[0].message

    def test_unknown_select_raises(self):
        with pytest.raises(KeyError):
            lint_paths([FIXTURES], root=FIXTURES, select=["no-such-rule"])

    def test_findings_sorted_and_relative(self):
        findings = lint_paths([FIXTURES / "unordered_iteration_bad.py",
                               FIXTURES / "wall_clock_bad.py"],
                              root=FIXTURES)
        keys = [(f.file, f.line, f.rule_id) for f in findings]
        assert keys == sorted(keys)
        assert all("/" not in f.file or not f.file.startswith("/")
                   for f in findings)

    def test_all_rules_registered(self):
        assert [rule.rule_id for rule in all_rules()] == RULE_IDS


class TestCli:
    def lint(self, *argv):
        return main(["lint", *argv])

    def test_clean_file_exits_zero(self, capsys):
        rc = self.lint(str(FIXTURES / "wall_clock_clean.py"),
                       "--root", str(FIXTURES))
        assert rc == 0
        assert "lint: clean" in capsys.readouterr().out

    def test_seeded_violation_fails(self, tmp_path, capsys):
        bad = tmp_path / "seeded.py"
        bad.write_text("import time\nT = time.time()\n")
        rc = self.lint(str(bad), "--root", str(tmp_path))
        assert rc == 1
        out = capsys.readouterr().out
        assert "[wall-clock]" in out and "lint: 1 finding(s)" in out

    def test_unknown_rule_is_usage_error(self, capsys):
        rc = self.lint(str(FIXTURES / "wall_clock_clean.py"),
                       "--select", "no-such-rule")
        assert rc == 2
        capsys.readouterr()

    def test_json_report_shape(self, tmp_path, capsys):
        bad = tmp_path / "seeded.py"
        bad.write_text("import time\nT = time.time()\n")
        report_path = tmp_path / "report.json"
        rc = self.lint(str(bad), "--root", str(tmp_path),
                       "--format", "json", "--out", str(report_path))
        assert rc == 1
        capsys.readouterr()
        report = json.loads(report_path.read_text())
        assert report["ok"] is False
        assert report["counts"]["total"] == 1
        assert report["findings"][0]["rule"] == "wall-clock"
        assert report["findings"][0]["file"] == "seeded.py"

    def test_list_rules(self, capsys):
        assert self.lint("--list-rules") == 0
        out = capsys.readouterr().out
        assert [line.split()[0] for line in out.splitlines()] == RULE_IDS

    @pytest.mark.parametrize("flags", [
        ["--why", "3f2a91bc"], ["--stats"], ["--max-seconds", "10"],
        ["--baseline", "base.json"], ["--no-baseline"],
        ["--update-baseline"]])
    def test_removed_flag_is_a_usage_error(self, flags, capsys):
        with pytest.raises(SystemExit) as err:
            self.lint(str(FIXTURES / "wall_clock_clean.py"), *flags)
        assert err.value.code == 2
        capsys.readouterr()


_DIRECTIVE = re.compile(r"#\s*repro-lint:\s*disable(?:-file)?=([\w,-]+)")


def _suppressed_rule_ids(path):
    """Rule ids named by directive comments (not strings) in ``path``."""
    reader = io.StringIO(path.read_text()).readline
    for tok in tokenize.generate_tokens(reader):
        if tok.type == tokenize.COMMENT:
            for m in _DIRECTIVE.finditer(tok.string):
                for rule_id in m.group(1).split(","):
                    yield path, tok.start[0], rule_id


class TestRepoIsClean:
    def test_src_lints_clean_and_suppresses_only_registered_rules(self):
        """The acceptance gate: the tree must satisfy its own linter, and
        a deleted rule must not leave dead suppressions behind."""
        findings = lint_paths([REPO_ROOT / "src"], root=REPO_ROOT)
        assert findings == [], "; ".join(f.render() for f in findings)
        dead = [f"{path}:{line}: {rule_id}"
                for src in iter_python_files([REPO_ROOT / "src"])
                for path, line, rule_id in _suppressed_rule_ids(src)
                if rule_id not in RULE_IDS]
        assert dead == []

    def test_dead_suppression_detected(self, tmp_path):
        stale = tmp_path / "m.py"
        stale.write_text(
            'NOTE = "# repro-lint: disable=not-in-a-string"\n'
            "x = 1  # repro-lint: disable=wall-clock,hot-path-loop (gone)\n")
        assert [rule_id for _, _, rule_id in _suppressed_rule_ids(stale)] \
            == ["wall-clock", "hot-path-loop"]
