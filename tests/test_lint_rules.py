"""Per-rule proof tests: each rule fires on its known-bad fixture and
stays quiet on the known-clean sibling (tests/fixtures/lint)."""

from pathlib import Path

import pytest

from repro.lint import lint_paths

FIXTURES = Path(__file__).parent / "fixtures" / "lint"

#: (rule id, bad fixture, clean fixture, minimum bad-finding count)
RULE_CASES = [
    ("pickle-safety", "pickle_safety_bad.py", "pickle_safety_clean.py", 3),
    ("unordered-iteration", "unordered_iteration_bad.py",
     "unordered_iteration_clean.py", 4),
    ("unseeded-random", "unseeded_random_bad.py",
     "unseeded_random_clean.py", 3),
    ("wall-clock", "wall_clock_bad.py", "wall_clock_clean.py", 1),
    ("perf-counter-name", "perf_counter_bad.py",
     "perf_counter_clean.py", 3),
    ("mutable-default", "mutable_default_bad.py",
     "mutable_default_clean.py", 3),
    ("spec-not-frozen", "spec_frozen_bad.py", "spec_frozen_clean.py", 2),
]


def run_rule(rule_id, fixture):
    return lint_paths([FIXTURES / fixture], root=FIXTURES,
                      select=[rule_id])


class TestRuleFixtures:
    @pytest.mark.parametrize("rule_id,bad,clean,min_count", RULE_CASES,
                             ids=[c[0] for c in RULE_CASES])
    def test_bad_fixture_fires(self, rule_id, bad, clean, min_count):
        findings = run_rule(rule_id, bad)
        assert len(findings) >= min_count
        assert all(f.rule_id == rule_id for f in findings)
        assert all(f.file == bad for f in findings)
        assert all(f.line > 0 for f in findings)

    @pytest.mark.parametrize("rule_id,bad,clean,min_count", RULE_CASES,
                             ids=[c[0] for c in RULE_CASES])
    def test_clean_fixture_quiet(self, rule_id, bad, clean, min_count):
        assert run_rule(rule_id, clean) == []

    @pytest.mark.parametrize("rule_id,bad,clean,min_count", RULE_CASES,
                             ids=[c[0] for c in RULE_CASES])
    def test_disable_file_silences_only_its_rule(self, tmp_path, rule_id,
                                                 bad, clean, min_count):
        target = tmp_path / bad
        target.write_text((FIXTURES / bad).read_text()
                          + f"# repro-lint: disable-file={rule_id}\n")
        before = [(f.line, f.rule_id)
                  for f in lint_paths([FIXTURES / bad], root=FIXTURES)]
        after = [(f.line, f.rule_id)
                 for f in lint_paths([target], root=tmp_path)]
        assert after == [hit for hit in before if hit[1] != rule_id]


#: every seeded defect in the bad fixtures, as (rule id, fixture, line)
SEEDED = [
    (rule_id, bad, line)
    for rule_id, bad, lines in [
        ("pickle-safety", "pickle_safety_bad.py", [5, 12, 15]),
        ("unordered-iteration", "unordered_iteration_bad.py",
         [6, 8, 9, 10]),
        ("unseeded-random", "unseeded_random_bad.py", [3, 10, 11]),
        ("wall-clock", "wall_clock_bad.py", [7]),
        ("perf-counter-name", "perf_counter_bad.py", [5, 6, 7]),
        ("mutable-default", "mutable_default_bad.py", [4, 9, 13]),
        ("spec-not-frozen", "spec_frozen_bad.py", [7, 12]),
    ]
    for line in lines]


class TestSeededDefects:
    """Inline ``disable=`` is the one suppression mechanism, so each
    seeded defect is pinned to its line, and a directive there silences
    that finding and no other."""

    @pytest.mark.parametrize("rule_id,bad,line", SEEDED,
                             ids=[f"{r}:{n}" for r, _, n in SEEDED])
    def test_found_at_its_line(self, rule_id, bad, line):
        assert line in [f.line for f in run_rule(rule_id, bad)]

    @pytest.mark.parametrize("rule_id,bad,line", SEEDED,
                             ids=[f"{r}:{n}" for r, _, n in SEEDED])
    def test_inline_disable_silences_only_its_line(self, tmp_path,
                                                   rule_id, bad, line):
        lines = (FIXTURES / bad).read_text().splitlines()
        lines[line - 1] += f"  # repro-lint: disable={rule_id} (test)"
        target = tmp_path / bad
        target.write_text("\n".join(lines) + "\n")
        remaining = [f.line for f in lint_paths([target], root=tmp_path,
                                                select=[rule_id])]
        assert remaining == [n for r, _, n in SEEDED
                             if r == rule_id and n != line]


class TestRuleMessages:
    def test_pickle_safety_names_the_sink(self):
        messages = [f.message for f in
                    run_rule("pickle-safety", "pickle_safety_bad.py")]
        assert any("register_workload()" in m for m in messages)
        assert any("executor.map()" in m for m in messages)
        assert any("StateProvider" in m for m in messages)

    def test_perf_counter_distinguishes_known_from_typo(self):
        messages = [f.message for f in
                    run_rule("perf-counter-name", "perf_counter_bad.py")]
        assert any("'merge.calls'" in m and "constant" in m
                   for m in messages)
        assert any("'merge.callz'" in m and "typo" in m for m in messages)
        assert any("f-string" in m for m in messages)


class TestWallClockSimOnly:
    """Inside repro.tbon the wall-clock rule bans *any* time usage."""

    def lint_as(self, tmp_path, module_path, source):
        target = tmp_path / module_path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
        return lint_paths([target], root=tmp_path, select=["wall-clock"])

    def test_import_time_fires_in_tbon(self, tmp_path):
        findings = self.lint_as(tmp_path, "src/repro/tbon/mod.py",
                                "import time\n")
        assert len(findings) == 1
        assert "engine clock" in findings[0].message

    def test_from_time_import_fires_in_tbon(self, tmp_path):
        findings = self.lint_as(tmp_path, "src/repro/tbon/mod.py",
                                "from time import monotonic\n")
        assert len(findings) == 1

    def test_any_time_call_fires_in_tbon(self, tmp_path):
        findings = self.lint_as(
            tmp_path, "src/repro/tbon/streaming2.py",
            "def f(time):\n    return time.monotonic()\n")
        assert len(findings) == 1
        assert "monotonic" in findings[0].message

    def test_perf_counter_allowed_outside_tbon(self, tmp_path):
        findings = self.lint_as(
            tmp_path, "src/repro/perf/mod.py",
            "import time\n\n\ndef f():\n"
            "    return time.perf_counter()\n")
        assert findings == []

    def test_time_time_still_fires_everywhere(self, tmp_path):
        findings = self.lint_as(
            tmp_path, "src/repro/perf/mod.py",
            "import time\n\n\ndef f():\n    return time.time()\n")
        assert len(findings) == 1


class TestSpecDrift:
    def run(self, project):
        root = FIXTURES / project
        return lint_paths([root / "src"], root=root,
                          select=["spec-drift"])

    def test_clean_project_quiet(self):
        assert self.run("spec_drift_clean") == []

    def test_bad_project_reports_every_drift(self):
        messages = [f.message for f in self.run("spec_drift_bad")]
        # spec fields missing from the docs table
        assert any("'daemons' is not documented" in m for m in messages)
        assert any("'workload' is not documented" in m for m in messages)
        # docs rows with no matching field
        assert any("'ghost'" in m and "does not define" in m
                   for m in messages)
        # workload registry vs docs list, both directions
        assert any("'mystery' is registered but not documented" in m
                   for m in messages)
        assert any("'legacy_only'" in m and "does not define" in m
                   for m in messages)
        # default workload id must resolve
        assert any("'phantom'" in m and "not a registered" in m
                   for m in messages)

    def test_bad_project_findings_anchor_to_sources(self):
        files = {f.file for f in self.run("spec_drift_bad")}
        assert "src/repro/api/spec.py" in files
        assert "src/repro/api/workloads.py" in files
        assert "docs/architecture.md" in files

    def test_rule_skips_projects_without_the_spec_module(self, tmp_path):
        other = tmp_path / "other.py"
        other.write_text("x = 1\n")
        assert lint_paths([other], root=tmp_path,
                          select=["spec-drift"]) == []

    def test_missing_docs_file_is_one_finding(self, tmp_path):
        spec_dir = tmp_path / "src" / "repro" / "api"
        spec_dir.mkdir(parents=True)
        (spec_dir / "spec.py").write_text(
            "from dataclasses import dataclass\n\n\n"
            "@dataclass(frozen=True)\n"
            "class SessionSpec:\n"
            "    machine: str\n")
        findings = lint_paths([tmp_path / "src"], root=tmp_path,
                              select=["spec-drift"])
        assert len(findings) == 1
        assert "docs not found" in findings[0].message
