"""``repro.lint`` — the repo's AST-based invariant checker.

A static-analysis subsystem (stdlib ``ast`` only) enforcing the
invariants generic linters cannot know: pickle-safety across the
``ScenarioSuite`` process pool, determinism of everything feeding figure
values, PERF counter-name discipline, spec/docs agreement, and
spec-object hygiene — eight rules, one per property.  Kernel
shape/dtype conventions are checked at runtime by
:mod:`repro.lint.contracts`.

Entry points:

* ``stat-repro lint`` — the CLI (text/JSON output);
* :func:`repro.lint.engine.lint_paths` — the library API;
* ``docs/static-analysis.md`` — rule catalogue, rationale and audit.
"""

from repro.lint.engine import (
    Finding,
    ModuleContext,
    ProjectRule,
    Rule,
    all_rules,
    lint_paths,
    register,
)

__all__ = [
    "Finding",
    "ModuleContext",
    "ProjectRule",
    "Rule",
    "all_rules",
    "lint_paths",
    "register",
]
