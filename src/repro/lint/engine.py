"""The ``repro.lint`` rule engine: AST rules, suppressions, driver.

The repo carries invariants no generic linter knows about — callables
reaching the ``ScenarioSuite`` process pool must pickle, PERF counter
names must match the registry, the spec must match its docs — so this
module provides the machinery to enforce them mechanically:

* :class:`Finding` — one diagnostic, anchored to ``file:line``;
* :class:`Rule` / :class:`ProjectRule` — per-module and whole-project
  checks, registered by the :func:`register` decorator;
* :class:`ModuleContext` — parsed source handed to rules: AST, comment
  map, module name;
* :func:`lint_paths` — the driver: collect files, parse, run rules,
  drop suppressed findings.

Inline comments are the one suppression mechanism (matched via
:mod:`tokenize`, so string literals never suppress anything):

* ``# repro-lint: disable=rule-a,rule-b`` — suppress those rules on the
  comment's line (put it on the statement's first line);
* ``# repro-lint: disable-file=rule-a`` — suppress for the whole file.

Everything here is stdlib-only (``ast`` + ``tokenize``).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

__all__ = [
    "Finding",
    "Rule",
    "ProjectRule",
    "ModuleContext",
    "register",
    "all_rules",
    "lint_paths",
    "iter_python_files",
    "PARSE_ERROR",
]

#: Pseudo-rule id attached to files the engine cannot parse.
PARSE_ERROR = "parse-error"

_DIRECTIVE_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<verb>disable-file|disable)"
    r"=(?P<rules>[\w,-]+)")


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule fired at ``file:line``."""

    file: str
    line: int
    rule_id: str
    message: str

    def render(self) -> str:
        """``file:line: [rule] message`` — the text output row."""
        return f"{self.file}:{self.line}: [{self.rule_id}] {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (the CI artifact rows)."""
        return {"file": self.file, "line": self.line,
                "rule": self.rule_id, "message": self.message}


class ModuleContext:
    """One parsed source file, as rules see it."""

    def __init__(self, path: Path, rel: str, source: str,
                 tree: ast.Module) -> None:
        self.path = path
        #: root-relative posix path used in findings
        self.rel = rel
        self.source = source
        self.tree = tree
        #: dotted module name (``repro.core.merge``) when under ``src/``
        self.module = _module_name(rel)
        self._line_disables: Dict[int, Set[str]] = {}
        self._file_disables: Set[str] = set()
        self._scan_directives()

    def _scan_directives(self) -> None:
        reader = io.StringIO(self.source).readline
        try:
            tokens = tokenize.generate_tokens(reader)
            for tok in tokens:
                if tok.type != tokenize.COMMENT:
                    continue
                m = _DIRECTIVE_RE.search(tok.string)
                if not m:
                    continue
                rules = set(m.group("rules").split(",")) - {""}
                if m.group("verb") == "disable-file":
                    self._file_disables |= rules
                else:  # disable
                    line = self._line_disables.setdefault(tok.start[0],
                                                          set())
                    line |= rules
        except tokenize.TokenError:
            pass  # partial token stream: keep what was scanned

    def suppressed(self, rule_id: str, line: int) -> bool:
        """True when a directive silences ``rule_id`` at ``line``."""
        if rule_id in self._file_disables:
            return True
        return rule_id in self._line_disables.get(line, set())

    def finding(self, line: int, rule_id: str, message: str) -> Finding:
        """Convenience constructor stamped with this module's path."""
        return Finding(self.rel, line, rule_id, message)


class Rule:
    """A per-module check.  Subclass and :func:`register`."""

    #: kebab-case id used in output, suppressions, and ``--select``
    rule_id: str = "abstract"
    #: one-line description for ``--list-rules`` and the docs
    summary: str = ""

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        """Yield findings for one parsed module."""
        raise NotImplementedError


class ProjectRule(Rule):
    """A whole-project check (cross-file consistency)."""

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        return ()

    def check_project(self, modules: Sequence[ModuleContext],
                      root: Path) -> Iterable[Finding]:
        """Yield findings computed over every collected module."""
        raise NotImplementedError


_RULES: Dict[str, Rule] = {}


def register(cls):
    """Class decorator: instantiate and register a rule by its id."""
    rule = cls()
    if not rule.rule_id or rule.rule_id == "abstract":
        raise ValueError(f"{cls.__name__} needs a rule_id")
    if rule.rule_id in _RULES:
        raise ValueError(f"duplicate rule id {rule.rule_id!r}")
    _RULES[rule.rule_id] = rule
    return cls


def all_rules() -> List[Rule]:
    """Registered rules, sorted by id (imports the built-in set)."""
    _load_builtin_rules()
    return [_RULES[k] for k in sorted(_RULES)]


def _load_builtin_rules() -> None:
    from repro.lint import rules as _builtin  # noqa: F401 - registration


def _module_name(rel: str) -> str:
    """Dotted module path for a repo-relative file path (best effort)."""
    parts = Path(rel).with_suffix("").parts
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths`` (files pass through verbatim)."""
    for path in paths:
        if path.is_file():
            yield path
        elif path.is_dir():
            yield from sorted(
                p for p in path.rglob("*.py")
                if not any(part.startswith(".") for part in p.parts))


def load_module(path: Path, root: Path) -> ModuleContext:
    """Parse one file into a :class:`ModuleContext`.

    Raises :class:`SyntaxError` when the file does not parse; the driver
    converts that into a :data:`PARSE_ERROR` finding.
    """
    source = path.read_text()
    try:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        rel = path.as_posix()
    tree = ast.parse(source, filename=rel)
    return ModuleContext(path, rel, source, tree)


def lint_paths(paths: Sequence, root: Optional[Path] = None,
               select: Optional[Sequence[str]] = None) -> List[Finding]:
    """Run the (selected) rules over every python file under ``paths``.

    Returns findings sorted by ``(file, line, rule_id)`` with suppressed
    findings already removed.  ``root`` anchors the relative paths used
    in findings (default: the current directory).
    """
    root = Path(root) if root is not None else Path.cwd()
    rules = all_rules()
    if select is not None:
        wanted = set(select)
        unknown = wanted - {r.rule_id for r in rules}
        if unknown:
            raise KeyError(f"unknown rule ids: {sorted(unknown)}")
        rules = [r for r in rules if r.rule_id in wanted]

    modules: List[ModuleContext] = []
    findings: List[Finding] = []
    for path in iter_python_files([Path(p) for p in paths]):
        try:
            ctx = load_module(path, root)
        except SyntaxError as err:
            rel = path.as_posix()
            findings.append(Finding(rel, err.lineno or 1, PARSE_ERROR,
                                    f"cannot parse: {err.msg}"))
            continue
        modules.append(ctx)
        for rule in rules:
            for finding in rule.check_module(ctx):
                if not ctx.suppressed(finding.rule_id, finding.line):
                    findings.append(finding)

    by_rel = {m.rel: m for m in modules}
    for rule in rules:
        if not isinstance(rule, ProjectRule):
            continue
        for finding in rule.check_project(modules, root):
            ctx = by_rel.get(finding.file)
            if ctx is not None and ctx.suppressed(finding.rule_id,
                                                  finding.line):
                continue
            findings.append(finding)

    findings.sort(key=lambda f: (f.file, f.line, f.rule_id, f.message))
    return findings
