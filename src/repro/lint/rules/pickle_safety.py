"""Rule ``pickle-safety``: callables that cannot cross a process pool.

An early version shipped exactly this bug: the object tree's default
label callables were lambdas, so every ``ScenarioSuite`` result died in
pickling on the way back from the ``ProcessPoolExecutor``.  Lambdas,
closures, and locally-defined classes pickle by *qualified name*, so
anything not importable at module level breaks the moment it (or an
object holding it) crosses a pool boundary.

Flagged patterns:

* a lambda or locally-defined function/class passed to a pickle
  boundary: ``register_workload(...)`` or
  ``<pool/executor>.submit/map(...)``;
* a ``-> StateProvider`` factory returning a lambda or nested function
  — providers are carried by workload objects that ride specs into the
  pool, so they must be module-level callables (e.g. a frozen dataclass
  with ``__call__``).
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from repro.lint.engine import Finding, ModuleContext, Rule, register

#: call targets whose callable arguments must be module-level
_SINK_NAMES = {"register_workload"}
#: attribute receivers treated as process pools for ``.submit``/``.map``
_POOL_HINTS = ("pool", "executor")


def _terminal_name(node: ast.AST) -> str:
    """Right-most identifier of a Name/Attribute chain (else '')."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _receiver_name(node: ast.AST) -> str:
    """Left-most identifier under an attribute access (else '')."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else ""


def _returns_state_provider(fn: ast.AST) -> bool:
    ann = getattr(fn, "returns", None)
    if ann is None:
        return False
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        return ann.value.endswith("StateProvider")
    return _terminal_name(ann) == "StateProvider"


@register
class PickleSafetyRule(Rule):
    rule_id = "pickle-safety"
    summary = ("lambdas/closures/local classes must not flow into "
               "process-pool boundaries")

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        self._visit_scope(ctx, ctx.tree.body, local_defs=set(),
                          in_function=False, findings=findings)
        return findings

    # -- traversal ---------------------------------------------------------
    def _visit_scope(self, ctx: ModuleContext, body, local_defs: Set[str],
                     in_function: bool, findings: List[Finding]) -> None:
        """Walk one lexical scope, tracking names bound by nested defs."""
        defs = set(local_defs)
        if in_function:
            defs |= _scope_defs(body)
        for stmt in body:
            self._visit_stmt(ctx, stmt, defs, in_function, findings)

    def _visit_stmt(self, ctx: ModuleContext, stmt: ast.AST,
                    defs: Set[str], in_function: bool,
                    findings: List[Finding]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _returns_state_provider(stmt):
                self._check_provider_factory(ctx, stmt, findings)
            self._visit_scope(ctx, stmt.body, defs, True, findings)
            return
        if isinstance(stmt, ast.ClassDef):
            self._visit_scope(ctx, stmt.body, defs, in_function, findings)
            return
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                self._check_call(ctx, node, defs, findings)

    # -- checks ------------------------------------------------------------
    def _check_call(self, ctx: ModuleContext, call: ast.Call,
                    defs: Set[str], findings: List[Finding]) -> None:
        sink = None
        name = _terminal_name(call.func)
        if name in _SINK_NAMES:
            sink = f"{name}()"
        elif (name in ("submit", "map")
              and isinstance(call.func, ast.Attribute)):
            receiver = _receiver_name(call.func).lower()
            if any(hint in receiver for hint in _POOL_HINTS):
                sink = f"{receiver}.{name}()"
        if sink is None:
            return
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            bad = self._unpicklable(arg, defs)
            if bad:
                findings.append(ctx.finding(
                    arg.lineno, self.rule_id,
                    f"{bad} passed to {sink} cannot cross a process "
                    f"pool; use a module-level callable"))

    def _check_provider_factory(self, ctx: ModuleContext, fn,
                                findings: List[Finding]) -> None:
        nested = _scope_defs(fn.body)
        for node in ast.walk(fn):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            value = node.value
            bad = None
            if isinstance(value, ast.Lambda):
                bad = "lambda"
            elif (isinstance(value, ast.Name) and value.id in nested):
                bad = f"locally-defined callable {value.id!r}"
            if bad:
                findings.append(ctx.finding(
                    value.lineno, self.rule_id,
                    f"{bad} returned as a StateProvider will not "
                    f"pickle; define a module-level callable class"))

    def _unpicklable(self, arg: ast.AST, defs: Set[str]) -> str:
        if isinstance(arg, ast.Lambda):
            return "lambda"
        if isinstance(arg, ast.Name) and arg.id in defs:
            return f"locally-defined callable {arg.id!r}"
        return ""


def _scope_defs(body) -> Set[str]:
    """Names bound by ``def``/``class`` directly inside this scope.

    Descends through compound statements (``if``/``for``/``try``...) but
    not into nested function or class bodies — those bind their own
    scopes.
    """
    names: Set[str] = set()
    stack = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
            continue  # do not descend into the nested scope
        for child in ast.iter_child_nodes(node):
            stack.append(child)
    return names
