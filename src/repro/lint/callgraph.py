"""Project-wide call graph over the lint engine's parsed modules.

The whole-program rules (determinism taint, reachability-based pickle
safety, kernel contracts) need to know *who calls whom* across the
repository.  :func:`build_graph` derives that from the same
:class:`~repro.lint.engine.ModuleContext` ASTs the per-module rules see:

* **imports** — ``import a.b as c`` and ``from a.b import f as g`` are
  resolved per module (including relative imports), so ``c.f(...)`` and
  ``g(...)`` both produce an edge to ``a.b.f``;
* **class methods** — ``self.m()`` resolves inside the defining class;
  ``obj.m()`` resolves when ``obj``'s class is locally inferable (a
  constructor assignment or an annotated parameter), and otherwise falls
  back to name matching when exactly **one** class in the project
  defines a method ``m`` (edges carry ``kind="unique-method"`` so the
  heuristic is auditable);
* **registry indirection** — ``register_workload(name, factory)``
  registrations are collected project-wide and an edge
  ``resolve_workload -> factory`` (``kind="registry"``) is added for
  each, so taint flows through the workload registry like any other
  call.

The graph is deliberately an over-approximation in one direction only:
an edge means "may call"; a missing edge means the receiver could not be
resolved statically (dynamic dispatch through data structures).  The
JSON form (``stat-repro lint --graph``) is uploaded as a CI artifact.

Everything here is stdlib-only (``ast``), like the rest of the linter.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.engine import ModuleContext

__all__ = ["FunctionInfo", "CallEdge", "CallGraph", "build_graph"]

#: registry indirection: ``REGISTRY_REGISTER(name, factory)`` calls add
#: ``REGISTRY_DISPATCH -> factory`` edges.
REGISTRY_REGISTER = "register_workload"
REGISTRY_DISPATCH = "resolve_workload"


@dataclass
class FunctionInfo:
    """One function or method the graph knows about."""

    qname: str          #: ``module.func`` / ``module.Class.method``
    module: str         #: dotted module name
    rel: str            #: repo-relative file path
    lineno: int
    name: str           #: bare function name
    cls: Optional[str]  #: owning class name (None for module level)
    node: ast.AST = field(repr=False, default=None)


@dataclass(frozen=True)
class CallEdge:
    """One resolved ``caller -> callee`` call site."""

    caller: str
    callee: str
    line: int
    #: ``direct`` | ``method`` | ``unique-method`` | ``constructor``
    #: | ``registry``
    kind: str


class _ModuleIndex:
    """Per-module symbol tables used during resolution."""

    def __init__(self, ctx: ModuleContext) -> None:
        self.ctx = ctx
        self.module = ctx.module
        #: local alias -> module qname (``import a.b as c``)
        self.module_aliases: Dict[str, str] = {}
        #: local name -> candidate qname (``from a.b import f as g``)
        self.imported_names: Dict[str, str] = {}
        #: module-level def/class name -> qname
        self.top_defs: Dict[str, str] = {}
        #: class name -> {method name -> qname}
        self.classes: Dict[str, Dict[str, str]] = {}

    def resolve_base(self, node: ast.ImportFrom) -> str:
        """Absolute module path of a (possibly relative) import."""
        if not node.level:
            return node.module or ""
        parts = self.module.split(".") if self.module else []
        # level=1 in ``pkg.mod`` means ``pkg``; each extra level strips
        # one more package.  ``__init__`` modules already dropped their
        # trailing component in ``ModuleContext.module``.
        base = parts[:len(parts) - node.level] if parts else []
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base)


class CallGraph:
    """Functions, resolved call edges, and lookup/traversal helpers."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.edges: List[CallEdge] = []
        self._out: Dict[str, List[CallEdge]] = {}
        self._in: Dict[str, List[CallEdge]] = {}
        #: id(ast.Call) -> resolved callee qname, for rules that walk
        #: the same ASTs and need per-call-site resolution
        self.call_resolution: Dict[int, str] = {}
        self._indexes: Dict[str, _ModuleIndex] = {}
        #: method name -> sorted qnames of every class defining it
        self.method_index: Dict[str, List[str]] = {}

    # -- queries -----------------------------------------------------------
    def callees(self, qname: str) -> List[CallEdge]:
        """Outgoing edges of one function."""
        return self._out.get(qname, [])

    def callers(self, qname: str) -> List[CallEdge]:
        """Incoming edges of one function."""
        return self._in.get(qname, [])

    def module_index(self, module: str) -> Optional["_ModuleIndex"]:
        """The symbol tables of one module (by dotted name)."""
        return self._indexes.get(module)

    def resolve(self, ctx_module: str, call: ast.Call) -> Optional[str]:
        """Resolved callee of a call site seen during the build."""
        return self.call_resolution.get(id(call))

    def reachable_from(self, qname: str) -> Set[str]:
        """Every function transitively callable from ``qname``."""
        seen: Set[str] = set()
        stack = [qname]
        while stack:
            cur = stack.pop()
            for edge in self.callees(cur):
                if edge.callee not in seen:
                    seen.add(edge.callee)
                    stack.append(edge.callee)
        return seen

    # -- construction ------------------------------------------------------
    def _add_edge(self, caller: str, callee: str, line: int,
                  kind: str) -> None:
        edge = CallEdge(caller, callee, line, kind)
        self.edges.append(edge)
        self._out.setdefault(caller, []).append(edge)
        self._in.setdefault(callee, []).append(edge)


def build_graph(modules: Sequence[ModuleContext]) -> CallGraph:
    """Build the project call graph over already-parsed modules."""
    graph = CallGraph()
    indexes: List[_ModuleIndex] = []
    for ctx in modules:
        index = _index_module(ctx, graph)
        indexes.append(index)
        graph._indexes[index.module] = index

    module_names = {idx.module for idx in indexes}
    for name, qnames in graph.method_index.items():
        qnames.sort()

    registrations: List[Tuple[_ModuleIndex, ast.Call]] = []
    for index in indexes:
        _resolve_module_calls(index, graph, module_names, registrations)
    _add_registry_edges(graph, registrations, module_names)
    return graph


def _index_module(ctx: ModuleContext, graph: CallGraph) -> _ModuleIndex:
    """First pass: defs, classes/methods, and import tables."""
    index = _ModuleIndex(ctx)
    mod = ctx.module

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else \
                    alias.name.split(".")[0]
                index.module_aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = index.resolve_base(node)
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                index.imported_names[local] = \
                    f"{base}.{alias.name}" if base else alias.name

    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qname = f"{mod}.{stmt.name}" if mod else stmt.name
            index.top_defs[stmt.name] = qname
            graph.functions[qname] = FunctionInfo(
                qname, mod, ctx.rel, stmt.lineno, stmt.name, None, stmt)
        elif isinstance(stmt, ast.ClassDef):
            cname = f"{mod}.{stmt.name}" if mod else stmt.name
            index.top_defs[stmt.name] = cname
            methods: Dict[str, str] = {}
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    mq = f"{cname}.{item.name}"
                    methods[item.name] = mq
                    graph.functions[mq] = FunctionInfo(
                        mq, mod, ctx.rel, item.lineno, item.name,
                        stmt.name, item)
                    graph.method_index.setdefault(item.name,
                                                  []).append(mq)
            index.classes[stmt.name] = methods
    return index


def _attr_chain(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]`` (None for non-trivial bases)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return parts


def _infer_var_types(index: _ModuleIndex, fn: ast.AST,
                     own_class: Optional[str]) -> Dict[str, str]:
    """Local name -> class name, from constructors and annotations."""
    types: Dict[str, str] = {}
    if own_class is not None:
        types["self"] = own_class
        types["cls"] = own_class
    args = getattr(fn, "args", None)
    if args is not None:
        for arg in list(args.args) + list(args.kwonlyargs):
            ann = arg.annotation
            name = None
            if isinstance(ann, ast.Name):
                name = ann.id
            elif isinstance(ann, ast.Constant) and \
                    isinstance(ann.value, str):
                name = ann.value.split(".")[-1]
            if name and name in index.classes:
                types[arg.arg] = name
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and \
                isinstance(node.value, ast.Call) and \
                isinstance(node.value.func, ast.Name) and \
                node.value.func.id in index.classes:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    types[target.id] = node.value.func.id
    return types


def _resolve_module_calls(index: _ModuleIndex, graph: CallGraph,
                          module_names: Set[str],
                          registrations: List) -> None:
    """Second pass: resolve every call site inside indexed functions."""
    ctx = index.ctx
    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qname = index.top_defs[stmt.name]
            _resolve_function(index, graph, module_names, qname, stmt,
                              None, registrations)
        elif isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    qname = index.classes[stmt.name][item.name]
                    _resolve_function(index, graph, module_names, qname,
                                      item, stmt.name, registrations)
    # Module-level calls (registrations usually live here) get a
    # synthetic ``module.<module>`` caller so they are not lost.
    top = [s for s in ctx.tree.body
           if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))]
    if top:
        pseudo = f"{index.module}.<module>" if index.module \
            else "<module>"
        wrapper = ast.Module(body=top, type_ignores=[])
        _resolve_function(index, graph, module_names, pseudo, wrapper,
                          None, registrations, register_only=True)


def _resolve_function(index: _ModuleIndex, graph: CallGraph,
                      module_names: Set[str], qname: str, fn: ast.AST,
                      own_class: Optional[str], registrations: List,
                      register_only: bool = False) -> None:
    var_types = _infer_var_types(index, fn, own_class)
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        callee_name = node.func.id if isinstance(node.func, ast.Name) \
            else node.func.attr if isinstance(node.func, ast.Attribute) \
            else ""
        if callee_name == REGISTRY_REGISTER:
            registrations.append((index, node))
        if register_only:
            continue
        resolved = _resolve_call(index, graph, module_names, node,
                                 var_types)
        if resolved is None:
            continue
        callee, kind = resolved
        graph.call_resolution[id(node)] = callee
        graph._add_edge(qname, callee, node.lineno, kind)


def _resolve_call(index: _ModuleIndex, graph: CallGraph,
                  module_names: Set[str], call: ast.Call,
                  var_types: Dict[str, str]
                  ) -> Optional[Tuple[str, str]]:
    func = call.func
    if isinstance(func, ast.Name):
        return _resolve_name(index, graph, module_names, func.id)
    if not isinstance(func, ast.Attribute):
        return None

    chain = _attr_chain(func)
    if chain is not None and len(chain) >= 2:
        head, attr = chain[0], chain[-1]
        # ``alias.f(...)`` / ``a.b.c.f(...)`` through a module alias.
        prefix = ".".join(chain[:-1])
        target_mod = None
        if len(chain) == 2 and head in index.module_aliases:
            target_mod = index.module_aliases[head]
        elif prefix in module_names:
            target_mod = prefix
        elif head in index.imported_names and \
                index.imported_names[head] in module_names:
            target_mod = ".".join([index.imported_names[head]]
                                  + chain[1:-1])
        if target_mod is not None:
            candidate = f"{target_mod}.{attr}"
            if candidate in graph.functions:
                return candidate, "direct"
            tgt = graph.module_index(target_mod)
            if tgt is not None and attr in tgt.classes:
                init = tgt.classes[attr].get("__init__")
                if init:
                    return init, "constructor"
            return None
        # ``self.m()`` / ``obj.m()`` with an inferable class.
        if head in var_types and len(chain) == 2:
            cls = var_types[head]
            method = index.classes.get(cls, {}).get(attr)
            if method:
                return method, "method"
        # ``ClassName.m()`` on a locally defined or imported class.
        if len(chain) == 2:
            if head in index.classes:
                method = index.classes[head].get(attr)
                if method:
                    return method, "method"
            elif head in index.imported_names:
                candidate = index.imported_names[head]
                tgt_mod, _, cls = candidate.rpartition(".")
                tgt = graph.module_index(tgt_mod)
                if tgt is not None and cls in tgt.classes:
                    method = tgt.classes[cls].get(attr)
                    if method:
                        return method, "method"

    # Fallback: the method name is defined by exactly one class in the
    # whole project — unambiguous even without receiver types.
    attr = func.attr
    candidates = graph.method_index.get(attr, [])
    if len(candidates) == 1:
        receiver = func.value
        if not (isinstance(receiver, ast.Name)
                and receiver.id in index.module_aliases):
            return candidates[0], "unique-method"
    return None


def _resolve_name(index: _ModuleIndex, graph: CallGraph,
                  module_names: Set[str], name: str
                  ) -> Optional[Tuple[str, str]]:
    if name in index.imported_names:
        candidate = index.imported_names[name]
        if candidate in graph.functions:
            return candidate, "direct"
        tgt_mod, _, cls = candidate.rpartition(".")
        tgt = graph.module_index(tgt_mod)
        if tgt is not None and cls in tgt.classes:
            init = tgt.classes[cls].get("__init__")
            if init:
                return init, "constructor"
        return None
    if name in index.top_defs:
        qname = index.top_defs[name]
        if qname in graph.functions:
            return qname, "direct"
        if name in index.classes:
            init = index.classes[name].get("__init__")
            if init:
                return init, "constructor"
    return None


def _add_registry_edges(graph: CallGraph, registrations: List,
                        module_names: Set[str]) -> None:
    """``resolve_workload -> factory`` for every registration."""
    dispatchers = [q for q, f in graph.functions.items()
                   if f.name == REGISTRY_DISPATCH]
    if not dispatchers:
        return
    for index, call in registrations:
        if len(call.args) < 2:
            continue
        factory = call.args[1]
        resolved = None
        if isinstance(factory, ast.Name):
            hit = _resolve_name(index, graph, module_names, factory.id)
            if hit:
                resolved = hit[0]
        elif isinstance(factory, ast.Attribute):
            chain = _attr_chain(factory)
            if chain and len(chain) == 2 and \
                    chain[0] in index.module_aliases:
                cand = f"{index.module_aliases[chain[0]]}.{chain[1]}"
                if cand in graph.functions:
                    resolved = cand
        if resolved is None:
            continue
        for dispatcher in dispatchers:
            graph._add_edge(dispatcher, resolved, call.lineno,
                            "registry")


#: memo of the last-built graph, so several project rules running in one
#: ``lint_paths`` invocation share one build (keyed by AST identity).
_GRAPH_CACHE: Dict[Tuple[int, ...], CallGraph] = {}


def graph_for(modules: Sequence[ModuleContext]) -> CallGraph:
    """A (memoized) call graph for this exact sequence of modules."""
    key = tuple(id(m) for m in modules)
    graph = _GRAPH_CACHE.get(key)
    if graph is None:
        _GRAPH_CACHE.clear()  # one entry: lint runs are sequential
        graph = _GRAPH_CACHE[key] = build_graph(modules)
    return graph
