"""Call-graph construction: import/alias/method/registry resolution
and the memoized build the whole-program rules share."""

from pathlib import Path

import pytest

from repro.lint.callgraph import build_graph, graph_for
from repro.lint.engine import iter_python_files, load_module

FIXTURES = Path(__file__).parent / "fixtures" / "lint"


def modules_for(project):
    root = FIXTURES / project
    return [load_module(p, root) for p in iter_python_files([root])]


@pytest.fixture(scope="module")
def graph():
    return build_graph(modules_for("callgraph_project"))


def edge_set(graph):
    return {(e.caller, e.callee, e.kind) for e in graph.edges}


class TestResolution:
    def test_module_alias_call(self, graph):
        assert ("repro.alpha.Worker.step", "repro.beta.run",
                "direct") in edge_set(graph)

    def test_from_import_call(self, graph):
        assert ("repro.alpha.call_imported", "repro.beta.helper",
                "direct") in edge_set(graph)

    def test_intra_module_call(self, graph):
        assert ("repro.beta.run", "repro.beta.helper",
                "direct") in edge_set(graph)

    def test_self_method(self, graph):
        assert ("repro.alpha.Worker.step", "repro.alpha.Worker.tick",
                "method") in edge_set(graph)

    def test_constructor(self, graph):
        assert ("repro.alpha.use_worker",
                "repro.alpha.Worker.__init__",
                "constructor") in edge_set(graph)

    def test_constructor_assignment_types_the_receiver(self, graph):
        assert ("repro.alpha.use_worker", "repro.alpha.Worker.step",
                "method") in edge_set(graph)

    def test_annotated_parameter_types_the_receiver(self, graph):
        assert ("repro.alpha.annotated", "repro.alpha.Worker.tick",
                "method") in edge_set(graph)

    def test_imported_class_method(self, graph):
        assert ("repro.alpha.call_class_method",
                "repro.registry.Ring.spin",
                "method") in edge_set(graph)

    def test_unique_method_fallback(self, graph):
        assert ("repro.alpha.unique", "repro.registry.Ring.whirl",
                "unique-method") in edge_set(graph)

    def test_registry_indirection(self, graph):
        assert ("repro.registry.resolve_workload",
                "repro.registry._ring_factory",
                "registry") in edge_set(graph)

    def test_reachability_is_transitive(self, graph):
        reached = graph.reachable_from("repro.alpha.use_worker")
        assert {"repro.alpha.Worker.step", "repro.alpha.Worker.tick",
                "repro.beta.run", "repro.beta.helper"} <= reached

    def test_callers_inverts_callees(self, graph):
        callers = {e.caller
                   for e in graph.callers("repro.beta.helper")}
        assert "repro.beta.run" in callers
        assert "repro.alpha.call_imported" in callers


class TestExport:
    """``graph_for`` is what the graph hands the whole-program rules."""

    def test_graph_for_memoizes_per_module_sequence(self):
        modules = modules_for("callgraph_project")
        assert graph_for(modules) is graph_for(modules)
