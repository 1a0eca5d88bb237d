"""Kernel equivalence: vectorized k-way merges vs the retained reference.

Hypothesis-style randomized property tests: generate random daemon-tree
forests (both schemes, varying fan-in, empty/singleton contributors) and
assert the vectorized kernels produce trees ``structurally_equal`` to the
retained recursive reference implementations — plus array/object
round-trips, pickling, and ``stat-repro bench`` JSON validity.
"""

import copy
import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from conftest import as_arrays
from repro.core.frames import StackTrace
from repro.core.merge import DenseLabelScheme, HierarchicalLabelScheme
from repro.core.prefix_tree import PrefixTree
from repro.core.taskset import TaskMap
from repro.core.treearrays import TreeArrays
from repro.perf.bench import check_baseline, run_bench
from repro.perf.reference import (
    reference_dense_merge,
    reference_hierarchical_merge,
    reference_merge,
)

FUNCTIONS = ["main", "solve", "poll", "wait", "send", "recv", "mpi_x",
             "progress", "stall"]


def random_paths(rng, max_paths=6, max_depth=5):
    """A random batch of root-anchored call paths."""
    paths = []
    for _ in range(rng.integers(1, max_paths + 1)):
        depth = int(rng.integers(1, max_depth + 1))
        names = ["main"] + [FUNCTIONS[int(rng.integers(len(FUNCTIONS)))]
                            for _ in range(depth - 1)]
        paths.append(tuple(names))
    return paths


def random_daemon_tree(rng, scheme, daemon_id, task_map, allow_empty=True):
    """A daemon-local tree over random paths and random slot sets."""
    tree = PrefixTree()
    width = task_map.tasks_of(daemon_id)
    if allow_empty and rng.random() < 0.15:
        return tree  # empty contributor
    for path in random_paths(rng):
        n_slots = int(rng.integers(0, width + 1))
        slots = sorted(rng.choice(width, size=n_slots,
                                  replace=False).tolist())
        tree.insert(
            StackTrace.from_names(path),
            scheme.daemon_label(daemon_id, width, slots, task_map))
    return tree


class TestDenseEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_forests(self, seed):
        rng = np.random.default_rng(seed)
        fanin = int(rng.integers(1, 9))
        mapping = [TaskMap.block, TaskMap.cyclic][seed % 2]
        task_map = mapping(8, 4)
        scheme = DenseLabelScheme(task_map.total_tasks)
        trees = [random_daemon_tree(rng, scheme, d, task_map)
                 for d in range(fanin)]
        ref = reference_dense_merge(trees)
        new = scheme.merge(as_arrays(scheme, trees))
        assert isinstance(new, TreeArrays)
        assert new.structurally_equal(ref), f"seed {seed} diverged"

    def test_singleton_contributor(self):
        task_map = TaskMap.block(2, 4)
        scheme = DenseLabelScheme(8)
        tree = PrefixTree()
        tree.insert(StackTrace.from_names(["main", "poll"]),
                    scheme.daemon_label(0, 4, [1, 2], task_map))
        arrays = as_arrays(scheme, [tree])
        merged = scheme.merge(arrays)
        assert merged is not arrays[0]
        assert merged.structurally_equal(reference_dense_merge([tree]))

    def test_all_empty_contributors(self):
        scheme = DenseLabelScheme(8)
        trees = [PrefixTree() for _ in range(3)]
        merged = scheme.merge(as_arrays(scheme, trees))
        assert merged.structurally_equal(reference_dense_merge(trees))
        assert merged.node_count() == 0

    def test_merge_of_merges(self):
        rng = np.random.default_rng(99)
        task_map = TaskMap.cyclic(6, 4)
        scheme = DenseLabelScheme(task_map.total_tasks)
        trees = [random_daemon_tree(rng, scheme, d, task_map,
                                    allow_empty=False)
                 for d in range(6)]
        ref = reference_dense_merge(
            [reference_dense_merge(trees[:3]),
             reference_dense_merge(trees[3:])])
        arrays = as_arrays(scheme, trees)
        new = scheme.merge([scheme.merge(arrays[:3]),
                            scheme.merge(arrays[3:])])
        assert new.structurally_equal(ref)


class TestHierarchicalEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_forests(self, seed):
        rng = np.random.default_rng(1000 + seed)
        fanin = int(rng.integers(1, 9))
        task_map = TaskMap.block(8, 5)
        scheme = HierarchicalLabelScheme()
        # hierarchical contributors must be non-empty (layout discovery),
        # but single-path/singleton-slot cases stay in the mix
        trees = [random_daemon_tree(rng, scheme, d, task_map,
                                    allow_empty=False)
                 for d in range(fanin)]
        ref = reference_hierarchical_merge(trees)
        new = scheme.merge(as_arrays(scheme, trees))
        assert new.structurally_equal(ref), f"seed {seed} diverged"

    def test_empty_contributor_rejected_like_reference(self):
        scheme = HierarchicalLabelScheme()
        trees = [PrefixTree()]
        with pytest.raises(ValueError):
            reference_hierarchical_merge(trees)
        with pytest.raises(ValueError):
            scheme.merge(as_arrays(scheme, trees))

    def test_merge_of_merges(self):
        rng = np.random.default_rng(7)
        task_map = TaskMap.block(6, 3)
        scheme = HierarchicalLabelScheme()
        trees = [random_daemon_tree(rng, scheme, d, task_map,
                                    allow_empty=False)
                 for d in range(6)]
        ref = reference_hierarchical_merge(
            [reference_hierarchical_merge(trees[:2]),
             reference_hierarchical_merge(trees[2:])])
        arrays = as_arrays(scheme, trees)
        new = scheme.merge([scheme.merge(arrays[:2]),
                            scheme.merge(arrays[2:])])
        assert new.structurally_equal(ref)


class TestTreeArrays:
    def test_round_trip_preserves_tree(self):
        rng = np.random.default_rng(5)
        task_map = TaskMap.block(2, 4)
        scheme = DenseLabelScheme(8)
        tree = random_daemon_tree(rng, scheme, 0, task_map,
                                  allow_empty=False)
        arrays = TreeArrays.from_prefix_tree(tree)
        assert arrays.node_count() == tree.node_count()
        assert arrays.serialized_bytes() == tree.serialized_bytes()
        assert arrays.depth() == tree.depth()
        assert arrays.to_prefix_tree().structurally_equal(tree)

    def test_size_model_matches_object_tree_hier(self):
        task_map = TaskMap.block(3, 4)
        scheme = HierarchicalLabelScheme()
        trees = [random_daemon_tree(np.random.default_rng(d + 1), scheme,
                                    d, task_map, allow_empty=False)
                 for d in range(3)]
        merged = scheme.merge(as_arrays(scheme, trees))
        assert isinstance(merged, TreeArrays)
        assert merged.serialized_bytes() == \
            merged.to_prefix_tree().serialized_bytes()

    def test_pickle_reinterns_frames(self):
        rng = np.random.default_rng(3)
        task_map = TaskMap.block(2, 4)
        scheme = DenseLabelScheme(8)
        tree = random_daemon_tree(rng, scheme, 1, task_map,
                                  allow_empty=False)
        arrays = TreeArrays.from_prefix_tree(tree)
        clone = pickle.loads(pickle.dumps(arrays))
        assert clone.to_prefix_tree().structurally_equal(tree)

    def test_arrays_inputs_return_arrays(self):
        task_map = TaskMap.block(2, 4)
        scheme = DenseLabelScheme(8)
        trees = [random_daemon_tree(np.random.default_rng(d), scheme, d,
                                    task_map, allow_empty=False)
                 for d in range(2)]
        merged = scheme.merge(as_arrays(scheme, trees))
        assert isinstance(merged, TreeArrays)
        assert merged.structurally_equal(reference_dense_merge(trees))


BENCH_KINDS = ("merge", "build", "stream")
BASELINES = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"
#: per kind: the baseline field an impossible baseline inflates, and by what
REGRESSION_FIELD = {"merge": ("speedup", 100.0), "build": ("speedup", 100.0),
                    "stream": ("wall_ratio", 0.01)}


def small_bench(kind, **kwargs):
    return run_bench(kind, daemons=4, samples=2, repeats=1,
                     progress=lambda *_: None, **kwargs)


def tampered(report, **changes):
    """A copy of ``report`` whose first entry has ``changes`` applied."""
    clone = copy.deepcopy(report)
    for name, value in changes.items():
        setattr(clone.entries[0], name, value)
    return clone


class TestBenchHarness:
    @pytest.fixture(scope="class")
    def reports(self):
        return {kind: small_bench(kind) for kind in BENCH_KINDS}

    @pytest.fixture
    def own_baseline(self, reports, tmp_path):
        """Each kind's report written out as its own baseline file."""
        paths = {}
        for kind, report in reports.items():
            paths[kind] = tmp_path / f"BENCH_{kind}.json"
            report.write(str(paths[kind]))
        return paths

    def test_bench_emits_valid_json(self, reports, own_baseline):
        data = json.loads(own_baseline["merge"].read_text())
        assert data["version"] == 1
        assert len(data["entries"]) == 2
        schemes = {e["scheme"] for e in data["entries"]}
        assert schemes == {"original", "optimized"}
        for entry in data["entries"]:
            assert entry["equal"] is True
            assert entry["reference_seconds"] > 0
            assert entry["vectorized_seconds"] > 0
            assert entry["tasks"] == 4 * 128
        assert reports["merge"].ok
        assert "speedup" in reports["merge"].table()

    def test_bench_build_report(self, reports, own_baseline):
        # ring-hang under both schemes + the low-sharing uniform:64 mix
        report = reports["build"]
        assert len(report.entries) == 3
        for entry in report.entries:
            assert entry.equal is True
            assert entry.reference_skipped is False
            assert entry.vectorized_seconds > 0
            assert entry.reference_seconds > 0
            assert entry.build_seconds == entry.vectorized_seconds
        data = json.loads(own_baseline["build"].read_text())
        assert data["workload"] == "fig07-ring-hang-bgl-build"
        assert {e["name"] for e in data["entries"]} == \
            {"build-original-vn-4", "build-optimized-vn-4",
             "build-optimized-vn-4-uniform64"}

    def test_bench_stream_report(self, reports, own_baseline):
        report = reports["stream"]
        assert report.ok and "ttfinal" in report.table()
        assert "fault demo: faults.injected=" in report.table()
        data = json.loads(own_baseline["stream"].read_text())
        assert data["workload"] == "fig07-ring-hang-bgl-stream"
        assert set(data["fault_counters"]) == \
            {"faults.injected", "tbon.retries", "tbon.corrupt_detected"}
        for entry in data["entries"]:
            assert entry["equal"] is True
            assert 0 < entry["ttft"] < 0.2 * entry["ttfinal"]
            assert entry["partial_merges"] == 3
            assert entry["wall_ratio"] > 0

    @pytest.mark.parametrize("kind", BENCH_KINDS)
    def test_report_fields_are_the_checked_in_baselines(self, kind, reports):
        """The six baselines under benchmarks/baselines gate the harness
        unregenerated: same top-level fields, entry names and entry keys."""
        checked_in = json.loads(
            (BASELINES / f"BENCH_{kind}_quick.json").read_text())
        data = reports[kind].to_dict()
        assert sorted(data) == sorted(checked_in)
        assert data["workload"] == checked_in["workload"]
        assert [e["name"].replace("-vn-4", "-vn-64")
                for e in data["entries"]] == \
            [e["name"] for e in checked_in["entries"]]
        for entry, base in zip(data["entries"], checked_in["entries"]):
            assert sorted(entry) == sorted(base)

    def test_quick_does_not_override_explicit_values(self):
        report = small_bench("merge", quick=True)
        assert all(e.daemons == 4 for e in report.entries)
        assert all(e.samples == 2 for e in report.entries)
        with pytest.raises(ValueError):
            run_bench("merge", daemons=0, progress=lambda *_: None)

    def test_unknown_kind_and_scale_are_rejected(self):
        with pytest.raises(ValueError, match="unknown bench kind"):
            small_bench("finalize")
        for kind, scale in [("merge", "ten-million"), ("stream", "million")]:
            with pytest.raises(ValueError, match="has no scale"):
                small_bench(kind, scale=scale)

    @pytest.mark.parametrize("kind", BENCH_KINDS)
    def test_baseline_regression_detection(self, kind, reports,
                                           own_baseline):
        report, base = reports[kind], own_baseline[kind]
        ok, messages = check_baseline(report, str(base))
        assert ok and len(messages) == len(report.entries)
        assert all(": ok (" in m for m in messages)
        # a baseline claiming a 100x better ratio must trip the 2x gate
        field, factor = REGRESSION_FIELD[kind]
        better = report.to_dict()
        for entry in better["entries"]:
            entry[field] *= factor
        base.write_text(json.dumps(better))
        ok, messages = check_baseline(report, str(base))
        assert not ok
        assert all("REGRESSION" in m for m in messages)

    @pytest.mark.parametrize("kind", BENCH_KINDS)
    def test_divergence_fails_before_any_baseline(self, kind, reports,
                                                  own_baseline):
        broken = tampered(reports[kind], equal=False)
        assert not broken.ok
        assert len(broken.failures()) == 1
        ok, messages = check_baseline(broken, str(own_baseline[kind]))
        assert not ok
        assert "diverged" in messages[0] and ": ok (" in messages[1]

    @pytest.mark.parametrize("kind", BENCH_KINDS)
    def test_missing_baseline_entry_is_strict(self, kind, reports, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"entries": []}))
        ok, messages = check_baseline(reports[kind], str(empty))
        assert not ok
        assert all("no matching baseline entry" in m for m in messages)

    def test_stream_ttft_gate(self, reports, own_baseline):
        late = tampered(reports["stream"], ttft_ratio=0.25)
        assert not late.ok
        ok, messages = check_baseline(late, str(own_baseline["stream"]))
        assert not ok and "TTFT GATE" in messages[0]

    def test_stream_simulated_time_drift(self, reports, own_baseline):
        base = own_baseline["stream"]
        moved = json.loads(base.read_text())
        moved["entries"][0]["ttfinal"] *= 1.001
        base.write_text(json.dumps(moved))
        ok, messages = check_baseline(reports["stream"], str(base))
        assert not ok
        assert "simulated ttfinal drifted" in messages[0]
        assert ": ok (" in messages[1]

    def test_reference_merge_dispatch_validates(self):
        with pytest.raises(ValueError):
            reference_merge("nonsense", [])
