"""Kernel equivalence: vectorized k-way merges vs the retained reference.

Hypothesis-style randomized property tests: generate random daemon-tree
forests (both schemes, varying fan-in, empty/singleton contributors) and
assert the vectorized kernels produce trees ``structurally_equal`` to the
retained recursive reference implementations — plus array/object
round-trips, pickling, and ``stat-repro bench`` JSON validity.
"""

import json
import pickle

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


class TestBenchHarness:
    def test_bench_emits_valid_json(self, tmp_path):
        report = run_bench(daemons=4, samples=2, repeats=1, million=False,
                           progress=lambda *_: None)
        out = tmp_path / "BENCH_merge.json"
        report.write(str(out))
        data = json.loads(out.read_text())
        assert data["version"] == 1
        assert len(data["entries"]) == 2
        schemes = {e["scheme"] for e in data["entries"]}
        assert schemes == {"original", "optimized"}
        for entry in data["entries"]:
            assert entry["equal"] is True
            assert entry["reference_seconds"] > 0
            assert entry["vectorized_seconds"] > 0
            assert entry["tasks"] == 4 * 128
        assert report.ok
        assert "speedup" in report.table()

    def test_bench_build_report(self, tmp_path):
        report = run_bench(daemons=4, samples=2, repeats=1, million=False,
                           build=True, progress=lambda *_: None)
        assert len(report.entries) == 2  # merge entries unchanged
        assert report.build is not None
        # ring-hang under both schemes + the low-sharing uniform:64 mix
        assert len(report.build.entries) == 3
        for entry in report.build.entries:
            assert entry.equal is True
            assert entry.reference_skipped is False
            assert entry.vectorized_seconds > 0
            assert entry.reference_seconds > 0
            assert entry.build_seconds == entry.vectorized_seconds
        out = tmp_path / "BENCH_build.json"
        report.build.write(str(out))
        data = json.loads(out.read_text())
        assert data["workload"] == "fig07-ring-hang-bgl-build"
        assert {e["name"] for e in data["entries"]} == \
            {"build-original-vn-4", "build-optimized-vn-4",
             "build-optimized-vn-4-uniform64"}
        # the construction report gates through the same baseline checker
        ok, messages = check_baseline(report.build, str(out))
        assert ok and messages

    def test_bench_without_build_has_no_build_report(self):
        report = run_bench(daemons=4, samples=2, repeats=1,
                           progress=lambda *_: None)
        assert report.build is None

    def test_quick_does_not_override_explicit_values(self):
        report = run_bench(daemons=4, samples=2, repeats=1, quick=True,
                           progress=lambda *_: None)
        assert all(e.daemons == 4 for e in report.entries)
        assert all(e.samples == 2 for e in report.entries)
        with pytest.raises(ValueError):
            run_bench(daemons=0, progress=lambda *_: None)

    def test_baseline_regression_detection(self, tmp_path):
        report = run_bench(daemons=4, samples=2, repeats=1,
                           progress=lambda *_: None)
        base = tmp_path / "base.json"
        report.write(str(base))
        ok, messages = check_baseline(report, str(base))
        assert ok and messages
        # a baseline claiming 100x better speedup must trip the 2x gate
        fast = report.to_dict()
        for entry in fast["entries"]:
            entry["speedup"] *= 100.0
        base.write_text(json.dumps(fast))
        ok, messages = check_baseline(report, str(base))
        assert not ok
        assert any("REGRESSION" in m for m in messages)

    def test_reference_merge_dispatch_validates(self):
        with pytest.raises(ValueError):
            reference_merge("nonsense", [])
