"""Kernel equivalence: vectorized k-way merges vs the retained reference.

Hypothesis-style randomized property tests: generate random daemon-tree
forests (both schemes, varying fan-in, empty/singleton contributors) and
assert the vectorized kernels produce trees ``structurally_equal`` to the
retained recursive reference implementations — plus array/object
conversions and pickling.
"""

import pickle

import numpy as np
import pytest

from conftest import as_arrays, wire_bytes
from per_object_oracle import (
    ObjectTree,
    daemon_label,
    object_tree,
    reference_dense_merge,
    reference_hierarchical_merge,
    reference_merge,
)
from repro.core.codec import verify_size_model
from repro.core.frames import StackTrace
from repro.core.merge import DenseLabelScheme, HierarchicalLabelScheme
from repro.core.taskset import TaskMap
from repro.core.treearrays import TreeArrays

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
    tree = ObjectTree()
    width = task_map.tasks_of(daemon_id)
    if allow_empty and rng.random() < 0.15:
        return tree  # empty contributor
    for path in random_paths(rng):
        n_slots = int(rng.integers(0, width + 1))
        slots = sorted(rng.choice(width, size=n_slots,
                                  replace=False).tolist())
        tree.insert(
            StackTrace.from_names(path),
            daemon_label(scheme, daemon_id, width, slots, task_map))
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
        assert new.structurally_equal(ref.to_arrays()), \
            f"seed {seed} diverged"

    def test_singleton_contributor(self):
        task_map = TaskMap.block(2, 4)
        scheme = DenseLabelScheme(8)
        tree = ObjectTree()
        tree.insert(StackTrace.from_names(["main", "poll"]),
                    daemon_label(scheme, 0, 4, [1, 2], task_map))
        arrays = as_arrays(scheme, [tree])
        merged = scheme.merge(arrays)
        assert merged is not arrays[0]
        assert merged.structurally_equal(
            reference_dense_merge([tree]).to_arrays())

    def test_all_empty_contributors(self):
        scheme = DenseLabelScheme(8)
        trees = [ObjectTree() for _ in range(3)]
        merged = scheme.merge(as_arrays(scheme, trees))
        assert merged.structurally_equal(
            reference_dense_merge(trees).to_arrays())
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
        assert new.structurally_equal(ref.to_arrays())


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
        assert new.structurally_equal(ref.to_arrays()), \
            f"seed {seed} diverged"

    def test_empty_contributor_rejected_like_reference(self):
        scheme = HierarchicalLabelScheme()
        trees = [ObjectTree()]
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
        assert new.structurally_equal(ref.to_arrays())


def object_nodes(tree):
    """Every non-root node of an ``ObjectTree``."""
    stack = list(tree.root.children.values())
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children.values())


def object_wire_bytes(tree):
    """The wire-size model over an ``ObjectTree``: a tree header, then
    per node its frame, a child count and id, and its own label."""
    return 8 + sum(n.frame.serialized_bytes() + 8 + n.tasks.serialized_bytes()
                   for n in object_nodes(tree))


class TestTreeArrays:
    @pytest.mark.parametrize("scheme", [DenseLabelScheme(8),
                                        HierarchicalLabelScheme()],
                             ids=["dense", "hier"])
    def test_round_trip_preserves_tree(self, scheme):
        rng = np.random.default_rng(5)
        task_map = TaskMap.block(2, 4)
        tree = random_daemon_tree(rng, scheme, 0, task_map,
                                  allow_empty=False)
        arrays = tree.to_arrays()
        assert object_tree(arrays).to_arrays().arrays_equal(arrays)
        assert arrays.node_count() == len(list(object_nodes(tree)))
        assert arrays.serialized_bytes() == object_wire_bytes(tree)
        assert arrays.serialized_bytes() == wire_bytes(arrays)
        assert arrays.depth() == max(len(p) for p in arrays.paths())

    @pytest.mark.parametrize("scheme", [DenseLabelScheme(12),
                                        HierarchicalLabelScheme()],
                             ids=["dense", "hier"])
    def test_size_model_matches_object_tree(self, scheme):
        task_map = TaskMap.block(3, 4)
        trees = [random_daemon_tree(np.random.default_rng(d + 1), scheme,
                                    d, task_map, allow_empty=False)
                 for d in range(3)]
        merged = scheme.merge(as_arrays(scheme, trees))
        assert isinstance(merged, TreeArrays)
        ref = reference_merge(scheme.name, trees)
        assert merged.node_count() == len(list(object_nodes(ref)))
        assert merged.serialized_bytes() == object_wire_bytes(ref)
        assert merged.serialized_bytes() == wire_bytes(merged)
        verify_size_model(merged)

    def test_pickle_reinterns_frames(self):
        rng = np.random.default_rng(3)
        task_map = TaskMap.block(2, 4)
        scheme = DenseLabelScheme(8)
        tree = random_daemon_tree(rng, scheme, 1, task_map,
                                  allow_empty=False)
        arrays = tree.to_arrays()
        clone = pickle.loads(pickle.dumps(arrays))
        assert clone.structurally_equal(arrays)
        assert clone.arrays_equal(arrays)

    def test_arrays_inputs_return_arrays(self):
        task_map = TaskMap.block(2, 4)
        scheme = DenseLabelScheme(8)
        trees = [random_daemon_tree(np.random.default_rng(d), scheme, d,
                                    task_map, allow_empty=False)
                 for d in range(2)]
        merged = scheme.merge(as_arrays(scheme, trees))
        assert isinstance(merged, TreeArrays)
        assert merged.structurally_equal(
            reference_dense_merge(trees).to_arrays())


def test_reference_merge_dispatch_validates():
    with pytest.raises(ValueError):
        reference_merge("nonsense", [])
