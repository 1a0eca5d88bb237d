"""Unit tests for the two label schemes and the STAT merge kernel."""

import pytest

from conftest import as_arrays
from repro.core.frames import StackTrace
from repro.core.merge import DenseLabelScheme, HierarchicalLabelScheme
from per_object_oracle import (
    HierarchicalTaskSet,
    ObjectTree,
    daemon_label,
    label_object,
)
from repro.core.taskset import TaskMap
from repro.core.treearrays import TreeArrays


def trace(*names):
    return StackTrace.from_names(names)


def label_at(tree, *names):
    """The edge label object into the node at ``names`` (which must
    exist)."""
    return label_object(tree, tree.node_at(trace(*names)))


def build_daemon_tree(scheme, daemon_id, task_map, paths_slots):
    """Helper: a daemon-local tree from {path: slot list}."""
    tree = ObjectTree()
    width = task_map.tasks_of(daemon_id)
    for path, slots in paths_slots.items():
        tree.insert(trace(*path),
                    daemon_label(scheme, daemon_id, width, slots, task_map))
    return tree


@pytest.fixture
def task_map():
    return TaskMap.cyclic(4, 4)  # 16 tasks


class TestDenseScheme:
    def test_daemon_label_is_global_width(self, task_map):
        scheme = DenseLabelScheme(16)
        lbl = daemon_label(scheme, 0, 4, [0, 1], task_map)
        assert lbl.width == 16
        # cyclic(4,4): daemon 0 slots 0,1 -> ranks 0, 4
        assert lbl.to_ranks().tolist() == [0, 4]

    def test_daemon_label_empty_slots(self, task_map):
        scheme = DenseLabelScheme(16)
        assert daemon_label(scheme, 0, 4, [], task_map).count() == 0

    def test_invalid_total_rejected(self):
        with pytest.raises(ValueError):
            DenseLabelScheme(0)

    def test_merge_unions_matching_paths(self, task_map):
        scheme = DenseLabelScheme(16)
        t0 = build_daemon_tree(scheme, 0, task_map,
                               {("main", "barrier"): [0, 1]})
        t1 = build_daemon_tree(scheme, 1, task_map,
                               {("main", "barrier"): [0]})
        merged = scheme.merge(as_arrays(scheme, [t0, t1]))
        assert label_at(merged, "main", "barrier").to_ranks().tolist() == \
            [0, 1, 4]

    def test_merge_keeps_disjoint_paths(self, task_map):
        scheme = DenseLabelScheme(16)
        t0 = build_daemon_tree(scheme, 0, task_map, {("main", "a"): [0]})
        t1 = build_daemon_tree(scheme, 1, task_map, {("main", "b"): [0]})
        merged = scheme.merge(as_arrays(scheme, [t0, t1]))
        assert merged.node_at(trace("main", "a")) is not None
        assert merged.node_at(trace("main", "b")) is not None
        assert label_at(merged, "main").count() == 2

    def test_finalize_is_identity(self, task_map):
        """Dense labels are already rank-ordered: the merged tree is the
        finalized tree."""
        scheme = DenseLabelScheme(16)
        t0 = build_daemon_tree(scheme, 0, task_map, {("main",): [0]})
        final = scheme.finalize(as_arrays(scheme, [t0])[0], task_map)
        assert isinstance(final, TreeArrays) and final.kind == "dense"
        assert final.structurally_equal(t0.to_arrays())

    def test_merge_does_not_mutate_inputs(self, task_map):
        scheme = DenseLabelScheme(16)
        t0, t1 = as_arrays(scheme, [
            build_daemon_tree(scheme, 0, task_map, {("main",): [0]}),
            build_daemon_tree(scheme, 1, task_map, {("main",): [0]})])
        before = label_at(t0, "main").copy()
        scheme.merge([t0, t1])
        assert label_at(t0, "main") == before


class TestHierarchicalScheme:
    def test_daemon_label_is_subtree_local(self, task_map):
        scheme = HierarchicalLabelScheme()
        lbl = daemon_label(scheme, 2, 4, [1, 3], task_map)
        assert isinstance(lbl, HierarchicalTaskSet)
        assert lbl.layout.daemon_ids == (2,)
        assert lbl.count() == 2

    def test_merge_concatenates_layouts(self, task_map):
        scheme = HierarchicalLabelScheme()
        trees = [build_daemon_tree(scheme, d, task_map,
                                   {("main", "barrier"): [0]})
                 for d in range(3)]
        merged = scheme.merge(as_arrays(scheme, trees))
        assert merged.layout.daemon_ids == (0, 1, 2)

    def test_merge_zero_fills_missing_children(self, task_map):
        scheme = HierarchicalLabelScheme()
        t0 = build_daemon_tree(scheme, 0, task_map, {("main", "a"): [0]})
        t1 = build_daemon_tree(scheme, 1, task_map, {("main", "b"): [2]})
        merged = scheme.merge(as_arrays(scheme, [t0, t1]))
        a = label_at(merged, "main", "a")
        assert a.local_slots()[0].tolist() == [0]
        assert a.local_slots()[1].tolist() == []

    def test_merge_preserves_global_ranks(self, task_map):
        scheme = HierarchicalLabelScheme()
        trees = [build_daemon_tree(scheme, d, task_map,
                                   {("main",): [d]})
                 for d in range(4)]
        merged = scheme.merge(as_arrays(scheme, trees))
        ranks = label_at(merged, "main").to_global_ranks(task_map)
        expect = sorted(int(task_map.ranks_of(d)[d]) for d in range(4))
        assert ranks.tolist() == expect

    def test_finalize_remaps_to_rank_order(self, task_map):
        scheme = HierarchicalLabelScheme()
        trees = [build_daemon_tree(scheme, d, task_map,
                                   {("main",): [0, 1, 2, 3]})
                 for d in range(4)]
        final = scheme.finalize(scheme.merge(as_arrays(scheme, trees)),
                                task_map)
        assert final.kind == "dense"
        assert label_at(final, "main").to_ranks().tolist() == \
            list(range(16))

    def test_merge_of_zero_trees_rejected(self):
        with pytest.raises(ValueError):
            HierarchicalLabelScheme().merge([])

    def test_finalize_of_dense_tree_rejected(self, task_map):
        scheme = DenseLabelScheme(16)
        t0, = as_arrays(scheme, [
            build_daemon_tree(scheme, 0, task_map, {("main",): [0]})])
        with pytest.raises(TypeError):
            HierarchicalLabelScheme().finalize(t0, task_map)


class TestSchemeEquivalence:
    """Both schemes must produce identical final (rank-ordered) trees."""

    @pytest.mark.parametrize("mapping", ["block", "cyclic"])
    def test_same_final_tree(self, mapping):
        tm = (TaskMap.block if mapping == "block" else TaskMap.cyclic)(4, 4)
        paths = {
            ("main", "barrier", "poll"): [0, 1],
            ("main", "waitall"): [2],
            ("main", "stall"): [3],
        }
        finals = []
        for scheme in (DenseLabelScheme(16), HierarchicalLabelScheme()):
            trees = [build_daemon_tree(scheme, d, tm, paths)
                     for d in range(4)]
            finals.append(scheme.finalize(
                scheme.merge(as_arrays(scheme, trees)), tm))
        assert finals[0].structurally_equal(finals[1])

    def test_merge_associativity(self, task_map):
        """merge(merge(a,b),c) == merge(a,b,c) for both schemes."""
        for scheme in (DenseLabelScheme(16), HierarchicalLabelScheme()):
            trees = as_arrays(scheme, [
                build_daemon_tree(scheme, d, task_map,
                                  {("main", f"f{d % 2}"): [d]})
                for d in range(3)])
            flat = scheme.merge(trees)
            nested = scheme.merge([scheme.merge(trees[:2]), trees[2]])
            flat_final = scheme.finalize(flat, task_map)
            nested_final = scheme.finalize(nested, task_map)
            assert flat_final.structurally_equal(nested_final), scheme.name
