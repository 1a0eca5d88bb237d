"""Unit tests for frames, stack traces, and the prefix tree's reads."""

import numpy as np
import pytest

from conftest import label_bytes, wire_bytes
from per_object_oracle import DenseBitVector, HierarchicalTaskSet, ObjectTree
from repro.core.frames import Frame, ROOT_FRAME, StackTrace
from repro.core.treearrays import TreeArrays
from repro.core.visualize import to_ascii


def trace(*names: str) -> StackTrace:
    return StackTrace.from_names(names)


def label(*ranks: int, width: int = 16) -> DenseBitVector:
    return DenseBitVector.from_ranks(ranks, width)


def tree_of(*inserts) -> TreeArrays:
    """The tree of ``(trace, label)`` insertions, in order."""
    tree = ObjectTree()
    for path, tasks in inserts:
        tree.insert(path, tasks)
    return tree.to_arrays()


class TestFrame:
    def test_empty_function_rejected(self):
        with pytest.raises(ValueError):
            Frame("")

    def test_module_distinguishes_frames(self):
        assert Frame("poll", "libmpi.so") != Frame("poll", "app")

    def test_serialized_bytes_includes_names(self):
        assert Frame("main", "app").serialized_bytes() == 4 + 4 + 2 + 3


class TestStackTrace:
    def test_requires_frames(self):
        with pytest.raises(ValueError):
            StackTrace(())

    def test_root_and_leaf(self):
        t = trace("_start", "main", "foo")
        assert t.root.function == "_start"
        assert t.leaf.function == "foo"
        assert t.depth == 3

    def test_prefix(self):
        t = trace("a", "b", "c")
        assert t.prefix(2) == trace("a", "b")
        with pytest.raises(ValueError):
            t.prefix(0)
        with pytest.raises(ValueError):
            t.prefix(4)

    def test_is_prefix_of(self):
        assert trace("a", "b").is_prefix_of(trace("a", "b", "c"))
        assert not trace("a", "c").is_prefix_of(trace("a", "b", "c"))
        assert trace("a").is_prefix_of(trace("a"))

    def test_thread_id_not_in_equality(self):
        a = StackTrace.from_names(["a", "b"], thread_id=0)
        b = StackTrace.from_names(["a", "b"], thread_id=3)
        assert a == b and hash(a) == hash(b)

    def test_extended(self):
        t = trace("a").extended(Frame("b"))
        assert t == trace("a", "b")

    def test_str_renders_path(self):
        assert str(trace("a", "b")) == "a > b"


class TestPrefixTreeInsert:
    def test_single_trace(self):
        tree = tree_of((trace("main", "foo"), label(0)))
        assert tree.node_count() == 2
        node = tree.node_at(trace("main", "foo"))
        assert node is not None
        assert tree.label_of(node).tolist() == [0]

    def test_shared_prefix_unions_labels(self):
        tree = tree_of((trace("main", "foo"), label(0)),
                       (trace("main", "bar"), label(1)))
        main = tree.node_at(trace("main"))
        assert tree.label_of(main).tolist() == [0, 1]
        assert tree.node_count() == 3

    def test_same_path_twice_unions(self):
        tree = tree_of((trace("main"), label(0)), (trace("main"), label(1)))
        assert tree.node_count() == 1
        assert tree.label_of(tree.node_at(trace("main"))).size == 2

    def test_label_reuse_is_safe(self):
        """The inserted label object is copied, not aliased."""
        shared = label(0)
        tree = ObjectTree()
        tree.insert(trace("a"), shared)
        tree.insert(trace("b"), shared)
        shared.union_inplace(label(5))
        arrays = tree.to_arrays()
        assert arrays.label_of(arrays.node_at(trace("b"))).size == 1


class TestLabelReads:
    """A dense edge label reads as sorted ``int64`` ranks; a hierarchical
    one must be finalized first."""

    def test_label_of_is_sorted_int64_ranks(self):
        tree = tree_of((trace("main"), label(9, 2, 15)))
        ranks = tree.label_of(0)
        assert ranks.dtype == np.int64 and ranks.tolist() == [2, 9, 15]

    def test_label_of_reads_width_not_padding(self):
        tree = tree_of((trace("main"), label(0, 12, width=13)))
        assert tree.labels.shape[1] == 2
        assert tree.label_of(0).tolist() == [0, 12]

    def test_row_ranks_of_a_union(self):
        tree = tree_of((trace("main", "a"), label(1)),
                       (trace("main", "b"), label(3, 4)))
        union = np.bitwise_or.reduce(tree.labels, axis=0)
        assert tree.row_ranks(union).tolist() == [1, 3, 4]

    def test_hierarchical_tree_raises(self):
        tree = ObjectTree()
        tree.insert(trace("main"), HierarchicalTaskSet.for_daemon(0, 2, [1]))
        arrays = tree.to_arrays()
        with pytest.raises(TypeError, match="hierarchical"):
            arrays.label_of(0)


class TestPrefixTreeQueries:
    def make(self) -> TreeArrays:
        return tree_of(
            (trace("main", "PMPI_Barrier", "progress"), label(0, 3)),
            (trace("main", "PMPI_Waitall"), label(2)),
            (trace("main", "do_SendOrStall"), label(1)))

    def test_walk_visits_all_nodes(self):
        tree = self.make()
        paths = [str(tree.paths()[node]) for node in tree.preorder()]
        assert paths == ["main", "main > PMPI_Barrier",
                         "main > PMPI_Barrier > progress",
                         "main > PMPI_Waitall", "main > do_SendOrStall"]

    def test_leaf_paths(self):
        tree = self.make()
        kids = tree.children()
        leaves = {str(path) for node, path in enumerate(tree.paths())
                  if not kids[node]}
        assert leaves == {
            "main > PMPI_Barrier > progress",
            "main > PMPI_Waitall",
            "main > do_SendOrStall",
        }

    def test_depth(self):
        assert self.make().depth() == 3

    def test_find_missing_returns_none(self):
        assert self.make().node_at(trace("nope")) is None
        assert self.make().node_at(trace("main", "nope")) is None

    def test_serialized_bytes_counts_labels_and_frames(self):
        tree = self.make()
        total = tree.serialized_bytes()
        assert total == wire_bytes(tree)
        assert total > label_bytes(tree)  # frames + structure on top

    def test_structural_equality_ignores_child_order(self):
        a = tree_of((trace("m", "x"), label(0)), (trace("m", "y"), label(1)))
        b = tree_of((trace("m", "y"), label(1)), (trace("m", "x"), label(0)))
        assert not a.arrays_equal(b)
        assert a.structurally_equal(b)

    def test_structural_inequality_on_labels(self):
        a = tree_of((trace("m"), label(0)))
        b = tree_of((trace("m"), label(1)))
        assert not a.structurally_equal(b)
        narrow = tree_of((trace("m"), label(0, width=8)))
        assert not a.structurally_equal(narrow)

    def test_structural_inequality_on_shape(self):
        a = self.make()
        b = tree_of((trace("main", "PMPI_Barrier", "progress"), label(0, 3)),
                    (trace("main", "PMPI_Waitall"), label(2)),
                    (trace("main", "do_Send"), label(1)))
        assert not a.structurally_equal(b)
        assert not a.structurally_equal(a.truncated_at_depth(2))


class TestTruncation:
    def make(self) -> TreeArrays:
        return tree_of(
            (trace("main", "PMPI_Barrier", "progress", "poll"), label(0)),
            (trace("main", "do_work"), label(1)))

    def test_truncated_at_depth(self):
        cut = self.make().truncated_at_depth(2)
        assert cut.depth() == 2
        assert not cut.children()[cut.node_at(trace("main", "PMPI_Barrier"))]

    def test_truncated_at_depth_validates(self):
        with pytest.raises(ValueError):
            self.make().truncated_at_depth(0)

    def test_truncated_by_predicate(self):
        cut = self.make().truncated(
            lambda path, frame: frame.function.startswith("PMPI_"))
        barrier = cut.node_at(trace("main", "PMPI_Barrier"))
        assert barrier is not None and not cut.children()[barrier]
        # untouched branch survives in full
        assert cut.node_at(trace("main", "do_work")) is not None
        assert cut.node_count() == 3

    def test_truncation_preserves_labels(self):
        cut = self.make().truncated_at_depth(1)
        assert cut.label_of(cut.node_at(trace("main"))).tolist() == [0, 1]

    def test_truncation_does_not_mutate_original(self):
        tree = self.make()
        _ = tree.truncated_at_depth(1)
        assert tree.depth() == 4


class TestRenderText:
    def test_render_contains_labels(self):
        tree = tree_of((trace("main", "PMPI_Barrier"),
                        label(*([0] + list(range(3, 16))))))
        text = to_ascii(tree)
        assert "PMPI_Barrier" in text
        assert "14:[0,3-15]" in text

    def test_render_root_first_line(self):
        tree = tree_of((trace("main"), label(0)))
        assert to_ascii(tree).splitlines()[0] == ROOT_FRAME.function
