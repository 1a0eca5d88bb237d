"""Unit tests for frames, stack traces, and the prefix tree."""

import pytest

from repro.core.frames import Frame, ROOT_FRAME, StackTrace
from repro.core.prefix_tree import PrefixTree
from repro.core.taskset import DenseBitVector


def trace(*names: str) -> StackTrace:
    return StackTrace.from_names(names)


def label(*ranks: int, width: int = 16) -> DenseBitVector:
    return DenseBitVector.from_ranks(ranks, width)


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
        tree = PrefixTree()
        tree.insert(trace("main", "foo"), label(0))
        assert tree.node_count() == 2
        node = tree.find(trace("main", "foo"))
        assert node is not None and node.tasks.to_ranks().tolist() == [0]

    def test_shared_prefix_unions_labels(self):
        tree = PrefixTree()
        tree.insert(trace("main", "foo"), label(0))
        tree.insert(trace("main", "bar"), label(1))
        main = tree.find(trace("main"))
        assert main.tasks.to_ranks().tolist() == [0, 1]
        assert tree.node_count() == 3

    def test_same_path_twice_unions(self):
        tree = PrefixTree()
        tree.insert(trace("main"), label(0))
        tree.insert(trace("main"), label(1))
        assert tree.node_count() == 1
        assert tree.find(trace("main")).tasks.count() == 2

    def test_label_reuse_is_safe(self):
        """The inserted label object is copied, not aliased."""
        tree = PrefixTree()
        shared = label(0)
        tree.insert(trace("a"), shared)
        tree.insert(trace("b"), shared)
        tree.find(trace("a")).tasks.union_inplace(label(5))
        assert tree.find(trace("b")).tasks.count() == 1


class TestPrefixTreeQueries:
    def make(self) -> PrefixTree:
        tree = PrefixTree()
        tree.insert(trace("main", "PMPI_Barrier", "progress"), label(0, 3))
        tree.insert(trace("main", "PMPI_Waitall"), label(2))
        tree.insert(trace("main", "do_SendOrStall"), label(1))
        return tree

    def test_walk_visits_all_nodes(self):
        paths = [str(p) for p, _ in self.make().walk()]
        assert "main" in paths
        assert "main > PMPI_Barrier > progress" in paths
        assert len(paths) == 5

    def test_leaf_paths(self):
        leaves = {str(p) for p, _ in self.make().leaf_paths()}
        assert leaves == {
            "main > PMPI_Barrier > progress",
            "main > PMPI_Waitall",
            "main > do_SendOrStall",
        }

    def test_depth(self):
        assert self.make().depth() == 3

    def test_find_missing_returns_none(self):
        assert self.make().find(trace("nope")) is None

    def test_serialized_bytes_counts_labels_and_frames(self):
        tree = self.make()
        total = tree.serialized_bytes()
        label_bytes = sum(n.tasks.serialized_bytes()
                          for _, n in tree.walk())
        assert total > label_bytes  # frames + structure on top

    def test_structural_equality_ignores_child_order(self):
        a = PrefixTree()
        a.insert(trace("m", "x"), label(0))
        a.insert(trace("m", "y"), label(1))
        b = PrefixTree()
        b.insert(trace("m", "y"), label(1))
        b.insert(trace("m", "x"), label(0))
        assert a.structurally_equal(b)

    def test_structural_inequality_on_labels(self):
        a = PrefixTree()
        a.insert(trace("m"), label(0))
        b = PrefixTree()
        b.insert(trace("m"), label(1))
        assert not a.structurally_equal(b)

    def test_copy_deep(self):
        a = self.make()
        b = a.copy()
        b.find(trace("main")).tasks.union_inplace(label(9))
        assert not a.structurally_equal(b)


class TestTruncation:
    def make(self) -> PrefixTree:
        tree = PrefixTree()
        tree.insert(trace("main", "PMPI_Barrier", "progress", "poll"),
                    label(0))
        tree.insert(trace("main", "do_work"), label(1))
        return tree

    def test_truncated_at_depth(self):
        cut = self.make().truncated_at_depth(2)
        assert cut.depth() == 2
        assert cut.find(trace("main", "PMPI_Barrier")).is_leaf()

    def test_truncated_at_depth_validates(self):
        with pytest.raises(ValueError):
            self.make().truncated_at_depth(0)

    def test_truncated_by_predicate(self):
        cut = self.make().truncated(
            lambda path, frame: frame.function.startswith("PMPI_"))
        barrier = cut.find(trace("main", "PMPI_Barrier"))
        assert barrier is not None and barrier.is_leaf()
        # untouched branch survives in full
        assert cut.find(trace("main", "do_work")) is not None

    def test_truncation_preserves_labels(self):
        cut = self.make().truncated_at_depth(1)
        assert cut.find(trace("main")).tasks.to_ranks().tolist() == [0, 1]

    def test_truncation_does_not_mutate_original(self):
        tree = self.make()
        _ = tree.truncated_at_depth(1)
        assert tree.depth() == 4


class TestRenderText:
    def test_render_contains_labels(self):
        tree = PrefixTree()
        tree.insert(trace("main", "PMPI_Barrier"),
                    label(*([0] + list(range(3, 16)))))
        text = tree.render_text()
        assert "PMPI_Barrier" in text
        assert "14:[0,3-15]" in text

    def test_render_root_first_line(self):
        tree = PrefixTree()
        tree.insert(trace("main"), label(0))
        assert tree.render_text().splitlines()[0] == ROOT_FRAME.function
