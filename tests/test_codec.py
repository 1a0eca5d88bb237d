"""Tests for the binary prefix-tree codec."""

import pytest

from conftest import as_arrays
from repro.core.codec import CodecError, pack_tree, unpack_tree, \
    verify_size_model
from repro.core.frames import StackTrace
from repro.core.merge import HierarchicalLabelScheme
from repro.core.prefix_tree import PrefixTree
from repro.core.taskset import DenseBitVector, HierarchicalTaskSet, TaskMap


def dense_tree() -> PrefixTree:
    tree = PrefixTree()
    w = 1024
    tree.insert(StackTrace.from_names(["_start", "main", "PMPI_Barrier"]),
                DenseBitVector.from_ranks([0] + list(range(3, 1024)), w))
    tree.insert(StackTrace.from_names(["_start", "main", "do_SendOrStall"]),
                DenseBitVector.from_ranks([1], w))
    tree.insert(StackTrace.from_names(["_start", "main", "PMPI_Waitall"],
                                      module="libmpi.so"),
                DenseBitVector.from_ranks([2], w))
    return tree


def hierarchical_tree() -> PrefixTree:
    scheme = HierarchicalLabelScheme()
    tm = TaskMap.cyclic(4, 8)
    trees = []
    for d in range(4):
        t = PrefixTree()
        t.insert(StackTrace.from_names(["main", "barrier"]),
                 scheme.daemon_label(d, 8, range(0, 8, 2), tm))
        t.insert(StackTrace.from_names(["main", "wait"]),
                 scheme.daemon_label(d, 8, [1], tm))
        trees.append(t)
    return scheme.merge(as_arrays(scheme, trees)).to_prefix_tree()


class TestRoundTrip:
    def test_dense_roundtrip(self):
        tree = dense_tree()
        clone = unpack_tree(pack_tree(tree))
        assert tree.structurally_equal(clone)

    def test_hierarchical_roundtrip(self):
        tree = hierarchical_tree()
        clone = unpack_tree(pack_tree(tree))
        assert tree.structurally_equal(clone)
        # layouts survive
        _, label = next(iter(clone.edges()))
        assert isinstance(label, HierarchicalTaskSet)
        assert label.layout.daemon_ids == (0, 1, 2, 3)

    def test_empty_tree_roundtrip(self):
        tree = PrefixTree()
        clone = unpack_tree(pack_tree(tree))
        assert clone.node_count() == 0

    def test_module_names_preserved(self):
        clone = unpack_tree(pack_tree(dense_tree()))
        frames = {(p.leaf.function, p.leaf.module)
                  for p, _ in clone.walk()}
        assert ("PMPI_Waitall", "libmpi.so") in frames

    def test_unicode_function_names(self):
        tree = PrefixTree()
        tree.insert(StackTrace.from_names(["método_á"]),
                    DenseBitVector.from_ranks([0], 8))
        clone = unpack_tree(pack_tree(tree))
        assert clone.find(StackTrace.from_names(["método_á"])) is not None


class TestSizeModel:
    def test_dense_size_model_close(self):
        verify_size_model(dense_tree())

    def test_hierarchical_size_model_close(self):
        verify_size_model(hierarchical_tree())

    def test_large_dense_tree_size_dominated_by_labels(self):
        tree = dense_tree()
        packed = pack_tree(tree)
        label_bytes = sum(n.tasks.serialized_bytes()
                          for _, n in tree.walk())
        assert len(packed) > label_bytes  # labels + structure


class TestErrors:
    def test_bad_magic(self):
        with pytest.raises(CodecError, match="magic"):
            unpack_tree(b"NOPE" + b"\x00" * 16)

    def test_truncated_buffer(self):
        packed = pack_tree(dense_tree())
        with pytest.raises(CodecError, match="truncated"):
            unpack_tree(packed[:len(packed) // 2])

    def test_trailing_garbage(self):
        packed = pack_tree(dense_tree())
        with pytest.raises(CodecError, match="trailing"):
            unpack_tree(packed + b"xx")

    def test_unsupported_label_type(self):
        tree = PrefixTree(label_union=lambda a, b: a, label_copy=set)
        tree.insert(StackTrace.from_names(["main"]), {1, 2})
        with pytest.raises(CodecError, match="unsupported"):
            pack_tree(tree)

    def test_bad_version(self):
        packed = bytearray(pack_tree(dense_tree()))
        packed[4] = 99  # version byte
        with pytest.raises(CodecError, match="version"):
            unpack_tree(bytes(packed))
