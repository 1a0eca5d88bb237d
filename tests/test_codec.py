"""Tests for the binary prefix-tree codec."""

import struct

import numpy as np
import pytest

from conftest import as_arrays, label_bytes, wire_bytes
from per_object_oracle import (
    DenseBitVector,
    HierarchicalTaskSet,
    ObjectTree,
    daemon_label,
    label_object,
)
from repro.core.codec import CodecError, pack_tree, unpack_tree, \
    verify_size_model
from repro.core.frames import StackTrace
from repro.core.merge import DenseLabelScheme, HierarchicalLabelScheme
from repro.core.taskset import TaskMap
from repro.core.treearrays import TreeArrays
from repro.core.visualize import to_ascii, to_dot


def dense_tree() -> TreeArrays:
    tree = ObjectTree()
    w = 1024
    tree.insert(StackTrace.from_names(["_start", "main", "PMPI_Barrier"]),
                DenseBitVector.from_ranks([0] + list(range(3, 1024)), w))
    tree.insert(StackTrace.from_names(["_start", "main", "do_SendOrStall"]),
                DenseBitVector.from_ranks([1], w))
    tree.insert(StackTrace.from_names(["_start", "main", "PMPI_Waitall"],
                                      module="libmpi.so"),
                DenseBitVector.from_ranks([2], w))
    return tree.to_arrays()


def hierarchical_tree() -> TreeArrays:
    scheme = HierarchicalLabelScheme()
    tm = TaskMap.cyclic(4, 8)
    trees = []
    for d in range(4):
        t = ObjectTree()
        t.insert(StackTrace.from_names(["main", "barrier"]),
                 daemon_label(scheme, d, 8, range(0, 8, 2), tm))
        t.insert(StackTrace.from_names(["main", "wait"]),
                 daemon_label(scheme, d, 8, [1], tm))
        trees.append(t)
    return scheme.merge(as_arrays(scheme, trees))


def one_node_tree(name: str, width: int) -> TreeArrays:
    tree = ObjectTree()
    tree.insert(StackTrace.from_names([name]),
                DenseBitVector.from_ranks([0], width))
    return tree.to_arrays()


class TestRoundTrip:
    def test_dense_roundtrip(self):
        tree = dense_tree()
        clone = unpack_tree(pack_tree(tree))
        assert tree.structurally_equal(clone)

    def test_unpacked_nodes_share_equal_label_rows(self):
        tree = dense_tree()  # _start and main carry the same ranks
        clone = unpack_tree(pack_tree(tree))
        distinct = {row.tobytes() for row in tree.labels[tree.label_refs]}
        assert clone.labels.shape[0] == len(distinct) < clone.node_count()

    def test_hierarchical_roundtrip(self):
        tree = hierarchical_tree()
        clone = unpack_tree(pack_tree(tree))
        assert tree.structurally_equal(clone)
        # layouts survive
        label = label_object(clone, 0)
        assert isinstance(label, HierarchicalTaskSet)
        assert label.layout.daemon_ids == (0, 1, 2, 3)

    def test_empty_tree_roundtrip(self):
        tree = TreeArrays.empty("dense", width=8)
        clone = unpack_tree(pack_tree(tree))
        assert clone.node_count() == 0

    def test_module_names_preserved(self):
        clone = unpack_tree(pack_tree(dense_tree()))
        frames = {(p.leaf.function, p.leaf.module) for p in clone.paths()}
        assert ("PMPI_Waitall", "libmpi.so") in frames

    def test_unicode_function_names(self):
        clone = unpack_tree(pack_tree(one_node_tree("método_á", 8)))
        assert clone.node_at(StackTrace.from_names(["método_á"])) is not None

    def test_repack_is_byte_identical_when_bfs_and_preorder_disagree(self):
        """A merged level ordered by first occurrence need not follow
        its parents' order: here ``y > d`` precedes ``x > c`` although
        ``x`` precedes ``y``.  Unpacking re-derives the BFS order from
        the preorder, so the arrays differ but every byte comes back."""
        scheme = DenseLabelScheme(4)
        tm = TaskMap.block(2, 2)
        first, second = ObjectTree(), ObjectTree()
        first.insert(StackTrace.from_names(["main", "x"]),
                     daemon_label(scheme, 0, 2, [0], tm))
        first.insert(StackTrace.from_names(["main", "y", "d"]),
                     daemon_label(scheme, 0, 2, [1], tm))
        second.insert(StackTrace.from_names(["main", "x", "c"]),
                      daemon_label(scheme, 1, 2, [0, 1], tm))
        merged = scheme.merge(as_arrays(scheme, [first, second]))
        packed = pack_tree(merged)
        clone = unpack_tree(packed)
        assert not clone.arrays_equal(merged)
        assert clone.structurally_equal(merged)
        # BFS arrays: each level's nodes sit between its offsets
        levels = np.repeat(np.arange(clone.depth()),
                           np.diff(clone.level_offsets))
        assert [len(p) - 1 for p in clone.paths()] == levels.tolist()
        assert pack_tree(clone) == packed
        assert to_dot(clone) == to_dot(merged)
        assert to_ascii(clone) == to_ascii(merged)


class TestSizeModel:
    def test_dense_size_model_close(self):
        verify_size_model(dense_tree())

    def test_hierarchical_size_model_close(self):
        verify_size_model(hierarchical_tree())

    @pytest.mark.parametrize("make", [dense_tree, hierarchical_tree])
    def test_size_model_is_the_per_node_sum(self, make):
        tree = make()
        assert tree.serialized_bytes() == wire_bytes(tree)

    def test_large_dense_tree_size_dominated_by_labels(self):
        tree = dense_tree()
        packed = pack_tree(tree)
        assert len(packed) > label_bytes(tree)  # labels + structure


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

    def test_labels_of_two_widths_rejected(self):
        narrow = pack_tree(one_node_tree("a", 8))
        wide = pack_tree(one_node_tree("b", 16))
        spliced = narrow[:8] + struct.pack("<I", 2) + narrow[12:] + wide[12:]
        with pytest.raises(CodecError, match="disagree on their shape"):
            unpack_tree(spliced)

    def test_bad_version(self):
        packed = bytearray(pack_tree(dense_tree()))
        packed[4] = 99  # version byte
        with pytest.raises(CodecError, match="version"):
            unpack_tree(bytes(packed))
