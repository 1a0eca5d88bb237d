"""Unit tests for hierarchical task sets, layouts, and task maps."""

import numpy as np
import pytest

from per_object_oracle import DenseBitVector, HierarchicalTaskSet
from repro.core.taskset import CHUNK_HEADER_BITS, DaemonLayout, TaskMap


class TestTaskMap:
    def test_block_mapping_is_rank_ordered(self):
        tm = TaskMap.block(4, 8)
        assert tm.is_rank_ordered()
        assert tm.ranks_of(1).tolist() == list(range(8, 16))

    def test_cyclic_mapping_not_rank_ordered(self):
        tm = TaskMap.cyclic(2, 2)
        assert not tm.is_rank_ordered()
        assert tm.ranks_of(0).tolist() == [0, 2]
        assert tm.ranks_of(1).tolist() == [1, 3]

    def test_shuffled_covers_all_ranks(self, rng):
        tm = TaskMap.shuffled(4, 8, rng)
        all_ranks = np.sort(np.concatenate(
            [tm.ranks_of(d) for d in tm.daemons()]))
        assert all_ranks.tolist() == list(range(32))

    def test_duplicate_rank_rejected(self):
        with pytest.raises(ValueError, match="multiple daemons"):
            TaskMap({0: np.array([1, 2]), 1: np.array([2, 3])})

    def test_daemon_of_rank(self):
        tm = TaskMap.cyclic(2, 2)
        assert tm.daemon_of_rank(2) == 0
        assert tm.daemon_of_rank(3) == 1
        with pytest.raises(KeyError):
            tm.daemon_of_rank(99)

    def test_totals(self):
        tm = TaskMap.block(3, 5)
        assert tm.total_tasks == 15 and len(tm) == 3
        assert tm.tasks_of(2) == 5


class TestDaemonLayout:
    def test_single_chunk(self):
        lay = DaemonLayout.for_daemon(3, 10)
        assert lay.daemon_ids == (3,)
        assert lay.total_tasks == 10
        assert lay.nbytes == 2  # ceil(10/8)

    def test_concat_preserves_order(self):
        a = DaemonLayout.for_daemon(0, 8)
        b = DaemonLayout.for_daemon(1, 16)
        cat = DaemonLayout.concat([a, b])
        assert cat.daemon_ids == (0, 1)
        assert cat.total_tasks == 24
        assert cat.byte_offsets.tolist() == [0, 1]

    def test_concat_duplicate_daemon_rejected(self):
        a = DaemonLayout.for_daemon(0, 8)
        with pytest.raises(ValueError, match="duplicate"):
            DaemonLayout.concat([a, a])

    def test_byte_alignment_of_odd_widths(self):
        cat = DaemonLayout.concat([DaemonLayout.for_daemon(0, 3),
                                   DaemonLayout.for_daemon(1, 5)])
        # each chunk rounds up to one byte
        assert cat.nbytes == 2
        assert cat.chunk_slice(1) == slice(1, 2)

    def test_from_task_map_default_order(self):
        tm = TaskMap.block(3, 4)
        lay = DaemonLayout.from_task_map(tm)
        assert lay.daemon_ids == (0, 1, 2)
        assert lay.widths == (4, 4, 4)

    def test_equality_and_hash(self):
        a = DaemonLayout((0, 1), (8, 8))
        b = DaemonLayout((0, 1), (8, 8))
        assert a == b and hash(a) == hash(b)
        assert a != DaemonLayout((1, 0), (8, 8))

    def test_index_of(self):
        lay = DaemonLayout((5, 9), (8, 8))
        assert lay.index_of(9) == 1


class TestHierarchicalTaskSet:
    def test_for_daemon_sets_local_slots(self):
        t = HierarchicalTaskSet.for_daemon(0, 8, [0, 3, 7])
        assert t.count() == 3
        assert t.chunk_bits(0).nonzero()[0].tolist() == [0, 3, 7]

    def test_slot_out_of_range(self):
        with pytest.raises(ValueError,
                           match=r"local slot out of range \[0, 8\)"):
            HierarchicalTaskSet.for_daemon(0, 8, [8])
        with pytest.raises(ValueError, match="local slot out of range"):
            HierarchicalTaskSet.for_daemon(0, 8, np.array([-1, 2]))

    @pytest.mark.parametrize("slots", [
        [7, 0, 0, 3], {0, 3, 7}, (s for s in (3, 7, 0)),
        np.array([7, 0, 3], dtype=np.uint8),
    ], ids=["list", "set", "generator", "uint8"])
    def test_for_daemon_accepts_any_integer_iterable(self, slots):
        t = HierarchicalTaskSet.for_daemon(0, 8, slots)
        assert t.chunk_bits(0).nonzero()[0].tolist() == [0, 3, 7]

    def test_union_same_layout(self):
        a = HierarchicalTaskSet.for_daemon(0, 8, [0, 1])
        b = HierarchicalTaskSet.for_daemon(0, 8, [1, 2])
        assert (a | b).count() == 3

    def test_union_layout_mismatch_rejected(self):
        a = HierarchicalTaskSet.for_daemon(0, 8, [0])
        b = HierarchicalTaskSet.for_daemon(1, 8, [0])
        with pytest.raises(ValueError, match="layout mismatch"):
            a.union(b)

    def test_concat_is_the_merge(self):
        a = HierarchicalTaskSet.for_daemon(0, 4, [0, 1])
        b = HierarchicalTaskSet.for_daemon(1, 4, [2])
        cat = HierarchicalTaskSet.concat([a, b])
        assert cat.count() == 3
        assert cat.layout.daemon_ids == (0, 1)

    def test_concat_zero_sets_rejected(self):
        with pytest.raises(ValueError):
            HierarchicalTaskSet.concat([])

    def test_full_respects_chunk_padding(self):
        lay = DaemonLayout((0, 1), (3, 5))
        assert HierarchicalTaskSet.full(lay).count() == 8

    def test_extend_to_superset_layout(self):
        a = HierarchicalTaskSet.for_daemon(1, 4, [1])
        target = DaemonLayout((0, 1), (4, 4))
        ext = a.extend_to(target)
        assert ext.count() == 1
        assert ext.chunk_bits(1).nonzero()[0].tolist() == [1]
        assert ext.chunk_bits(0).sum() == 0

    def test_extend_to_missing_daemon_rejected(self):
        a = HierarchicalTaskSet.for_daemon(5, 4, [1])
        with pytest.raises(ValueError, match="missing"):
            a.extend_to(DaemonLayout((0, 1), (4, 4)))

    def test_to_global_ranks(self, small_task_map):
        t = HierarchicalTaskSet.for_daemon(1, 8, [0, 2])
        ranks = t.to_global_ranks(small_task_map)
        # cyclic(4, 8): daemon 1 slots 0,2 -> ranks 1, 9
        assert ranks.tolist() == [1, 9]

    def test_equality_and_copy(self):
        a = HierarchicalTaskSet.for_daemon(0, 8, [1])
        b = a.copy()
        assert a == b
        b.union_inplace(HierarchicalTaskSet.for_daemon(0, 8, [2]))
        assert a != b

    def test_local_slots_mapping(self):
        cat = HierarchicalTaskSet.concat([
            HierarchicalTaskSet.for_daemon(0, 4, [0]),
            HierarchicalTaskSet.for_daemon(7, 4, [3]),
        ])
        slots = cat.local_slots()
        assert slots[0].tolist() == [0]
        assert slots[7].tolist() == [3]


class TestWireSize:
    """The Section V fix: size follows the subtree, not the job."""

    def test_leaf_label_is_subtree_sized(self):
        t = HierarchicalTaskSet.for_daemon(0, 128, [5])
        assert t.serialized_bits() == 128 + CHUNK_HEADER_BITS

    def test_concat_grows_by_subtree(self):
        sets = [HierarchicalTaskSet.for_daemon(d, 64, [0])
                for d in range(4)]
        cat = HierarchicalTaskSet.concat(sets)
        assert cat.serialized_bits() == 4 * 64 + 4 * CHUNK_HEADER_BITS

    def test_hierarchical_smaller_than_dense_at_fringe(self):
        """A daemon label vs the same content as a 208K-wide vector."""
        hier = HierarchicalTaskSet.for_daemon(0, 128, range(128))
        dense = DenseBitVector.from_ranks(range(128), 212_992)
        assert hier.serialized_bits() < dense.serialized_bits() / 1000
