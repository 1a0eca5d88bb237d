"""Unit tests for the STATBench emulation layer."""

import pytest

from conftest import edges, leaf_paths
from repro.core.merge import HierarchicalLabelScheme
from repro.core.taskset import TaskMap
from repro.statbench import (
    STATBenchEmulator,
    distinct_leaf_states,
    ring_hang_states,
    uniform_class_states,
)
from repro.statbench.emulator import DaemonTrees


class TestGenerators:
    def test_ring_hang_population(self):
        state_of = ring_hang_states(1024)
        kinds = {}
        for r in range(1024):
            kinds.setdefault(state_of(r).kind, []).append(r)
        assert kinds["stall"] == [1]
        assert kinds["waitall"] == [2]
        assert len(kinds["barrier"]) == 1022

    def test_ring_hang_custom_rank_wraps(self):
        state_of = ring_hang_states(8, hang_rank=7)
        assert state_of(7).kind == "stall"
        assert state_of(0).kind == "waitall"

    def test_ring_hang_validation(self):
        with pytest.raises(ValueError):
            ring_hang_states(2)
        with pytest.raises(ValueError):
            ring_hang_states(8, hang_rank=8)

    def test_uniform_classes_all_populated(self):
        state_of = uniform_class_states(256, 6, seed=1)
        seen = {(state_of(r).kind, state_of(r).where) for r in range(256)}
        assert len(seen) == 6

    def test_uniform_classes_deterministic(self):
        a = uniform_class_states(64, 4, seed=9)
        b = uniform_class_states(64, 4, seed=9)
        assert all(a(r).kind == b(r).kind for r in range(64))

    def test_uniform_classes_validation(self):
        with pytest.raises(ValueError):
            uniform_class_states(4, 5)
        with pytest.raises(ValueError):
            uniform_class_states(4, 0)

    def test_more_classes_than_palette(self):
        state_of = uniform_class_states(256, 12, seed=0)
        wheres = {state_of(r).where for r in range(256)}
        assert len(wheres) >= 8  # suffixed names keep classes distinct

    def test_distinct_leaf_states(self):
        state_of = distinct_leaf_states(16)
        assert len({state_of(r).where for r in range(16)}) == 16


class TestEmulator:
    @pytest.fixture
    def emulator(self, bgl_stacks):
        tm = TaskMap.block(4, 64)
        return STATBenchEmulator(tm, HierarchicalLabelScheme(), bgl_stacks,
                                 ring_hang_states(256), num_samples=5)

    def test_daemon_trees_payload(self, emulator):
        pair = emulator.daemon_trees(0)
        assert isinstance(pair, DaemonTrees)
        assert pair.serialized_bytes() > 0
        assert pair.node_count() == (pair.tree_2d.node_count()
                                     + pair.tree_3d.node_count())

    def test_deterministic_per_daemon(self, bgl_stacks):
        tm = TaskMap.block(4, 64)
        def build(order):
            em = STATBenchEmulator(tm, HierarchicalLabelScheme(),
                                   bgl_stacks, ring_hang_states(256),
                                   num_samples=5, seed=77)
            return {d: em.daemon_trees(d) for d in order}
        forward = build([0, 1, 2, 3])
        backward = build([3, 2, 1, 0])
        for d in range(4):
            assert forward[d].tree_3d.structurally_equal(
                backward[d].tree_3d)

    def test_daemon_with_hang_rank_sees_stall(self, emulator):
        pair = emulator.daemon_trees(0)   # block map: daemon 0 has rank 1
        leaves = {p.leaf.function for p, _ in leaf_paths(pair.tree_3d)}
        assert "do_SendOrStall" in leaves

    def test_daemon_without_hang_rank_sees_only_barrier(self, emulator):
        pair = emulator.daemon_trees(3)
        fns = {f.function for p, _ in edges(pair.tree_3d) for f in p}
        assert "do_SendOrStall" not in fns
        assert "PMPI_Barrier" in fns

    def test_merge_filter_merges_pairwise(self, emulator):
        merge = emulator.merge_filter()
        merged = merge([emulator.daemon_trees(0), emulator.daemon_trees(1)])
        assert isinstance(merged, DaemonTrees)
        assert merged.tree_3d.node_count() >= \
            emulator.daemon_trees(1).tree_3d.node_count()

    def test_emulation_counter(self, emulator):
        emulator.daemon_trees(0)
        emulator.daemon_trees(1)
        assert emulator.daemons_emulated == 2
