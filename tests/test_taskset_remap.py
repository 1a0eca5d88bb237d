"""Unit tests for the front-end rank remap step (Section V-B/C)."""

import numpy as np
import pytest

from repro.core.frames import Frame
from repro.core.merge import HierarchicalLabelScheme
from per_object_oracle import DenseBitVector, HierarchicalTaskSet
from repro.core.taskset import DaemonLayout, RankRemapper, TaskMap
from repro.core.treearrays import KIND_DENSE, KIND_HIER, TreeArrays


def _root_label(task_map: TaskMap, slots_per_daemon) -> HierarchicalTaskSet:
    """Concatenate per-daemon labels in daemon order."""
    parts = [
        HierarchicalTaskSet.for_daemon(d, task_map.tasks_of(d),
                                       slots_per_daemon(d))
        for d in sorted(task_map.daemons())
    ]
    return HierarchicalTaskSet.concat(parts)


def _remap(label: HierarchicalTaskSet, task_map: TaskMap) -> DenseBitVector:
    """The remapped row of one label, as the dense vector over it."""
    remapper = RankRemapper(label.layout, task_map)
    return DenseBitVector(remapper.total_tasks,
                          remapper.remap_rows(label.data[None, :])[0])


class TestRankRemapper:
    def test_figure6_example(self):
        """Daemon 0 owns ranks {0,2}, daemon 1 owns {1,3} (Figure 6)."""
        tm = TaskMap.cyclic(2, 2)
        label = _root_label(tm, lambda d: [0, 1] if d == 0 else [1])
        dense = _remap(label, tm)
        assert dense.to_ranks().tolist() == [0, 2, 3]

    def test_block_map_remap_is_identity_permutation(self):
        tm = TaskMap.block(4, 8)
        label = _root_label(tm, lambda d: range(8))
        dense = _remap(label, tm)
        assert dense.to_ranks().tolist() == list(range(32))

    def test_shuffled_map_roundtrip(self, rng):
        tm = TaskMap.shuffled(8, 16, rng)
        wanted = {int(r) for r in rng.choice(128, size=40, replace=False)}
        def slots(d):
            ranks = tm.ranks_of(d)
            return [i for i, r in enumerate(ranks) if int(r) in wanted]
        label = _root_label(tm, slots)
        dense = _remap(label, tm)
        assert set(dense.to_ranks().tolist()) == wanted

    def test_remap_preserves_count(self, rng):
        tm = TaskMap.cyclic(4, 32)
        label = _root_label(tm, lambda d: range(0, 32, 2))
        dense = _remap(label, tm)
        assert dense.count() == label.count() == 4 * 16

    def test_remap_agrees_with_to_global_ranks(self, rng):
        tm = TaskMap.shuffled(4, 8, rng)
        label = _root_label(tm, lambda d: [d % 8, (d + 3) % 8])
        dense = _remap(label, tm)
        assert dense.to_ranks().tolist() == \
            label.to_global_ranks(tm).tolist()

    def test_layout_task_map_width_mismatch(self):
        tm = TaskMap.block(2, 4)
        bad_layout = DaemonLayout((0, 1), (4, 5))
        with pytest.raises(ValueError, match="width"):
            RankRemapper(bad_layout, tm)

    def test_label_layout_mismatch_rejected(self):
        tm = TaskMap.block(2, 4)
        layout = DaemonLayout.from_task_map(tm)
        remapper = RankRemapper(layout, tm)
        other = HierarchicalTaskSet.for_daemon(0, 4, [0])
        with pytest.raises(ValueError, match="layout"):
            remapper.remap_rows(other.data[None, :])

    def test_out_of_range_task_map_rejected(self):
        tm = TaskMap({0: [0, 1], 1: [2, 7]})
        with pytest.raises(ValueError, match="out of range"):
            RankRemapper(DaemonLayout.from_task_map(tm), tm)

    def test_remap_rows_rejects_wrong_row_width(self):
        tm = TaskMap.block(2, 4)
        remapper = RankRemapper(DaemonLayout.from_task_map(tm), tm)
        with pytest.raises(ValueError, match="layout"):
            remapper.remap_rows(np.zeros((3, 5), dtype=np.uint8))

    def test_remap_result_is_dense_full_width(self):
        """Only the front end ever holds a job-width vector."""
        tm = TaskMap.cyclic(2, 4)
        layout = DaemonLayout.from_task_map(tm)
        rows = RankRemapper(layout, tm).remap_rows(
            HierarchicalTaskSet.empty(layout).data[None, :])
        assert rows.shape == (1, (tm.total_tasks + 7) // 8)
        assert not rows.any()

    def test_full_machine_scale_roundtrip(self):
        """208K-task remap stays exact (and quick) at full width."""
        tm = TaskMap.cyclic(1664, 128)
        layout = DaemonLayout.from_task_map(tm)
        label = HierarchicalTaskSet.full(layout)
        dense = _remap(label, tm)
        assert dense.count() == 212_992


def _random_label_rows(rng, layout: DaemonLayout, n: int) -> np.ndarray:
    """``n`` valid packed rows over ``layout`` (padding bits zero)."""
    rows = np.zeros((n, layout.nbytes), dtype=np.uint8)
    for i in range(1, n):  # row 0 stays all-zero
        density = rng.random()
        rows[i] = HierarchicalTaskSet.concat([
            HierarchicalTaskSet.for_daemon(
                d, w, np.nonzero(rng.random(w) < density)[0])
            for d, w in zip(layout.daemon_ids, layout.widths)]).data
    return rows


class TestRemapRows:
    """The matrix remap against a per-label oracle of public API."""

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_per_label_oracle(self, seed, monkeypatch):
        rng = np.random.default_rng(4200 + seed)
        daemons = int(rng.integers(1, 7))
        per = int(rng.integers(1, 21))  # mostly not a multiple of 8
        tm = [TaskMap.block(daemons, per), TaskMap.cyclic(daemons, per),
              TaskMap.shuffled(daemons, per, rng)][seed % 3]
        alive = [d for d in range(daemons) if rng.random() < 0.75] or [0]
        layout = DaemonLayout.from_task_map(tm, daemon_order=alive)
        labels = _random_label_rows(rng, layout, int(rng.integers(1, 9)))
        if seed % 2:  # several blocks, the last one short
            monkeypatch.setattr(RankRemapper, "_BLOCK_LIMIT",
                                3 * tm.total_tasks)
        total = tm.total_tasks
        expect = np.stack([
            DenseBitVector.from_ranks(
                HierarchicalTaskSet(layout, row).to_global_ranks(tm),
                total).data
            for row in labels])
        got = RankRemapper(layout, tm).remap_rows(labels)
        assert got.dtype == np.uint8 and np.array_equal(got, expect)

        # finalize = the same remap under a main -> {f0, f1, ...} tree
        k = int(rng.integers(1, 5))
        structure = (
            [Frame("main").id] + [Frame(f"f{i}").id for i in range(k)],
            [-1] + [0] * k,
            rng.integers(0, labels.shape[0], size=k + 1),
            [0, 1, 1 + k])
        final = HierarchicalLabelScheme().finalize(
            TreeArrays(KIND_HIER, *structure, labels, layout=layout), tm)
        assert TreeArrays(KIND_DENSE, *structure, expect,
                          width=total).structurally_equal(final)
