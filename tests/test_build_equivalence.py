"""Randomized property tests pinning the forest build kernel.

:func:`repro.core.forest.build_forest` (reached via
:meth:`STATBenchEmulator.build_forest`) is the only production build
path; the frozen per-object oracle
(:func:`repro.perf.reference.reference_daemon_trees`) walks one
``StackWalker.walk`` per slot and thread.  The two must agree bit for
bit for any (seed, provider, map, scheme, model, thread count, daemon
selection) combination.

``TreeArrays.arrays_equal`` asserts *every* array including row order —
stronger than structural equality — so these tests pin the vectorized
kernel to the exact construction the per-object code performs.
"""

import numpy as np
import pytest

from repro.core.forest import build_forest
from repro.core.merge import DenseLabelScheme, HierarchicalLabelScheme
from repro.core.taskset import TaskMap
from repro.mpi.runtime import STATES
from repro.mpi.stacks import BGLStackModel, LinuxStackModel
from repro.perf.reference import reference_daemon_trees
from repro.sim.random import SeedStream
from repro.statbench.emulator import STATBenchEmulator
from repro.statbench.generator import (
    distinct_leaf_states,
    ring_hang_states,
    uniform_class_states,
)


class _ScalarOnly:
    """A provider without ``states_array`` that counts its queries."""

    def __init__(self, provider):
        self.provider = provider
        self.calls = 0

    def __call__(self, rank):
        self.calls += 1
        return self.provider(rank)


def _providers(total, prov_seed):
    return [
        ("ring", ring_hang_states(total)),
        ("uniform", uniform_class_states(total, 4, seed=prov_seed)),
        ("distinct", distinct_leaf_states(total)),
    ]


def _maps(rng):
    daemons = int(rng.integers(3, 7))
    width = int(rng.integers(3, 12))
    kind = rng.choice(["block", "cyclic", "shuffled"])
    if kind == "block":
        return TaskMap.block(daemons, width)
    if kind == "cyclic":
        return TaskMap.cyclic(daemons, width)
    return TaskMap.shuffled(daemons, width, rng)


def _ragged_map(rng):
    """Shuffled ranks over daemons of unequal widths, one of them empty."""
    widths = rng.integers(2, 9, size=int(rng.integers(3, 7)))
    widths[int(rng.integers(widths.size))] = 0
    bounds = np.concatenate(([0], np.cumsum(widths)))
    perm = rng.permutation(int(bounds[-1]))
    return TaskMap({d: np.sort(perm[bounds[d]:bounds[d + 1]])
                    for d in range(widths.size)})


def _schemes(total):
    return [HierarchicalLabelScheme(), DenseLabelScheme(total)]


def _assert_pairs_equal(got, want, context):
    assert got.tree_2d.arrays_equal(want.tree_2d), f"2D diverged: {context}"
    assert got.tree_3d.arrays_equal(want.tree_3d), f"3D diverged: {context}"


def _assert_matches_oracle(task_map, scheme, model_cls, provider, samples,
                           threads, seed, daemon_ids, context):
    emulator = STATBenchEmulator(
        task_map, scheme, model_cls(), provider, num_samples=samples,
        threads_per_process=threads, seed=seed)
    got = emulator.build_forest(daemon_ids)
    ids = range(len(task_map)) if daemon_ids is None else daemon_ids
    assert len(got) == len(ids)
    if isinstance(provider, _ScalarOnly):
        assert provider.calls == samples * sum(
            task_map.tasks_of(d) for d in ids), context
    for pair, d in zip(got, ids):
        ref_2d, ref_3d = reference_daemon_trees(
            d, task_map, scheme, model_cls(), provider,
            num_samples=samples, threads_per_process=threads, seed=seed)
        assert pair.tree_2d.arrays_equal(ref_2d), f"2D: {context} d={d}"
        assert pair.tree_3d.arrays_equal(ref_3d), f"3D: {context} d={d}"


class TestForestVsPerDaemon:
    """build_forest must be bit-identical to the per-daemon oracle."""

    @pytest.mark.parametrize("trial", range(6))
    def test_randomized_populations(self, trial):
        """Ragged maps x threads x daemon selections x providers, each
        provider through its batch API and as a scalar-only callable."""
        rng = np.random.default_rng(9200 + trial)
        task_map = _ragged_map(rng)
        total = task_map.total_tasks
        model_cls = BGLStackModel if trial % 2 == 0 else LinuxStackModel
        for threads in (1, 2, 3):
            samples = int(rng.integers(1, 4))
            seed = int(rng.integers(1, 1 << 20))
            # a permuted subset of the daemons, in that order
            ids = rng.permutation(len(task_map))[
                :int(rng.integers(1, len(task_map) + 1))].tolist()
            for pname, provider in _providers(total, prov_seed=trial):
                for scheme in _schemes(total):
                    for wrap in (lambda p: p, _ScalarOnly):
                        _assert_matches_oracle(
                            task_map, scheme, model_cls, wrap(provider),
                            samples, threads, seed, ids,
                            f"trial={trial} threads={threads} ids={ids} "
                            f"provider={pname} scalar={wrap is _ScalarOnly} "
                            f"scheme={scheme.name}")

    def test_matches_per_object_reference(self):
        """Regular maps, every daemon (the shape the benchmarks run)."""
        rng = np.random.default_rng(417)
        for trial in range(3):
            task_map = _maps(rng)
            total = task_map.total_tasks
            seed = int(rng.integers(1, 1 << 20))
            for pname, provider in _providers(total, prov_seed=trial):
                for scheme in _schemes(total):
                    _assert_matches_oracle(
                        task_map, scheme, BGLStackModel, provider, 2, 1,
                        seed, None,
                        f"trial={trial} provider={pname} "
                        f"scheme={scheme.name}")

    @pytest.mark.parametrize("threads", (1, 2))
    def test_blocked_build_matches_oracle(self, monkeypatch, threads):
        """Seven daemons built two (one, threaded) per block: blocking
        bounds memory, it must not show in the trees."""
        task_map = TaskMap.cyclic(7, 6)
        total = task_map.total_tasks
        monkeypatch.setattr("repro.core.forest.FOREST_CHUNK_ELEMS",
                            2 * 6 * 3)
        for pname, provider in _providers(total, prov_seed=5):
            for scheme in _schemes(total):
                _assert_matches_oracle(
                    task_map, scheme, BGLStackModel, provider, 3, threads,
                    77, None, f"provider={pname} scheme={scheme.name}")

    def test_daemon_ids_subset_matches_full_population(self):
        task_map = TaskMap.cyclic(6, 5)
        provider = ring_hang_states(task_map.total_tasks)
        scheme = HierarchicalLabelScheme()
        full = STATBenchEmulator(task_map, scheme, BGLStackModel(),
                                 provider, num_samples=2, seed=11)
        sub = STATBenchEmulator(task_map, scheme, BGLStackModel(),
                                provider, num_samples=2, seed=11)
        want = full.build_forest()
        got = sub.build_forest(daemon_ids=[1, 4])
        assert len(got) == 2
        _assert_pairs_equal(got[0], want[1], "daemon 1")
        _assert_pairs_equal(got[1], want[4], "daemon 4")

    def test_build_forest_validates_and_handles_empty(self):
        task_map = TaskMap.block(2, 3)
        provider = ring_hang_states(6)
        scheme = HierarchicalLabelScheme()
        seeds = SeedStream(1)
        with pytest.raises(ValueError):
            build_forest(task_map, scheme, BGLStackModel(),
                         provider.states_array, 0,
                         lambda d: seeds.rng(f"daemon-{d}"))
        assert build_forest(task_map, scheme, BGLStackModel(),
                            provider.states_array, 1,
                            lambda d: seeds.rng(f"daemon-{d}"),
                            daemon_ids=[]) == []

    def test_bad_states_array_size_raises(self):
        task_map = TaskMap.block(2, 3)
        scheme = HierarchicalLabelScheme()
        seeds = SeedStream(1)
        with pytest.raises(ValueError, match="states_array returned"):
            build_forest(task_map, scheme, BGLStackModel(),
                         lambda ranks: np.zeros(2, dtype=np.int64), 1,
                         lambda d: seeds.rng(f"daemon-{d}"))


class TestProviderBatchScalarAgreement:
    """states_array must agree rank-by-rank with the scalar __call__."""

    @pytest.mark.parametrize("trial", range(4))
    def test_batch_matches_scalar(self, trial):
        total = 13 + 5 * trial
        for pname, provider in _providers(total, prov_seed=trial):
            ranks = np.arange(total, dtype=np.int64)
            sids = provider.states_array(ranks)
            assert sids.shape == (total,)
            for rank in ranks.tolist():
                state = provider(rank)
                kind, where = STATES.key_of(int(sids[rank]))
                context = f"provider={pname} rank={rank}"
                assert state.kind == kind, context
                assert state.where == where, context
