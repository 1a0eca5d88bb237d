"""Unit tests for the sampler, its cost model, and the per-object oracle.

``TestStackWalker`` and ``TestSTATDaemon`` pin the frozen oracle in
``per_object_oracle.py`` that the build kernel is held to.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from per_object_oracle import STATDaemon, StackWalker
from repro.core.merge import DenseLabelScheme, HierarchicalLabelScheme
from repro.core.sampling import (
    BatchWalkSampler,
    SamplingConfig,
    cpu_dilation,
    time_sampling_phase,
    walk_seconds,
)
from repro.core.taskset import TaskMap
from repro.fs import MountTable, NFSServer, RamDisk, stage_binaries
from repro.machine.atlas import AtlasMachine, atlas_binary_spec
from repro.machine.bgl import BGLMachine
from repro.mpi.runtime import STATES, RankState
from repro.mpi.stacks import BGLStackModel, LinuxStackModel
from repro.sim.engine import Engine
from repro.statbench import ring_hang_states


class TestCpuDilation:
    def test_atlas_daemon_contends_with_spinners(self):
        machine = AtlasMachine.with_nodes(4)
        assert cpu_dilation(machine, application_stopped=False) == 2.0

    def test_sigstop_removes_contention(self):
        machine = AtlasMachine.with_nodes(4)
        assert cpu_dilation(machine, application_stopped=True) == 1.0

    def test_bgl_io_node_is_dedicated(self):
        machine = BGLMachine.with_io_nodes(4, "co")
        assert cpu_dilation(machine, application_stopped=False) == 1.0


class TestStackWalker:
    def test_walk_counts(self, bgl_stacks, rng):
        walker = StackWalker(bgl_stacks, rng)
        walker.walk(RankState("barrier"))
        walker.walk_all([RankState("barrier")] * 3)
        assert walker.walks_performed == 4

    def test_walk_all_threads(self, bgl_stacks, rng):
        walker = StackWalker(bgl_stacks, rng)
        traces = walker.walk_all([RankState("barrier")] * 2,
                                 threads_per_process=4)
        assert len(traces) == 8
        assert {t.thread_id for t in traces} == {0, 1, 2, 3}

    def test_walk_seconds_scales_with_depth_and_dilation(self):
        machine = AtlasMachine.with_nodes(4)
        base = walk_seconds(machine, 10.0, 1.0)
        assert walk_seconds(machine, 20.0, 1.0) == 2 * base
        assert walk_seconds(machine, 10.0, 2.0) == 2 * base


#: every sampler-visible state kind (``RankState``) plus the collectives
KINDS = sorted({"init", "compute", "isend", "irecv", "waitall", "barrier",
                "stall", "recv_wait", "done"}
               | BGLStackModel.DEPTH_KINDS | BGLStackModel.TOD_KINDS
               | LinuxStackModel.DEPTH_KINDS)


class TestOneDrawDecision:
    """``StackModel.trace_for`` and the batch sampler draw alike."""

    @settings(max_examples=150, deadline=None)
    @given(states=st.lists(st.tuples(st.sampled_from(KINDS),
                                     st.sampled_from(["main", "f"])),
                           min_size=1, max_size=12),
           linux=st.booleans(), threads=st.integers(1, 3),
           seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)))
    def test_scalar_walks_equal_batch_walks(self, states, linux, threads,
                                            seed):
        model = LinuxStackModel() if linux else BGLStackModel()
        scalar_rng = None if seed is None else np.random.default_rng(seed)
        batch_rng = None if seed is None else np.random.default_rng(seed)
        scalar = [model.trace_for(RankState(kind, where), scalar_rng,
                                  thread_id=tid)
                  for kind, where in states for tid in range(threads)]
        sids = np.asarray([STATES.intern(kind, where)
                           for kind, where in states], dtype=np.int64)
        ids = BatchWalkSampler(model, batch_rng, threads).trace_ids(sids)
        key_of = {tid: key for key, tid in model._trace_ids.items()}
        batch = []
        for trace_id in ids.tolist():
            sid, depth, tod, tid = key_of[trace_id]
            batch.append(model.trace_from_parts(*STATES.key_of(sid), depth,
                                                tod, tid))
        assert batch == scalar
        assert all(b is s for b, s in zip(batch, scalar))
        if seed is not None:
            assert batch_rng.bit_generator.state == \
                scalar_rng.bit_generator.state


class TestSTATDaemon:
    @pytest.fixture
    def daemon(self, bgl_stacks):
        tm = TaskMap.cyclic(4, 8)
        return STATDaemon(1, tm, HierarchicalLabelScheme(), bgl_stacks,
                          rng=np.random.default_rng(3))

    def test_sample_once_counts_traces(self, daemon):
        n = daemon.sample_once(lambda r: RankState("barrier"))
        assert n == 8
        assert daemon.samples_taken == 1

    def test_trees_before_sampling_rejected(self, daemon):
        with pytest.raises(RuntimeError):
            daemon.trees_arrays()

    def test_uniform_states_make_single_path_tree(self, daemon):
        daemon.sample_once(lambda r: RankState("stall", "f"))
        tree, _ = daemon.trees_arrays()
        assert len(tree.leaf_paths()) == 1
        path, label = tree.leaf_paths()[0]
        assert label.count() == 8

    def test_3d_accumulates_2d_replaced(self, daemon):
        states = [RankState("stall", "f1"), RankState("stall", "f2")]
        flip = {"i": 0}
        def state_of(rank):
            return states[flip["i"]]
        daemon.sample_once(state_of)
        flip["i"] = 1
        daemon.sample_once(state_of)
        tree_2d, tree_3d = daemon.trees_arrays()
        assert len(tree_2d.leaf_paths()) == 1   # last sample only
        assert len(tree_3d.leaf_paths()) == 2   # union over time

    def test_collect_samples_accumulates_both_trees(self, daemon):
        daemon.collect_samples(lambda r: RankState("barrier"), 5)
        t2d, t3d = daemon.trees_arrays()
        assert daemon.samples_taken == 5
        assert t3d.node_count() >= t2d.node_count()

    def test_num_samples_validated(self, daemon):
        with pytest.raises(ValueError):
            daemon.collect_samples(lambda r: RankState("barrier"), 0)

    def test_reset(self, daemon):
        daemon.sample_once(lambda r: RankState("barrier"))
        daemon.reset()
        assert daemon.samples_taken == 0

    def test_dense_and_hierarchical_agree_on_ranks(self, bgl_stacks):
        tm = TaskMap.cyclic(2, 4)
        state_of = ring_hang_states(8)
        labels = {}
        for scheme in (DenseLabelScheme(8), HierarchicalLabelScheme()):
            d = STATDaemon(0, tm, scheme, bgl_stacks,
                           rng=np.random.default_rng(1))
            d.sample_once(state_of)
            path, label = d.trees_arrays()[0].leaf_paths()[0]
            if scheme.name == "original":
                labels["dense"] = set(label.to_ranks().tolist())
            else:
                labels["hier"] = set(label.to_global_ranks(tm).tolist())
        assert labels["dense"] == labels["hier"]

    def test_threads_multiply_traces(self, bgl_stacks):
        tm = TaskMap.block(1, 4)
        d = STATDaemon(0, tm, HierarchicalLabelScheme(), bgl_stacks,
                       rng=np.random.default_rng(1), threads_per_process=4)
        assert d.sample_once(lambda r: RankState("barrier")) == 16


class TestSamplingPhase:
    def _mtab(self, engine):
        return MountTable({"nfs": NFSServer(engine), "ramdisk": RamDisk()})

    def test_report_structure(self):
        machine = AtlasMachine.with_nodes(4)
        engine = Engine()
        report = time_sampling_phase(
            machine, self._mtab(engine),
            stage_binaries(atlas_binary_spec(), "nfs"),
            LinuxStackModel(), SamplingConfig(jitter_sigma=0.0),
            engine=engine)
        assert report.per_daemon_seconds.shape == (4,)
        assert report.max_seconds >= report.mean_seconds
        assert report.walk_seconds > 0

    def test_more_daemons_more_contention(self):
        def max_time(daemons):
            machine = AtlasMachine.with_nodes(daemons)
            engine = Engine()
            return time_sampling_phase(
                machine, self._mtab(engine),
                stage_binaries(atlas_binary_spec(), "nfs"),
                LinuxStackModel(), SamplingConfig(jitter_sigma=0.0),
                engine=engine).max_seconds
        assert max_time(128) > max_time(1) * 1.2

    def test_ramdisk_staging_is_constant(self):
        def max_time(daemons):
            machine = AtlasMachine.with_nodes(daemons)
            engine = Engine()
            return time_sampling_phase(
                machine, self._mtab(engine),
                stage_binaries(atlas_binary_spec(), "ramdisk"),
                LinuxStackModel(),
                SamplingConfig(jitter_sigma=0.0, application_stopped=True),
                engine=engine).max_seconds
        assert max_time(128) == pytest.approx(max_time(1), rel=1e-6)

    def test_sigstop_faster_on_atlas(self):
        machine = AtlasMachine.with_nodes(8)
        files = stage_binaries(atlas_binary_spec(), "ramdisk")
        def run_config(stopped):
            engine = Engine()
            return time_sampling_phase(
                machine, self._mtab(engine), files, LinuxStackModel(),
                SamplingConfig(jitter_sigma=0.0,
                               application_stopped=stopped),
                engine=engine).max_seconds
        assert run_config(True) < run_config(False)

    def test_thread_slowdown_is_linear(self):
        """Section VII: 'a constant slowdown per thread'."""
        machine = BGLMachine.with_io_nodes(4, "co")
        files = stage_binaries(machine.binary, "ramdisk")
        def walk_time(threads):
            engine = Engine()
            return time_sampling_phase(
                machine, self._mtab(engine), files, BGLStackModel(),
                SamplingConfig(jitter_sigma=0.0,
                               threads_per_process=threads),
                engine=engine).walk_seconds
        assert walk_time(4) == pytest.approx(4 * walk_time(1))

    def test_jitter_reproducible_per_run_id(self):
        machine = AtlasMachine.with_nodes(8)
        files = stage_binaries(atlas_binary_spec(), "nfs")
        def run_once(run_id):
            engine = Engine()
            return time_sampling_phase(
                machine, self._mtab(engine), files, LinuxStackModel(),
                SamplingConfig(run_id=run_id), engine=engine).max_seconds
        assert run_once(1) == run_once(1)
        assert run_once(1) != run_once(2)

    def test_zero_daemons_rejected(self):
        machine = AtlasMachine.with_nodes(1)
        engine = Engine()
        with pytest.raises(ValueError):
            time_sampling_phase(machine, self._mtab(engine), [],
                                LinuxStackModel(), engine=engine,
                                num_daemons=0)
