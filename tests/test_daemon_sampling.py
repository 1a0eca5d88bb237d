"""Unit tests for the sampler, its cost model, and the per-object oracle.

``TestStackWalker`` and ``TestSTATDaemon`` pin the frozen oracle in
``per_object_oracle.py`` that the build kernel is held to.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import leaf_paths
from per_object_oracle import STATDaemon, StackWalker, reference_daemon_trees
from repro.core.merge import DenseLabelScheme, HierarchicalLabelScheme
from repro.core.sampling import (
    BatchWalkSampler,
    SamplingConfig,
    _decode_pcg64,
    cpu_dilation,
    draw_walks,
    time_sampling_phase,
    walk_seconds,
)
from repro.core.taskset import TaskMap
from repro.fs import MountTable, NFSServer, RamDisk, stage_binaries
from repro.machine.atlas import AtlasMachine, atlas_binary_spec
from repro.machine.bgl import BGLMachine
from repro.mpi.runtime import STATES, RankState
from repro.mpi.stacks import (
    SIG_DEPTH,
    SIG_DEPTH_TOD,
    SIG_NONE,
    BGLStackModel,
    LinuxStackModel,
)
from repro.sim.engine import Engine
from repro.statbench import ring_hang_states
from repro.statbench.emulator import STATBenchEmulator


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


def _twin_rngs(seed, carry):
    """Two equal generators; ``carry`` leaves half a word buffered."""
    if seed is None:
        return None, None
    rngs = np.random.default_rng(seed), np.random.default_rng(seed)
    if carry:
        for rng in rngs:
            rng.integers(1, 4)
    return rngs


def _next_draws(rng):
    """Five draws that read the bounded-draw buffer and the word stream."""
    return [rng.integers(1, 4), rng.random(), rng.integers(0, 7),
            rng.integers(0, 7), rng.random()]


def _scalar_draws(model, rng, sigs):
    """The draws of one scalar ``trace_for`` call per signature."""
    low, high = model.DEPTH_RANGE
    depths = np.zeros(sigs.size, dtype=np.int64)
    tods = np.zeros(sigs.size, dtype=bool)
    for j, sig in enumerate(sigs.tolist()):
        if sig != SIG_NONE:
            depths[j] = rng.integers(low, high + 1)
            if sig == SIG_DEPTH_TOD:
                tods[j] = rng.random() < model.TOD_THRESHOLD
    return depths, tods


class TestOneDrawDecision:
    """``StackModel.trace_for`` and the batch sampler draw alike.

    The sampler draws through :func:`draw_walks`, so this is also the
    oracle test of the batch decoder: odd and even draw counts, a
    half-word carried in, and the generator's whole state and next
    draws afterwards.
    """

    @settings(max_examples=200, deadline=None)
    @given(states=st.lists(st.tuples(st.sampled_from(KINDS),
                                     st.sampled_from(["main", "f"])),
                           min_size=1, max_size=30),
           linux=st.booleans(), threads=st.integers(1, 3),
           seed=st.one_of(st.none(), st.integers(0, 2**64 - 1)),
           carry=st.booleans())
    def test_scalar_walks_equal_batch_walks(self, states, linux, threads,
                                            seed, carry):
        model = LinuxStackModel() if linux else BGLStackModel()
        scalar_rng, batch_rng = _twin_rngs(seed, carry)
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
            assert _next_draws(batch_rng) == _next_draws(scalar_rng)


class _WideDraws(BGLStackModel):
    """A depth range so wide that a quarter of bounded draws reject."""

    DEPTH_RANGE = (0, 3 * 2**30 - 1)


class TestBatchDecode:
    """``draw_walks`` decodes the scalar draw sequence bit for bit."""

    @pytest.mark.parametrize("carry", [False, True])
    @pytest.mark.parametrize("count", [999, 1000])
    def test_decoder_replays_a_long_row(self, count, carry):
        scalar_rng, batch_rng = _twin_rngs(208_000, carry)
        model = BGLStackModel()
        sigs = np.random.default_rng(count).integers(
            0, 3, size=count).astype(np.int8)
        drawing = sigs != SIG_NONE
        decoded = _decode_pcg64(batch_rng.bit_generator,
                                sigs[drawing] == SIG_DEPTH_TOD, 3)
        assert decoded is not None
        want_depths, want_tods = _scalar_draws(model, scalar_rng, sigs)
        offsets, coins = decoded
        assert (1 + offsets == want_depths[drawing]).all()
        assert ((coins < model.TOD_THRESHOLD)
                == want_tods[sigs == SIG_DEPTH_TOD]).all()
        assert batch_rng.bit_generator.state == \
            scalar_rng.bit_generator.state

    def test_rejection_restores_state_and_replays(self):
        model = _WideDraws()
        sigs = np.asarray([SIG_DEPTH, SIG_DEPTH_TOD, SIG_NONE] * 6,
                          dtype=np.int8)
        tod_after = sigs[sigs != SIG_NONE] == SIG_DEPTH_TOD
        rng = np.random.default_rng(11)
        before = rng.bit_generator.state
        assert _decode_pcg64(rng.bit_generator, tod_after,
                             3 * 2**30) is None
        assert rng.bit_generator.state == before
        scalar_rng, batch_rng = _twin_rngs(11, False)
        got = draw_walks(model, batch_rng, sigs)
        want = _scalar_draws(model, scalar_rng, sigs)
        assert all((g == w).all() for g, w in zip(got, want))
        assert batch_rng.bit_generator.state == \
            scalar_rng.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_other_bit_generators_replay_the_scalar_calls(self, seed):
        model = BGLStackModel()
        sigs = np.asarray([SIG_DEPTH_TOD, SIG_NONE, SIG_DEPTH] * 7,
                          dtype=np.int8)
        scalar_rng, batch_rng = (np.random.Generator(np.random.Philox(seed))
                                 for _ in range(2))
        got = draw_walks(model, batch_rng, sigs)
        want = _scalar_draws(model, scalar_rng, sigs)
        assert all((g == w).all() for g, w in zip(got, want))
        # Philox's state holds arrays: compare their printed form.
        assert repr(batch_rng.bit_generator.state) == \
            repr(scalar_rng.bit_generator.state)
        assert _next_draws(batch_rng) == _next_draws(scalar_rng)

    def test_forest_row_of_every_signature_matches_oracle(self):
        kinds = ("stall", "barrier", "waitall")  # none, depth, depth+tod
        model = BGLStackModel()
        assert [model.state_signatures()[STATES.intern(k, "main")]
                for k in kinds] == [SIG_NONE, SIG_DEPTH, SIG_DEPTH_TOD]
        task_map = TaskMap.cyclic(4, 7)

        def state_of(rank):
            return RankState(kinds[rank % 3])

        for scheme in (HierarchicalLabelScheme(), DenseLabelScheme(28)):
            emulator = STATBenchEmulator(task_map, scheme, BGLStackModel(),
                                         state_of, num_samples=9, seed=5)
            for d, pair in enumerate(emulator.build_forest()):
                want_2d, want_3d = reference_daemon_trees(
                    d, task_map, scheme, BGLStackModel(), state_of,
                    num_samples=9, seed=5)
                assert pair.tree_2d.arrays_equal(want_2d)
                assert pair.tree_3d.arrays_equal(want_3d)


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
        assert len(leaf_paths(tree)) == 1
        path, label = leaf_paths(tree)[0]
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
        assert len(leaf_paths(tree_2d)) == 1   # last sample only
        assert len(leaf_paths(tree_3d)) == 2   # union over time

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
            path, label = leaf_paths(d.trees_arrays()[0])[0]
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
