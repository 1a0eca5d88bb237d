"""Unit tests for the sampler, its cost model, and the per-object oracle.

``TestStackWalker`` and ``TestSTATDaemon`` pin the frozen oracle in
``per_object_oracle.py`` that the build kernel is held to.
"""

import numpy as np
import pytest

from conftest import leaf_paths
from per_object_oracle import STATDaemon, StackWalker
from repro.api.pipeline import SessionPipeline
from repro.api.spec import SessionSpec
from repro.core.merge import DenseLabelScheme, HierarchicalLabelScheme
from repro.core.sampling import (
    SamplingConfig,
    cpu_dilation,
    time_sampling_phase,
    walk_seconds,
    walk_words,
)
from repro.core.taskset import TaskMap
from repro.fs import MountTable, NFSServer, RamDisk, stage_binaries
from repro.machine.atlas import AtlasMachine, atlas_binary_spec
from repro.machine.bgl import BGLMachine
from repro.mpi.runtime import RankState
from repro.mpi.stacks import (
    SIG_DEPTH,
    SIG_DEPTH_TOD,
    SIG_NONE,
    BGLStackModel,
    LinuxStackModel,
)
from repro.sim.engine import Engine
from repro.sim.random import SeedStream
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
    def test_walk_counts(self, bgl_stacks):
        walker = StackWalker(bgl_stacks, key=1)
        walker.walk(RankState("barrier"))
        walker.walk_all([RankState("barrier")] * 3)
        assert walker.walks_performed == 4

    def test_walk_all_threads(self, bgl_stacks):
        walker = StackWalker(bgl_stacks, key=1)
        traces = walker.walk_all([RankState("barrier")] * 2,
                                 threads_per_process=4)
        assert len(traces) == 8
        assert {t.thread_id for t in traces} == {0, 1, 2, 3}

    def test_walk_seconds_scales_with_depth_and_dilation(self):
        machine = AtlasMachine.with_nodes(4)
        base = walk_seconds(machine, 10.0, 1.0)
        assert walk_seconds(machine, 20.0, 1.0) == 2 * base
        assert walk_seconds(machine, 10.0, 2.0) == 2 * base


_M64 = 2**64 - 1
_G = 0x9E3779B97F4A7C15


def _mix_ref(z: int) -> int:
    """SplitMix64's finaliser on a Python ``int``."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _word_ref(key: int, daemon: int, instant: int, slot: int,
              thread: int) -> int:
    """``walk_words`` for one walk, in Python integers only."""
    k = _mix_ref((key + (daemon + 1) * _G) & _M64)
    k = _mix_ref((k + (instant + 1) * _G) & _M64)
    return _mix_ref((k + ((slot | thread << 32) + 1) * _G) & _M64)


class TestWalkWordsKnownAnswers:
    """``walk_words`` against a numpy-free reference and pinned words.

    A mixer whose ``uint64`` arithmetic is promoted to ``float64`` (as
    numpy 1 does for ``uint64`` combined with an ``int64`` operand)
    loses low bits and fails here.
    """

    #: (key, daemon, instant, slot, thread) -> word
    KNOWN = {
        (0, 0, 0, 0, 0): 0x238275BC38FCBE91,
        (208_000, 3, 1, 7, 0): 0x29D45F988F9222D1,
        (2**64 - 1, 81_919, 9, 127, 3): 0x45AE165B5F25C2A8,
        (0x0123456789ABCDEF, 2**40, 2**20, 2**32 - 1, 2**32 - 1):
            0xA3939EA6BF016BFC,
    }

    def test_levels_are_splitmix64_outputs(self):
        # SplitMix64 seeded with 0 starts 0xE220A8397B1DCDAF,
        # 0x6E789E6AA1B965F4: so are daemon 0's and daemon 1's keys.
        first, second = 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4
        assert [_mix_ref(_G), _mix_ref(2 * _G & _M64)] == [first, second]
        for daemon, k_d in ((0, first), (1, second)):
            k_i = _mix_ref((k_d + _G) & _M64)
            assert int(walk_words(0, daemon, 0, 0, 0)[0]) == \
                _mix_ref((k_i + _G) & _M64)

    @pytest.mark.parametrize("walk", sorted(KNOWN))
    def test_pinned_words(self, walk):
        assert _word_ref(*walk) == self.KNOWN[walk]
        got = walk_words(*walk)
        assert got.dtype == np.uint64
        assert int(got[0]) == self.KNOWN[walk]

    def test_broadcast_block_equals_reference(self):
        daemons = np.asarray([0, 5, 2**31 + 1], dtype=np.int64)
        instants, slots, threads = np.arange(3), np.arange(4), np.arange(2)
        got = walk_words(77, daemons[:, None, None, None],
                         instants[None, :, None, None],
                         slots[None, None, :, None],
                         threads[None, None, None, :])
        assert got.shape == (3, 3, 4, 2)
        for index in np.ndindex(got.shape):
            d, i, sl, t = index
            assert int(got[index]) == _word_ref(
                77, int(daemons[d]), i, sl, t), index

    def test_walk_draws_read_the_low_and_high_halves(self):
        model = BGLStackModel()  # depths 1..3, coin below 0.15
        cut = round(model.TOD_THRESHOLD * 2**32)
        words = np.asarray([0, 0xFFFFFFFF, 0x55555555, 0x55555556,
                            (cut - 1) << 32, cut << 32], dtype=np.uint64)
        sigs = np.full(words.size, SIG_DEPTH_TOD, dtype=np.int8)
        depths, tods = model.walk_draws(sigs, words)
        assert depths.tolist() == [1, 3, 1, 2, 1, 1]
        assert tods.tolist() == [True, True, True, True, True, False]
        depths, tods = model.walk_draws(np.asarray(
            [SIG_NONE, SIG_DEPTH], dtype=np.int8), words[[1, 1]])
        assert depths.tolist() == [0, 3]
        assert not tods.any()


def _words():
    """10**6 words of a default-seeded session's walk key: 1,000 daemons
    x 10 instants x 50 slots x 2 threads."""
    key = SeedStream(208_000).child("walks").root_seed
    return walk_words(key, np.arange(1000)[:, None, None, None],
                      np.arange(10)[None, :, None, None],
                      np.arange(50)[None, None, :, None],
                      np.arange(2)[None, None, None, :])


class _WideDepths(BGLStackModel):
    """A hundred depths, so uniformity is tested over many cells."""

    DEPTH_RANGE = (0, 99)


class TestDrawDistribution:
    """Chi-square tests of the keyed draws at 10**6 walks.

    Each critical value is the 0.1% upper tail of its chi-square law;
    the words are a fixed function of the key, so the test is exact.
    """

    @staticmethod
    def _chi2(counts):
        expected = counts.sum() / counts.size
        return float(((counts - expected) ** 2 / expected).sum())

    @pytest.mark.parametrize("model,critical", [
        (BGLStackModel(), 13.82),       # 3 depths, 2 dof
        (LinuxStackModel(), 10.83),     # 2 depths, 1 dof
        (_WideDepths(), 148.23),        # 100 depths, 99 dof
    ])
    def test_depths_are_uniform(self, model, critical):
        words = _words().ravel()
        assert words.size == 10**6
        depths, _ = model.walk_draws(np.int8(SIG_DEPTH), words)
        low, high = model.DEPTH_RANGE
        counts = np.bincount(depths - low, minlength=high - low + 1)
        assert counts.size == high - low + 1
        assert self._chi2(counts) < critical

    def test_tod_rate_is_the_threshold(self):
        model = BGLStackModel()
        p = model.TOD_THRESHOLD
        # The declared bias of the coin: the exact rate is the cut.
        assert abs(round(p * 2**32) / 2**32 - p) <= 2**-33
        _, tods = model.walk_draws(np.int8(SIG_DEPTH_TOD), _words().ravel())
        sigma = (p * (1 - p) / tods.size) ** 0.5
        assert abs(tods.mean() - p) < 4 * sigma + 2**-33

    def test_depth_coin_and_neighbours_are_independent(self):
        """Depth x coin, and thread 0's depth x thread 1's, fill their
        contingency tables as independent draws would (4 dof each)."""
        model = BGLStackModel()
        words = _words()
        depths, tods = model.walk_draws(np.int8(SIG_DEPTH_TOD), words)
        for a, b, size in ((depths - 1, tods, 2),
                           (depths[..., 0] - 1, depths[..., 1] - 1, 3)):
            table = np.bincount((a * size + b).ravel(),
                                minlength=3 * size).reshape(3, size)
            expected = np.outer(table.sum(axis=1), table.sum(axis=0)) \
                / table.sum()
            dof = 2 * (size - 1)
            assert float(((table - expected) ** 2 / expected).sum()) \
                < {2: 13.82, 4: 18.47}[dof]


class TestKeyedPurity:
    """A daemon's trees depend on its id, never on its block mates."""

    @pytest.mark.parametrize("threads", (1, 2))
    def test_alone_subset_and_block_splits_agree(self, threads,
                                                 monkeypatch):
        task_map = TaskMap.shuffled(9, 7, np.random.default_rng(3))
        states = ring_hang_states(task_map.total_tasks)

        def build(daemon_ids=None):
            emulator = STATBenchEmulator(
                task_map, HierarchicalLabelScheme(), BGLStackModel(),
                states, num_samples=4, threads_per_process=threads, seed=21)
            return emulator.build_forest(daemon_ids)

        full = build()
        per_daemon = 7 * threads * 4
        for d in range(len(task_map)):
            (alone,) = build([d])
            assert alone.tree_3d.arrays_equal(full[d].tree_3d)
            assert alone.tree_2d.arrays_equal(full[d].tree_2d)
        subset = np.random.default_rng(threads).permutation(9)[:5].tolist()
        for d, pair in zip(subset, build(subset)):
            assert pair.tree_3d.arrays_equal(full[d].tree_3d)
            assert pair.tree_2d.arrays_equal(full[d].tree_2d)
        for elems in (per_daemon, 4 * per_daemon):  # 1 and 4 rows a block
            monkeypatch.setattr("repro.core.forest.FOREST_CHUNK_ELEMS",
                                elems)
            for d, pair in enumerate(build()):
                assert pair.tree_3d.arrays_equal(full[d].tree_3d)
                assert pair.tree_2d.arrays_equal(full[d].tree_2d)

    @pytest.mark.parametrize("scheme", ("hierarchical", "dense"))
    def test_streamed_session_equals_batch(self, scheme):
        spec = SessionSpec(machine="bgl", daemons=16, mode="vn",
                           scheme=scheme, topology="bgl-3deep",
                           num_samples=3, seed=5)
        results = []
        for stream in (False, True):
            pipeline = SessionPipeline.from_spec(spec)
            pipeline.ctx.stream = stream
            results.append(pipeline.run())
        batch, streamed = results
        assert streamed.tree_2d.arrays_equal(batch.tree_2d)
        assert streamed.tree_3d.arrays_equal(batch.tree_3d)


class TestSTATDaemon:
    @pytest.fixture
    def daemon(self, bgl_stacks):
        tm = TaskMap.cyclic(4, 8)
        return STATDaemon(1, tm, HierarchicalLabelScheme(), bgl_stacks,
                          key=3)

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
                           key=1)
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
                       key=1, threads_per_process=4)
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
