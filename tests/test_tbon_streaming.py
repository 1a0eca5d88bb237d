"""Tests for the event-driven streaming TBO̅N (repro.tbon.streaming).

The load-bearing property: for every topology × label scheme × arrival
order, the final streamed tree is bit-identical (``arrays_equal``) to
the batch :class:`TBONetwork` merge, because folds always apply in
canonical child order no matter when payloads arrive.
"""

import numpy as np
import pytest

from repro.core.merge import DenseLabelScheme, HierarchicalLabelScheme
from repro.core.taskset import TaskMap
from repro.faults.plan import FaultPlan
from repro.machine.atlas import AtlasMachine
from repro.machine.bgl import BGLMachine
from repro.mpi.stacks import BGLStackModel
from repro.statbench import STATBenchEmulator, ring_hang_states
from repro.statbench.emulator import DaemonTrees
from repro.tbon.network import DaemonFailure, TBONetwork
from repro.tbon.retry import AllDaemonsFailed
from repro.tbon.streaming import StreamConfig, StreamingTBON
from repro.tbon.topology import Topology

#: a stochastic environment rough enough to scramble arrival order
NOISY = dict(jitter_mean_s=0.2, straggler_fraction=0.25,
             straggler_extra_s=1.0, link_jitter=0.5)


def sum_stream(machine, topology, leaf_values, config=None,
               nbytes_per_leaf=100, **kwargs):
    """Streamed reduction of integer payloads by summation."""
    net = StreamingTBON(topology, machine)
    return net.stream(
        leaf_payload_fn=lambda d: leaf_values[d],
        merge_fn=lambda payloads: sum(payloads),
        payload_nbytes=lambda p: nbytes_per_leaf,
        config=config or StreamConfig(),
        **kwargs)


class TestStreamedSum:
    """Cheap integer payloads: totals, accounting, and monotonicity."""

    def test_flat_sum(self, atlas_small):
        res = sum_stream(atlas_small, Topology.flat(16),
                         list(range(16))).run()
        assert res.payload == sum(range(16))
        assert res.missing_daemons == []

    @pytest.mark.parametrize("seed", [1, 7, 208_000])
    def test_noisy_arrivals_match_batch_accounting(self, atlas_small,
                                                   seed):
        values = list(range(16))
        topo = Topology.balanced(16, 2)
        batch = TBONetwork(topo, atlas_small).reduce(
            lambda d: values[d], lambda ps: sum(ps), lambda p: 100)
        res = sum_stream(atlas_small, topo, values,
                         StreamConfig(seed=seed, **NOISY)).run()
        assert res.payload == batch.payload
        assert res.messages == batch.messages
        assert res.bytes_total == batch.bytes_total

    def test_partial_merges_is_daemons_minus_one(self, atlas_small):
        # Every interior node with c live inputs folds c-1 times; summed
        # over any tree shape that telescopes to D-1.
        for topo in (Topology.flat(16), Topology.balanced(16, 2),
                     Topology.two_deep(16, 4)):
            res = sum_stream(atlas_small, topo, list(range(16))).run()
            assert res.partial_merges == 15

    def test_first_tree_long_before_final(self, atlas_small):
        res = sum_stream(atlas_small, Topology.balanced(64, 2),
                         [1] * 64,
                         StreamConfig(seed=3, **NOISY)).run()
        assert 0 < res.first_tree_time < res.sim_time

    def test_run_is_idempotent(self, atlas_small):
        reduction = sum_stream(atlas_small, Topology.flat(8),
                               list(range(8)))
        assert reduction.run() is reduction.run()

    def test_rejects_unknown_failure_mode(self, atlas_small):
        with pytest.raises(ValueError):
            sum_stream(atlas_small, Topology.flat(4), [0] * 4,
                       on_daemon_failure="retry")


class TestCoverageAndSnapshots:
    def test_coverage_monotone_and_snapshot_exact(self, atlas_small):
        """Stepping through time: coverage never decreases, and every
        snapshot sums exactly the ranks it claims (exactly-once)."""
        values = [10 ** 6 + d for d in range(16)]
        reduction = sum_stream(atlas_small, Topology.balanced(16, 2),
                               values, StreamConfig(seed=5, **NOISY))
        prev = 0
        for t in np.linspace(0.0, 4.0, 21):
            reduction.run_until(float(t))
            cov = reduction.coverage()
            assert cov >= prev
            prev = cov
            snap = reduction.snapshot()
            assert len(snap.ranks) == cov
            if not snap.empty:
                assert snap.payload == sum(values[r] for r in snap.ranks)
        res = reduction.run()
        assert res.payload == sum(values)

    def test_snapshot_deterministic_under_fixed_seed(self, atlas_small):
        """Two reductions with the same config, stepped to the same
        instants, produce identical snapshots."""
        config = StreamConfig(seed=11, **NOISY)
        a = sum_stream(atlas_small, Topology.balanced(16, 2),
                       list(range(16)), config)
        b = sum_stream(atlas_small, Topology.balanced(16, 2),
                       list(range(16)), config)
        for t in np.linspace(0.0, 3.0, 13):
            sa = a.run_until(float(t)).snapshot()
            sb = b.run_until(float(t)).snapshot()
            assert sa.ranks == sb.ranks
            assert sa.payload == sb.payload
            assert sa.num_parts == sb.num_parts

    def test_snapshot_empty_before_first_emission(self, atlas_small):
        reduction = sum_stream(
            atlas_small, Topology.flat(8), [1] * 8,
            StreamConfig(seed=2, jitter_mean_s=10.0))
        snap = reduction.run_until(1e-9).snapshot()
        assert snap.empty
        assert snap.ranks == ()

    def test_first_tree_time_matches_earliest_emission(self, atlas_small):
        reduction = sum_stream(atlas_small, Topology.flat(8),
                               [1] * 8, StreamConfig(seed=4, **NOISY))
        res = reduction.run()
        reduction2 = sum_stream(atlas_small, Topology.flat(8),
                                [1] * 8, StreamConfig(seed=4, **NOISY))
        reduction2.run_until(res.first_tree_time * (1 - 1e-12))
        assert reduction2.snapshot().empty
        reduction2.run_until(res.first_tree_time)
        assert not reduction2.snapshot().empty


class TestDaemonDeath:
    def test_death_mid_merge_degrades(self, atlas_small):
        config = StreamConfig(seed=6, jitter_mean_s=0.5)
        plan = FaultPlan(seed=6).with_crashes([3, 7, 11])
        res = sum_stream(atlas_small, Topology.balanced(16, 2),
                         list(range(16)), config,
                         faults=plan.bind(16)).run()
        assert res.missing_daemons == [3, 7, 11]
        assert res.payload == sum(range(16)) - 3 - 7 - 11
        # The parents waited out the socket timeout for the dead ranks.
        assert res.sim_time >= config.failure_detect_s

    def test_payload_fn_failure_skips(self, atlas_small):
        def leaf(rank):
            if rank in (2, 5):
                raise DaemonFailure(f"daemon {rank} died")
            return rank

        net = StreamingTBON(Topology.balanced(16, 2), atlas_small)
        res = net.reduce(leaf, lambda ps: sum(ps), lambda p: 100,
                         config=StreamConfig(seed=1))
        assert res.missing_daemons == [2, 5]

    def test_payload_fn_failure_raises_when_asked(self, atlas_small):
        def leaf(rank):
            raise DaemonFailure("boom")

        reduction = StreamingTBON(Topology.flat(4), atlas_small).stream(
            leaf, lambda ps: sum(ps), lambda p: 100,
            on_daemon_failure="raise")
        with pytest.raises(DaemonFailure):
            reduction.run()

    def test_all_dead_raises(self, atlas_small):
        config = StreamConfig(seed=1, jitter_mean_s=0.5)
        plan = FaultPlan(seed=1).with_crashes(range(8))
        reduction = sum_stream(atlas_small, Topology.flat(8),
                               list(range(8)), config,
                               faults=plan.bind(8))
        with pytest.raises(AllDaemonsFailed, match="every daemon"):
            reduction.run()


def _forest_and_merge(scheme, daemons, tasks_per_daemon=8, samples=2):
    emulator = STATBenchEmulator(
        TaskMap.block(daemons, tasks_per_daemon), scheme,
        BGLStackModel(), ring_hang_states(daemons * tasks_per_daemon),
        num_samples=samples, seed=99)
    return emulator.build_forest(), emulator.merge_filter()


class TestBitIdentityWithBatch:
    """The acceptance property: streamed == batch, bit for bit, across
    randomized topologies × schemes × arrival orders (stream seeds)."""

    TOPOLOGIES = [
        lambda d: Topology.flat(d),
        lambda d: Topology.balanced(d, 2),
        lambda d: Topology.balanced(d, 3),
        lambda d: Topology.two_deep(d, 4),
    ]

    @pytest.mark.parametrize("stream_seed", [1, 2, 3])
    @pytest.mark.parametrize("scheme_name", ["dense", "hierarchical"])
    def test_streamed_equals_batch(self, scheme_name, stream_seed):
        daemons = 16
        scheme = DenseLabelScheme(daemons * 8) if scheme_name == "dense" \
            else HierarchicalLabelScheme()
        forest, merge_fn = _forest_and_merge(scheme, daemons)
        machine = BGLMachine.with_io_nodes(daemons, "co")
        picker = np.random.default_rng(stream_seed)
        topo = self.TOPOLOGIES[picker.integers(len(self.TOPOLOGIES))](
            daemons)
        kwargs = dict(
            leaf_payload_fn=lambda rank: forest[rank],
            merge_fn=merge_fn,
            payload_nbytes=DaemonTrees.serialized_bytes,
            payload_nodes=DaemonTrees.node_count,
        )
        batch = TBONetwork(topo, machine).reduce(**kwargs)
        streamed = StreamingTBON(topo, machine).reduce(
            **kwargs, config=StreamConfig(seed=stream_seed, **NOISY))
        assert streamed.payload.tree_2d.arrays_equal(
            batch.payload.tree_2d)
        assert streamed.payload.tree_3d.arrays_equal(
            batch.payload.tree_3d)

    @pytest.mark.parametrize("dead", [set(), {0}, {3, 7}, {1, 2, 3}])
    def test_streamed_equals_batch_with_deaths(self, dead):
        daemons = 8
        scheme = HierarchicalLabelScheme()
        forest, merge_fn = _forest_and_merge(scheme, daemons)
        machine = BGLMachine.with_io_nodes(daemons, "co")
        topo = Topology.balanced(daemons, 2)

        def leaf(rank):
            if rank in dead:
                raise DaemonFailure(f"daemon {rank} died")
            return forest[rank]

        kwargs = dict(
            leaf_payload_fn=leaf,
            merge_fn=merge_fn,
            payload_nbytes=DaemonTrees.serialized_bytes,
            payload_nodes=DaemonTrees.node_count,
        )
        batch = TBONetwork(topo, machine).reduce(
            **kwargs, on_daemon_failure="skip")
        streamed = StreamingTBON(topo, machine).reduce(
            **kwargs, config=StreamConfig(seed=17, **NOISY))
        assert streamed.missing_daemons == batch.missing_daemons
        assert streamed.payload.tree_2d.arrays_equal(
            batch.payload.tree_2d)
        assert streamed.payload.tree_3d.arrays_equal(
            batch.payload.tree_3d)

    def test_streamed_snapshot_final_equals_run_payload(self):
        """After the engine drains, a snapshot IS the final tree."""
        daemons = 8
        scheme = DenseLabelScheme(daemons * 8)
        forest, merge_fn = _forest_and_merge(scheme, daemons)
        machine = BGLMachine.with_io_nodes(daemons, "co")
        reduction = StreamingTBON(
            Topology.balanced(daemons, 2), machine).stream(
            leaf_payload_fn=lambda rank: forest[rank],
            merge_fn=merge_fn,
            payload_nbytes=DaemonTrees.serialized_bytes,
            payload_nodes=DaemonTrees.node_count,
            config=StreamConfig(seed=23, **NOISY))
        res = reduction.run()
        snap = reduction.snapshot()
        assert snap.ranks == tuple(range(daemons))
        assert snap.payload.tree_2d.arrays_equal(res.payload.tree_2d)
        assert snap.payload.tree_3d.arrays_equal(res.payload.tree_3d)
