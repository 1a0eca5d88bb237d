"""Tests for the event-driven streaming TBO̅N (repro.tbon.streaming).

The load-bearing property: for every topology × label scheme × arrival
order, the final streamed tree is bit-identical (``arrays_equal``) to
the batch :class:`TBONetwork` merge, because folds always apply in
canonical child order no matter when payloads arrive.
"""

import hashlib

import numpy as np
import pytest

from repro.core.merge import DenseLabelScheme, HierarchicalLabelScheme
from repro.core.taskset import TaskMap
from repro.faults.plan import FaultPlan
from repro.machine.atlas import AtlasMachine
from repro.machine.bgl import BGLMachine
from repro.mpi.stacks import BGLStackModel
from repro.perf.counters import MERGE_CALLS, MERGE_TREES_IN, PERF
from repro.statbench import STATBenchEmulator, ring_hang_states
from repro.statbench.emulator import DaemonTrees
from repro.tbon import streaming
from repro.tbon.network import DaemonFailure, TBONetwork
from repro.tbon.retry import AllDaemonsFailed
from repro.tbon.spec import parse_shape
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


class TestDeferredMerge:
    """``merge_filter`` returns a deferred pair: a fold is bookkeeping,
    and reading a pair runs one k-way merge.  Under randomized
    topologies × schemes × jitter, the deferral changes no simulated
    time and no tree, and a streamed reduction runs the merge calls the
    batch reduce runs."""

    DAEMONS = 16

    def _setup(self, scheme_name, seed):
        daemons = self.DAEMONS
        scheme = DenseLabelScheme(daemons * 8) if scheme_name == "dense" \
            else HierarchicalLabelScheme()
        forest, merge_fn = _forest_and_merge(scheme, daemons)
        picker = np.random.default_rng(seed)
        topologies = TestBitIdentityWithBatch.TOPOLOGIES
        topo = topologies[picker.integers(len(topologies))](daemons)
        machine = BGLMachine.with_io_nodes(daemons, "co")
        kwargs = dict(
            leaf_payload_fn=lambda rank: forest[rank],
            merge_fn=merge_fn,
            payload_nbytes=DaemonTrees.serialized_bytes,
            payload_nodes=DaemonTrees.node_count,
        )
        return topo, machine, kwargs, StreamConfig(seed=seed, **NOISY)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("scheme_name", ["dense", "hierarchical"])
    def test_deferred_sizes_equal_read_sizes(self, scheme_name, seed):
        topo, machine, kwargs, config = self._setup(scheme_name, seed)
        merge_fn = kwargs["merge_fn"]
        calls = []

        def recording(payloads):
            calls.append(list(payloads))
            return merge_fn(payloads)

        StreamingTBON(topo, machine).reduce(
            **dict(kwargs, merge_fn=recording), config=config)
        assert calls
        for payloads in calls:
            read = merge_fn(payloads)
            read.trees()
            deferred = merge_fn(payloads)
            before = PERF.get(MERGE_CALLS)
            nodes = deferred.node_count()
            assert PERF.get(MERGE_CALLS) == before  # counted, not merged
            assert nodes == read.node_count() == sum(
                t.node_count() for t in read.trees())
            assert deferred.serialized_bytes() == read.serialized_bytes()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("scheme_name", ["dense", "hierarchical"])
    def test_streamed_merge_calls_equal_batch(self, scheme_name, seed):
        topo, machine, kwargs, config = self._setup(scheme_name, seed)

        def counted(reduce):
            before = (PERF.get(MERGE_CALLS), PERF.get(MERGE_TREES_IN))
            result = reduce()
            result.payload.trees()  # the front end reads the root
            return result, (PERF.get(MERGE_CALLS) - before[0],
                            PERF.get(MERGE_TREES_IN) - before[1])

        batch, batch_counts = counted(
            lambda: TBONetwork(topo, machine).reduce(**kwargs))
        streamed, stream_counts = counted(
            lambda: StreamingTBON(topo, machine).reduce(
                **kwargs, config=config))
        assert stream_counts == batch_counts
        assert batch_counts[0] > 0
        assert streamed.payload.tree_2d.arrays_equal(batch.payload.tree_2d)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("scheme_name", ["dense", "hierarchical"])
    def test_snapshots_leave_the_final_tree_and_times(self, scheme_name,
                                                      seed):
        topo, machine, kwargs, config = self._setup(scheme_name, seed)
        batch = TBONetwork(topo, machine).reduce(**kwargs)
        plain = StreamingTBON(topo, machine).reduce(**kwargs, config=config)
        reduction = StreamingTBON(topo, machine).stream(
            **kwargs, config=config)
        for t in np.linspace(0.0, plain.sim_time, 10):
            snap = reduction.run_until(float(t)).snapshot()
            if not snap.empty:  # reading a snapshot reads its partials
                assert snap.payload.node_count() == sum(
                    tree.node_count() for tree in snap.payload.trees())
        streamed = reduction.run()
        assert streamed.sim_time == plain.sim_time
        assert streamed.first_tree_time == plain.first_tree_time
        assert streamed.payload.tree_2d.arrays_equal(batch.payload.tree_2d)
        assert streamed.payload.tree_3d.arrays_equal(batch.payload.tree_3d)


def _digest(items) -> str:
    return hashlib.sha256(",".join(map(str, items)).encode()).hexdigest()[:16]


class TestWireOrder:
    """``StreamingReduction._wire`` visits the topology breadth-first.

    Each case pins sha256 prefixes of the ``_states`` insertion order,
    the daemon ``Process`` names and the ``link/{node_id}`` generator
    labels, and checks them against the topology's own BFS node list.
    """

    #: (shape, daemons) -> (states order, process names, link labels)
    PINS = {
        ("flat", 7): ("1eacc8c10d0cdd8e", "c9f35eff8a34857b",
                      "dd2651fd8b174ce3"),
        ("flat", 150): ("8efb90ca95cc5cd6", "efcc0a5f91345296",
                        "dd2651fd8b174ce3"),
        ("balanced:2", 7): ("62cf2984a1e677f8", "c9f35eff8a34857b",
                            "d88141e085ff1bc5"),
        ("balanced:2", 1664): ("a7ff0411e44bfdce", "d3898d010cfb16f7",
                               "11838a1e8564317b"),
        ("balanced:3", 7): ("efd720d0a2498191", "c9f35eff8a34857b",
                            "6696df269740da51"),
        ("balanced:3", 1664): ("fe82ff0f28661365", "d3898d010cfb16f7",
                               "2c9d3f1e41eb3992"),
        ("bgl-2deep", 7): ("62cf2984a1e677f8", "c9f35eff8a34857b",
                           "d88141e085ff1bc5"),
        ("bgl-2deep", 1664): ("90dd702ddb330a57", "d3898d010cfb16f7",
                              "b9834f618c693034"),
        ("bgl-3deep", 7): ("381e1b362cade6ac", "c9f35eff8a34857b",
                           "76ebb937f708894a"),
        ("bgl-3deep", 1664): ("9883b48cd0ddba76", "d3898d010cfb16f7",
                              "fb86499261523d10"),
    }

    @pytest.mark.parametrize("shape,daemons", sorted(PINS))
    def test_wiring_order_is_pinned(self, shape, daemons, monkeypatch):
        names, labels = [], []
        real_process, real_rng = streaming.Process, streaming.SeedStream.rng

        def process(engine, gen, name="process"):
            names.append(name)
            return real_process(engine, gen, name=name)

        def rng(stream, label):
            labels.append(label)
            return real_rng(stream, label)

        monkeypatch.setattr(streaming, "Process", process)
        monkeypatch.setattr(streaming.SeedStream, "rng", rng)
        topo = parse_shape(shape, daemons)
        reduction = StreamingTBON(topo, AtlasMachine.with_nodes(16)).stream(
            lambda d: d, sum, lambda p: 8,
            config=StreamConfig(jitter_mean_s=0.0))
        states = list(reduction._states)
        assert states == [n.node_id for n in topo.nodes]
        assert names == [f"daemon-{n.rank}" for n in topo.nodes
                         if n.is_leaf]
        assert labels == [f"link/{n.node_id}" for n in topo.nodes
                          if not n.is_leaf]
        got = (_digest(states), _digest(names), _digest(labels))
        assert got == self.PINS[(shape, daemons)]
