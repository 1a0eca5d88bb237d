"""The perf-counter subsystem and its hot-path integrations."""

import numpy as np
import pytest

from conftest import as_arrays
from per_object_oracle import ObjectTree, daemon_label
from repro.core.frames import Frame, StackTrace
from repro.core.interning import FRAMES
from repro.core.merge import DenseLabelScheme
from repro.core.taskset import TaskMap
from repro.perf import PERF, PerfCounters


class TestPerfCounters:
    def test_add_and_get(self):
        perf = PerfCounters()
        perf.add("x")
        perf.add("x", 4)
        assert perf.get("x") == 5
        assert perf.get("missing") == 0

    def test_timer_accumulates(self):
        perf = PerfCounters()
        with perf.timer("t"):
            pass
        with perf.timer("t"):
            pass
        assert perf.seconds["t"] >= 0.0
        snap = perf.snapshot()
        assert "t" in snap["seconds"]

    def test_reset(self):
        perf = PerfCounters()
        perf.add("x")
        perf.add_seconds("t", 1.0)
        perf.reset()
        assert perf.snapshot() == {"counts": {}, "seconds": {}}

    def test_snapshot_is_a_copy(self):
        perf = PerfCounters()
        perf.add("x")
        snap = perf.snapshot()
        snap["counts"]["x"] = 999
        assert perf.get("x") == 1


class TestMergeIntegration:
    def test_merge_updates_counters(self):
        task_map = TaskMap.block(2, 4)
        scheme = DenseLabelScheme(8)
        trees = []
        for d in range(2):
            tree = ObjectTree()
            tree.insert(StackTrace.from_names(["main", "poll"]),
                        daemon_label(scheme, d, 4, [0, 1], task_map))
            trees.append(tree)
        arrays = as_arrays(scheme, trees)
        PERF.reset()
        scheme.merge(arrays)
        assert PERF.get("merge.calls") == 1
        assert PERF.get("merge.trees_in") == 2
        assert PERF.get("merge.nodes_out") == 2
        assert PERF.seconds["merge.kernel_seconds"] >= 0.0


class TestNetworkIntegration:
    def test_reduce_updates_counters(self):
        from repro.machine.bgl import BGLMachine
        from repro.tbon.network import TBONetwork
        from repro.tbon.topology import Topology

        machine = BGLMachine.with_io_nodes(4, "co")
        network = TBONetwork(Topology.flat(4), machine)
        PERF.reset()
        network.reduce(
            leaf_payload_fn=lambda d: 10,
            merge_fn=sum,
            payload_nbytes=lambda p: p,
        )
        assert PERF.get("tbon.reductions") == 1
        assert PERF.get("tbon.messages") == 4
        assert PERF.get("tbon.bytes") == 40
        assert PERF.seconds["tbon.reduce_wall_seconds"] >= 0.0


class TestInterning:
    def test_equal_frames_are_identical(self):
        a = Frame("foo", "lib")
        b = Frame("foo", "lib")
        assert a is b
        assert a.id == b.id

    def test_distinct_frames_distinct_ids(self):
        assert Frame("foo", "m1").id != Frame("foo", "m2").id

    def test_frame_is_immutable(self):
        frame = Frame("immutable_probe")
        with pytest.raises(AttributeError):
            frame.function = "other"

    def test_frame_of_round_trip(self):
        frame = Frame("round_trip_probe", "mod")
        assert FRAMES.frame_of(frame.id) is frame

    def test_serialized_bytes_of_matches_scalar(self):
        frames = [Frame("alpha", "m"), Frame("beta_longer", "mod2")]
        ids = np.asarray([f.id for f in frames])
        assert FRAMES.serialized_bytes_of(ids) == \
            sum(f.serialized_bytes() for f in frames)

    def test_trace_hash_cached_and_equal(self):
        a = StackTrace.from_names(["a", "b"])
        b = StackTrace.from_names(["a", "b"], thread_id=2)
        assert a == b and hash(a) == hash(b)
        assert a.frame_ids() == b.frame_ids()
