"""Tests for MPI collectives (allreduce/bcast) and the solver workload."""

import pytest

from repro.apps import solver_program
from repro.apps.bugs import NO_BUG, InconsistentConvergence
from repro.core.frontend import STATFrontEnd
from repro.mpi.runtime import MPIRuntime, RankState
from repro.mpi.stacks import BGLStackModel, LinuxStackModel
from repro.sim.engine import Engine


def run(size, program):
    rt = MPIRuntime(Engine(), size)
    rt.run_program(program)
    return rt


class TestAllreduce:
    def test_sum_default(self):
        results = {}
        def program(ctx):
            results[ctx.rank] = yield from ctx.allreduce(ctx.rank + 1)
        rt = run(8, program)
        assert rt.unfinished_ranks() == []
        assert set(results.values()) == {sum(range(1, 9))}

    def test_custom_op(self):
        results = {}
        def program(ctx):
            results[ctx.rank] = yield from ctx.allreduce(
                ctx.rank, op=max)
        run(8, program)
        assert set(results.values()) == {7}

    def test_instances_match_by_call_count(self):
        """A rank's n-th call matches other ranks' n-th calls."""
        results = {}
        def program(ctx):
            a = yield from ctx.allreduce(1)
            b = yield from ctx.allreduce(10)
            results[ctx.rank] = (a, b)
        rt = run(4, program)
        assert rt.unfinished_ranks() == []
        assert set(results.values()) == {(4, 40)}

    def test_missing_rank_hangs_collective(self):
        def program(ctx):
            if ctx.rank == 2:
                yield ctx.runtime.engine.event()  # never joins
            yield from ctx.allreduce(1.0)
        rt = run(4, program)
        assert set(rt.unfinished_ranks()) == {0, 1, 2, 3}
        assert rt.state_of(0).kind == "allreduce"

    def test_single_rank(self):
        results = {}
        def program(ctx):
            results[0] = yield from ctx.allreduce(5)
        run(1, program)
        assert results[0] == 5


class TestBcast:
    def test_root_value_delivered_everywhere(self):
        results = {}
        def program(ctx):
            results[ctx.rank] = yield from ctx.bcast(
                "payload" if ctx.rank == 0 else None, root=0)
        rt = run(8, program)
        assert rt.unfinished_ranks() == []
        assert set(results.values()) == {"payload"}

    def test_nonzero_root(self):
        results = {}
        def program(ctx):
            results[ctx.rank] = yield from ctx.bcast(
                42 if ctx.rank == 3 else None, root=3)
        run(8, program)
        assert set(results.values()) == {42}


class TestStackFrames:
    def test_allreduce_frames_both_platforms(self, word):
        for model, entry in ((BGLStackModel(), "PMPI_Allreduce"),
                             (LinuxStackModel(), "PMPI_Allreduce")):
            trace = model.trace_for(RankState("allreduce"), word)
            assert entry in [f.function for f in trace]

    def test_bcast_frames(self, word):
        trace = BGLStackModel().trace_for(RankState("bcast"), word)
        assert "PMPI_Bcast" in [f.function for f in trace]


class TestSolver:
    def test_healthy_solver_converges_and_completes(self):
        rt = run(16, solver_program(iterations=6, converge_at=4,
                                    bug=NO_BUG))
        assert rt.unfinished_ranks() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            solver_program(iterations=0)
        with pytest.raises(ValueError):
            solver_program(iterations=4, converge_at=9)

    def test_consensus_bug_hangs_everyone(self):
        rt = run(16, solver_program(bug=InconsistentConvergence(rank=5)))
        assert len(rt.unfinished_ranks()) == 16

    def test_signature_is_barrier_vs_allreduce(self):
        """The mirror image of the ring hang: 1 in barrier, rest in
        allreduce."""
        rt = run(32, solver_program(bug=InconsistentConvergence(rank=5)))
        kinds = {}
        for r in range(32):
            kinds.setdefault(rt.state_of(r).kind, []).append(r)
        assert kinds["barrier"] == [5]
        assert len(kinds["allreduce"]) == 31

    def test_stat_triage_of_solver_bug(self, atlas_small):
        """End to end: STAT isolates the victim as a singleton class."""
        fe = STATFrontEnd(atlas_small, seed=13)
        result = fe.debug_hung_application(
            solver_program(bug=InconsistentConvergence(rank=7)))
        sizes = sorted(c.size for c in result.classes)
        assert sizes == [1, 127]
        singleton = next(c for c in result.classes if c.size == 1)
        assert singleton.ranks == (7,)
        fns = {f.function for p in singleton.paths for f in p}
        assert "PMPI_Barrier" in fns
