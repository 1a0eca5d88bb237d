"""SessionPipeline: phase composition, observers, frontend equivalence."""

import dataclasses

import pytest

from repro.api import (
    PhaseObserver,
    PipelineError,
    SessionPipeline,
    SessionSpec,
    TimingObserver,
)
from repro.apps.ring import RingApp
from repro.core.frontend import STATFrontEnd, STATResult
from repro.faults.plan import FaultPlan
from repro.statbench import ring_hang_states

SPEC = SessionSpec(machine="bgl", daemons=4, num_samples=2, seed=11)


class TestPhaseExecution:
    def test_full_run_produces_result(self):
        result = SessionPipeline.from_spec(SPEC).run()
        assert isinstance(result, STATResult)
        assert set(result.timings) == \
            {"launch", "map_gather", "sample", "merge", "remap"}
        assert [c.size for c in result.classes] == [254, 1, 1]

    @pytest.mark.parametrize("stream", [False, True])
    def test_result_merge_keeps_the_accounting_not_the_trees(self, stream):
        pipeline = SessionPipeline.from_spec(
            SPEC.replace(dead_daemons=(2,)))
        pipeline.ctx.stream = stream
        result, merged = pipeline.run(), pipeline.ctx.merge
        assert result.merge.payload is None
        assert merged.payload.tree_2d.node_count() > 0
        assert type(result.merge) is type(merged)
        assert result.merge.missing_daemons == [2]
        for field in dataclasses.fields(merged):
            if field.name != "payload":
                assert getattr(result.merge, field.name) == \
                    getattr(merged, field.name)
        assert result.merge.messages > 0
        assert result.merge.network_profile() == merged.network_profile()

    def test_run_until_partial(self):
        pipeline = SessionPipeline.from_spec(SPEC)
        ctx = pipeline.run_until("map_gather")
        assert pipeline.completed == ("launch", "map_gather")
        assert ctx.launch is not None and ctx.merge is None
        assert ctx.result is None
        assert set(ctx.timings) == {"launch", "map_gather"}

    def test_phases_individually_invokable_in_order(self):
        pipeline = SessionPipeline.from_spec(SPEC)
        for name in ("launch", "map_gather", "stage", "sample",
                     "merge", "finalize"):
            pipeline.run_phase(name)
        assert pipeline.ctx.result is not None
        assert pipeline.remaining == ()

    def test_out_of_order_phase_rejected(self):
        pipeline = SessionPipeline.from_spec(SPEC)
        with pytest.raises(PipelineError, match="needs"):
            pipeline.run_phase("merge")

    def test_rerun_phase_rejected(self):
        pipeline = SessionPipeline.from_spec(SPEC)
        pipeline.run_phase("launch")
        with pytest.raises(PipelineError, match="already ran"):
            pipeline.run_phase("launch")

    def test_unknown_phase_rejected(self):
        pipeline = SessionPipeline.from_spec(SPEC)
        with pytest.raises(PipelineError, match="unknown phase"):
            pipeline.run_until("teardown")

    def test_resume_after_partial(self):
        pipeline = SessionPipeline.from_spec(SPEC)
        pipeline.run_until("sample")
        result = pipeline.run()
        assert result is pipeline.ctx.result
        assert result.timings == SessionPipeline.from_spec(SPEC).run().timings

    def test_sbrs_spec_adds_stage_timing(self):
        spec = SPEC.replace(machine="atlas", mode="co", use_sbrs=True)
        ctx = spec.run()
        assert "sbrs" in ctx.timings
        assert ctx.result.relocation is not None


class TestObservers:
    def test_phase_hooks_fire_in_order(self):
        events = []

        class Recorder(PhaseObserver):
            def on_phase_start(self, phase, ctx):
                events.append(("start", phase))

            def on_phase_end(self, phase, ctx, sim_seconds):
                events.append(("end", phase, sim_seconds >= 0))

            def on_session_end(self, ctx):
                events.append(("session_end",))

        SessionPipeline.from_spec(SPEC, observers=(Recorder(),)).run()
        starts = [e[1] for e in events if e[0] == "start"]
        assert starts == ["launch", "map_gather", "stage", "sample",
                          "merge", "finalize"]
        assert all(e[2] for e in events if e[0] == "end")
        assert events[-1] == ("session_end",)

    def test_timing_observer_captures_wall_clock(self):
        timer = TimingObserver()
        SessionPipeline.from_spec(SPEC, observers=(timer,)).run()
        assert set(timer.wall_seconds) == \
            {"launch", "map_gather", "stage", "sample", "merge", "finalize"}
        assert all(v >= 0 for v in timer.wall_seconds.values())

    def test_crash_plan_degrades_merge(self):
        plan = FaultPlan(seed=SPEC.seed).with_crashes([1, 2])
        result = SessionPipeline.from_spec(SPEC.replace(faults=plan)).run()
        assert sorted(result.merge.missing_daemons) == [1, 2]
        # 2 of 4 daemons x 64 tasks are gone from the tree.
        total = sum(c.size for c in result.classes)
        assert total == 4 * 64 - 2 * 64

    def test_observer_can_abort_session(self):
        class Abort(PhaseObserver):
            def on_phase_start(self, phase, ctx):
                if phase == "sample":
                    raise RuntimeError("injected abort")

        pipeline = SessionPipeline.from_spec(SPEC, observers=(Abort(),))
        with pytest.raises(RuntimeError, match="injected abort"):
            pipeline.run()
        assert pipeline.completed == ("launch", "map_gather", "stage")


class TestFrontEndEquivalence:
    def test_attach_and_analyze_timings_reproduced_exactly(self):
        """The acceptance criterion: spec run == legacy monolith, bit-equal."""
        machine = SPEC.build_machine()
        fe = STATFrontEnd(machine, seed=SPEC.seed)
        legacy = fe.attach_and_analyze(
            ring_hang_states(machine.total_tasks), num_samples=2)
        via_spec = SPEC.run().result
        assert via_spec.timings == legacy.timings
        assert [c.ranks for c in via_spec.classes] == \
            [c.ranks for c in legacy.classes]

    def test_dead_daemons_path_equivalent(self):
        machine = SPEC.build_machine()
        fe = STATFrontEnd(machine, seed=SPEC.seed)
        legacy = fe.attach_and_analyze(
            ring_hang_states(machine.total_tasks), num_samples=2,
            dead_daemons={3})
        via_spec = SPEC.replace(dead_daemons=(3,)).run().result
        assert via_spec.timings == legacy.timings
        assert via_spec.merge.missing_daemons == \
            legacy.merge.missing_daemons

    def test_frontend_pipeline_method(self):
        machine = SPEC.build_machine()
        fe = STATFrontEnd(machine, seed=SPEC.seed)
        pipeline = fe.pipeline(ring_hang_states(machine.total_tasks),
                               num_samples=2)
        result = pipeline.run()
        assert result.timings == \
            fe.attach_and_analyze(ring_hang_states(machine.total_tasks),
                                  num_samples=2).timings


class TestFrontEndRun:
    def test_run_with_ring_app(self):
        machine = SPEC.build_machine()
        fe = STATFrontEnd(machine, seed=SPEC.seed)
        result = fe.run(RingApp.with_hang(machine.total_tasks),
                        num_samples=2)
        assert [c.size for c in result.classes] == [254, 1, 1]

    def test_run_with_plain_callable(self):
        machine = SPEC.build_machine()
        fe = STATFrontEnd(machine, seed=SPEC.seed)
        result = fe.run(ring_hang_states(machine.total_tasks),
                        num_samples=2)
        assert len(result.classes) == 3

    def test_run_rejects_wrong_size_workload(self):
        fe = STATFrontEnd(SPEC.build_machine())
        with pytest.raises(ValueError, match="sized for"):
            fe.run(RingApp.with_hang(8))

    def test_run_rejects_non_workload(self):
        fe = STATFrontEnd(SPEC.build_machine())
        with pytest.raises(TypeError, match="state_provider"):
            fe.run(42)


class TestRingApp:
    def test_with_hang_ids_and_states(self):
        app = RingApp.with_hang(64, hang_rank=5)
        assert app.workload_id == "ring_hang:5"
        assert app.state_provider()(5).kind == "stall"

    def test_healthy_has_no_hung_states(self):
        app = RingApp.healthy(64)
        assert not app.hung
        with pytest.raises(ValueError):
            app.state_provider()
        with pytest.raises(ValueError):
            app.workload_id

    def test_program_is_runnable(self):
        fe = STATFrontEnd(SessionSpec(machine="atlas", daemons=4,
                                      seed=5).build_machine(), seed=5)
        app = RingApp.with_hang(fe.machine.total_tasks)
        result = fe.debug_hung_application(app.program(), num_samples=2)
        assert len(result.classes) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            RingApp.with_hang(2)
        with pytest.raises(ValueError):
            RingApp.with_hang(8, hang_rank=9)
