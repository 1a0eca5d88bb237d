"""The one failure path (repro.tbon.retry): the transmission state
machine driven in isolation, and the three ways to spell "this daemon is
dead" as one property."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.pipeline import SessionPipeline
from repro.api.spec import SessionSpec
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.perf.counters import PERF, TBON_CORRUPT_DETECTED, TBON_RETRIES
from repro.statbench.emulator import DaemonTrees
from repro.tbon.network import ReduceResult, TBONetwork
from repro.tbon.retry import (
    SEND,
    WAIT,
    AllDaemonsFailed,
    DaemonFailure,
    failure_policy,
    transmit,
)
from repro.tbon.topology import Topology

POLICY = RetryPolicy(max_retries=2, timeout_s=3.0, backoff_base_s=0.5,
                     backoff_mult=2.0)
NBYTES = 1000
#: simulated seconds the test charges for one SEND step
TRANSFER_S = 0.25


class ScriptedFaults:
    """An injector whose link fates are read from a script."""

    def __init__(self, fates):
        self.fates = list(fates)
        self.asked = []
        self.absorbed = 0

    def link_fate(self, node_id, slot, attempt):
        self.asked.append((node_id, slot, attempt))
        return self.fates[attempt]

    def deliver_ok(self, payload, fate):
        return fate != "corrupt"

    def note_absorbed(self):
        self.absorbed += 1


def drive(fates, policy=POLICY, ranks=(4, 2)):
    """Run one transmission; -> (steps, delivered, elapsed, stats, faults,
    PERF deltas)."""
    faults = None if fates is None else ScriptedFaults(fates)
    stats = ReduceResult(payload=None, sim_time=0.0)
    before = (PERF.get(TBON_RETRIES), PERF.get(TBON_CORRUPT_DETECTED))
    gen = transmit(stats, faults, policy, node_id=7, slot=3, level=1,
                   payload="p", nbytes=NBYTES, ranks=ranks)
    steps, elapsed = [], 0.0
    while True:
        try:
            step = next(gen)
        except StopIteration as verdict:
            delivered = verdict.value
            break
        steps.append(step)
        elapsed += step[1] if step[0] == WAIT else TRANSFER_S
    deltas = (PERF.get(TBON_RETRIES) - before[0],
              PERF.get(TBON_CORRUPT_DETECTED) - before[1])
    return steps, delivered, elapsed, stats, faults, deltas


def counters(stats):
    return (stats.messages, stats.bytes_total, stats.per_level_bytes,
            stats.dropped_messages, stats.corrupt_detected, stats.retries,
            stats.missing_subtrees, stats.missing_daemons)


class TestTransmitStateMachine:
    def test_fault_free_is_one_send(self):
        for fates in (None, ["ok"]):
            steps, delivered, elapsed, stats, faults, deltas = drive(fates)
            assert steps == [(SEND, NBYTES)]
            assert delivered is True
            assert elapsed == TRANSFER_S
            assert counters(stats) == (1, NBYTES, {1: NBYTES},
                                       0, 0, 0, 0, [])
            assert deltas == (0, 0)
            assert faults is None or faults.absorbed == 0

    def test_drop_then_ok(self):
        steps, delivered, elapsed, stats, faults, deltas = \
            drive(["drop", "ok"])
        assert steps == [(WAIT, 3.0), (WAIT, 0.5), (SEND, NBYTES)]
        assert delivered is True
        assert elapsed == 3.0 + 0.5 + TRANSFER_S
        assert counters(stats) == (1, NBYTES, {1: NBYTES},
                                   1, 0, 1, 0, [])
        assert deltas == (1, 0)
        assert faults.absorbed == 1
        assert faults.asked == [(7, 3, 0), (7, 3, 1)]

    def test_corrupt_twice_then_ok(self):
        steps, delivered, elapsed, stats, faults, deltas = \
            drive(["corrupt", "corrupt", "ok"])
        # Every corrupted attempt is a real transmission: three SENDs.
        assert steps == [(SEND, NBYTES), (WAIT, 0.5),
                         (SEND, NBYTES), (WAIT, 1.0), (SEND, NBYTES)]
        assert delivered is True
        assert elapsed == 3 * TRANSFER_S + 0.5 + 1.0
        assert counters(stats) == (3, 3 * NBYTES, {1: 3 * NBYTES},
                                   0, 2, 2, 0, [])
        assert deltas == (2, 2)
        assert faults.absorbed == 1

    def test_budget_exhausted_loses_the_subtree(self):
        steps, delivered, elapsed, stats, faults, deltas = \
            drive(["drop"] * (POLICY.max_retries + 1))
        assert steps == [(WAIT, 3.0), (WAIT, 0.5), (WAIT, 3.0),
                         (WAIT, 1.0), (WAIT, 3.0)]
        assert delivered is False
        assert elapsed == POLICY.budget_s
        # No backoff (and no retry) is charged after the final attempt;
        # the sender's live ranks join missing_daemons, sorted.
        assert counters(stats) == (0, 0, {}, 3, 0, 2, 1, [2, 4])
        assert deltas == (2, 0)
        assert faults.absorbed == 0

    def test_corrupt_on_the_last_attempt_is_not_delivered(self):
        steps, delivered, _, stats, _, _ = drive(
            ["corrupt"], policy=RetryPolicy(max_retries=0))
        assert steps == [(SEND, NBYTES)]
        assert delivered is False
        assert stats.corrupt_detected == 1 and stats.retries == 0
        assert stats.missing_daemons == [2, 4]

    def test_failure_policy_validates_and_resolves(self):
        with pytest.raises(ValueError, match="on_daemon_failure"):
            failure_policy("retry", None, None)
        assert failure_policy("skip", None, None) == RetryPolicy()
        bound = FaultPlan(retry=POLICY).bind(4)
        assert failure_policy("raise", bound, None) is POLICY
        override = RetryPolicy(max_retries=0)
        assert failure_policy("skip", bound, override) is override


class TestAllDaemonsFailed:
    def test_is_a_typed_daemon_failure_with_the_declared_message(self):
        err = AllDaemonsFailed(8, 8)
        assert isinstance(err, DaemonFailure)
        assert str(err) == "every daemon failed (8 of 8)"
        again = pickle.loads(pickle.dumps(err))
        assert type(again) is AllDaemonsFailed and str(again) == str(err)

    def test_a_leaf_source_saying_every_daemon_is_not_the_declared_outcome(
            self, atlas_small):
        """Chaos matches the type, so a source's own message cannot pose
        as the declared all-dead outcome."""
        def leaf(rank):
            raise DaemonFailure("every daemon hates mondays")

        net = TBONetwork(Topology.flat(4), atlas_small)
        with pytest.raises(DaemonFailure) as caught:
            net.reduce(leaf, sum, lambda p: 10, on_daemon_failure="raise")
        assert not isinstance(caught.value, AllDaemonsFailed)
        with pytest.raises(AllDaemonsFailed, match="every daemon failed"):
            net.reduce(leaf, sum, lambda p: 10, on_daemon_failure="skip")


# -- three spellings of "these daemons are dead" -----------------------------

SHAPES = {"atlas": ("flat", "balanced:2", "balanced:3"),
          "bgl": ("flat", "bgl-2deep", "bgl-3deep")}


@st.composite
def dead_sets(draw):
    machine = draw(st.sampled_from(sorted(SHAPES)))
    daemons = draw(st.integers(2, 32))
    # a proper subset: at least one daemon survives
    dead = draw(st.sets(st.integers(0, daemons - 1),
                        max_size=daemons - 1))
    spec = SessionSpec(machine=machine, daemons=daemons, num_samples=2,
                       topology=draw(st.sampled_from(SHAPES[machine])),
                       seed=draw(st.integers(0, 3)))
    return spec, tuple(sorted(dead))


def run_merge(spec, stream):
    pipeline = SessionPipeline.from_spec(spec)
    pipeline.ctx.stream = stream
    pipeline.run_until("merge")
    return pipeline.ctx


def same_merge(a, b):
    return (a.payload.tree_2d.arrays_equal(b.payload.tree_2d)
            and a.payload.tree_3d.arrays_equal(b.payload.tree_3d)
            and a.sim_time == b.sim_time
            and a.missing_daemons == b.missing_daemons
            and a.missing_subtrees == b.missing_subtrees
            and a.messages == b.messages
            and a.bytes_total == b.bytes_total)


class TestOneWayToSayDead:
    @given(dead_sets())
    @settings(max_examples=25, deadline=None)
    def test_three_spellings_agree_through_the_batch_engine(self, case):
        spec, dead = case
        crashes = FaultPlan(seed=spec.seed).with_crashes(dead)
        by_field = run_merge(spec.replace(dead_daemons=dead), False)
        by_plan = run_merge(spec.replace(faults=crashes), False)
        assert by_field.merge.missing_daemons == list(dead)
        assert same_merge(by_field.merge, by_plan.merge)
        if dead:  # both parsed into the same plan, and both fired it
            assert by_field.fault_plan == by_plan.fault_plan
            assert by_field.fault_injector.injected == len(dead) == \
                by_plan.fault_injector.injected

        # The engine-level contract: a leaf source that raises.
        live = [d for d in range(spec.daemons) if d not in dead]
        forest = dict(zip(live, by_plan.emulator.build_forest(
            daemon_ids=live)))

        def leaf(rank):
            if rank in dead:
                raise DaemonFailure(f"daemon {rank} unreachable")
            return forest[rank]

        by_source = TBONetwork(by_plan.topology, by_plan.machine).reduce(
            leaf, by_plan.emulator.merge_filter(),
            DaemonTrees.serialized_bytes, DaemonTrees.node_count,
            on_daemon_failure="skip")
        assert same_merge(by_source, by_plan.merge)

    @given(dead_sets())
    @settings(max_examples=15, deadline=None)
    def test_field_and_plan_agree_through_the_stream_engine(self, case):
        spec, dead = case
        crashes = FaultPlan(seed=spec.seed).with_crashes(dead)
        by_field = run_merge(spec.replace(dead_daemons=dead), True)
        by_plan = run_merge(spec.replace(faults=crashes), True)
        assert by_field.merge.missing_daemons == list(dead)
        assert same_merge(by_field.merge, by_plan.merge)
        assert by_field.merge.first_tree_time == \
            by_plan.merge.first_tree_time

    def test_stream_detection_clock_starts_at_zero_for_a_t0_crash(self):
        """A daemon that crashed at t<=0 never emitted: its parent's
        socket timeout runs from 0, not from the jittered emit time the
        daemon never reached (docs/fault-tolerance.md)."""
        spec = SessionSpec(machine="bgl", daemons=8, num_samples=2,
                           topology="flat", dead_daemons=(3,))
        ctx = run_merge(spec, True)
        detect = 5.0  # StreamConfig.failure_detect_s
        alive = run_merge(spec.replace(dead_daemons=()), True)
        # Everything else is done long before the timeout fires, so the
        # reduction ends at detect + the root's last fold — not at
        # detect + daemon 3's ~0.05 s emit jitter + fold.
        assert alive.merge.sim_time < 1.0
        assert ctx.merge.sim_time - detect < 0.01

    @pytest.mark.parametrize("stream", [False, True])
    def test_every_daemon_dead_is_the_declared_error(self, stream):
        spec = SessionSpec(machine="atlas", daemons=4, num_samples=2)
        plan = FaultPlan(seed=spec.seed).with_crashes(range(4))
        for doomed in (spec.replace(dead_daemons=(0, 1, 2, 3)),
                       spec.replace(faults=plan)):
            with pytest.raises(AllDaemonsFailed, match="every daemon"):
                run_merge(doomed, stream)
