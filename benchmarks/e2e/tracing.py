"""The traced pass: spans around every layer, from outside ``src/``.

A traced session drives the six phases one ``run_phase`` at a time under
spans, then *replays* the bodies of the merge and finalize phases on the
same context — ``build_forest``, the reduction with its ``merge_fn``
wrapped in a timing shim, the two ``scheme.finalize`` calls,
``triage_classes`` — so each layer inside those phases gets its own wall
time without touching the program.  The replay mirrors
``MergePhase.run``/``FinalizePhase.run`` and is reconciled against them:
its outputs must equal the context's, and the phase spans must add up to
the session span.

Spans are ``(name, start, end, parent, session_id)`` kept in memory and
written as Chrome trace-event JSON when the pass ends.
"""

from __future__ import annotations

import gc
import json
import pickle
import statistics
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.api.pipeline import (
    PhaseObserver, SessionContext, SessionPipeline,
)
from repro.api.spec import PHASE_NAMES, SessionSpec
from repro.core.equivalence import triage_classes
from repro.core.merge import HierarchicalLabelScheme
from repro.perf import PERF
from repro.perf.counters import (
    BUILD_DAEMONS, BUILD_STRUCT_HITS, BUILD_STRUCT_MISSES, BUILD_TRACES,
    MERGE_CALLS, MERGE_LABEL_BYTES_OUT, MERGE_NODES_OUT, MERGE_TREES_IN,
)
from repro.statbench.emulator import DaemonTrees, STATBenchEmulator
from repro.tbon.network import DaemonFailure, TBONetwork
from repro.tbon.streaming import StreamConfig, StreamingTBON

from checks import check_archive, check_result, payloads_equal
from measure import OUT_DIR, Runner, archive_round_trip

__all__ = ["Tracer", "run_traced", "RECONCILE_TOLERANCE"]

#: Σ phase spans may differ from the session span by this share
RECONCILE_TOLERANCE = 0.05


class Span:
    """One timed interval; ``end`` is set when the block exits."""

    __slots__ = ("name", "start", "end", "parent", "session_id")

    def __init__(self, name: str, parent: Optional["Span"],
                 session_id: int) -> None:
        self.name = name
        self.parent = parent
        self.session_id = session_id
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store."""

    def __init__(self) -> None:
        self.spans: List[Span] = []

    @contextmanager
    def span(self, name: str, parent: Optional[Span] = None,
             session_id: int = 0):
        span = Span(name, parent, parent.session_id if parent else session_id)
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()

    def write(self, path: Path) -> None:
        """Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
        origin = min((s.start for s in self.spans), default=0.0)
        events = [{
            "name": s.name, "ph": "X", "pid": 1, "tid": s.session_id,
            "ts": (s.start - origin) * 1e6, "dur": s.seconds * 1e6,
            "args": {"parent": s.parent.name if s.parent else None},
        } for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))


class _TimedCall:
    """Wraps ``merge_fn`` so its wall time can be split from its caller's."""

    def __init__(self, fn: Callable) -> None:
        self.fn = fn
        self.seconds = 0.0

    def __call__(self, *args):
        start = time.perf_counter()
        try:
            return self.fn(*args)
        finally:
            self.seconds += time.perf_counter() - start


class _FirstTree(PhaseObserver):
    """Wall clock of the streaming merge's ``first_tree`` progress event."""

    def __init__(self) -> None:
        self.at: Optional[float] = None

    def on_progress(self, phase, ctx, event, info) -> None:
        if event == "first_tree" and self.at is None:
            self.at = time.perf_counter()


class _Layers:
    """One traced iteration's per-layer sums, and what failed in it."""

    def __init__(self, tracer: Tracer, problems: List[str]) -> None:
        self.tracer = tracer
        self.problems = problems
        self.values: Dict[str, float] = {}

    def add(self, name: str, value: float) -> None:
        self.values[name] = self.values.get(name, 0.0) + value


def traced_session(layers: _Layers, spec: SessionSpec, stream: bool,
                   session_id: int) -> None:
    """One session under spans, then the replays and an archive round trip.

    A raised exception or a failed reconciliation or correctness check
    is appended to ``layers.problems``.
    """
    tracer, add, problems = layers.tracer, layers.add, layers.problems
    first_tree = _FirstTree()
    gc.collect()
    try:
        with tracer.span("session", session_id=session_id) as session_span:
            with tracer.span("spec.resolve", session_span) as span:
                pipeline = SessionPipeline.from_spec(
                    spec, observers=[first_tree])
                pipeline.ctx.stream = stream
            add("spec.resolve_wall_s", span.seconds)
            phase_seconds = span.seconds
            for phase in PHASE_NAMES:
                before = dict(PERF.counts)
                with tracer.span(f"phase.{phase}", session_span) as span:
                    pipeline.run_phase(phase)
                add(f"phase.{phase}.wall_s", span.seconds)
                phase_seconds += span.seconds
                if phase == "merge":
                    merge_counts = {k: v - before.get(k, 0)
                                    for k, v in PERF.counts.items()}
                    add("trace.merge_phase_s", span.seconds)
    except Exception as err:  # noqa: BLE001 - counted as a failed session
        problems.append(f"{spec.label}: {type(err).__name__}: {err}")
        return
    ctx = pipeline.ctx
    add("trace.session_span_s", session_span.seconds)
    add("trace.phase_spans_s", phase_seconds)
    if abs(phase_seconds - session_span.seconds) > \
            RECONCILE_TOLERANCE * session_span.seconds:
        problems.append(
            f"{spec.label}: phase spans sum to {phase_seconds:.4f}s, "
            f"session span is {session_span.seconds:.4f}s")

    # What the phases themselves recorded.
    timings = ctx.timings
    add("launch.sim_s", timings["launch"])
    add("launch.process_table_rows", ctx.launch.process_table.num_tasks)
    add("sample.sim_s", timings["sample"])
    add("sbrs.sim_s", timings.get("sbrs", 0.0))
    add("map_gather.sim_s", timings["map_gather"])
    add("tbon.merge_sim_s", timings["merge"])
    add("finalize.remap_sim_s", timings["remap"])
    add("sim.session_s", ctx.result.total_seconds)
    add("tbon.messages", ctx.merge.messages)
    add("tbon.bytes", ctx.merge.bytes_total)
    for name, counter in (
            ("forest.daemons", BUILD_DAEMONS),
            ("forest.traces", BUILD_TRACES),
            ("forest.struct_cache_hits", BUILD_STRUCT_HITS),
            ("forest.struct_cache_misses", BUILD_STRUCT_MISSES),
            ("merge.calls", MERGE_CALLS),
            ("merge.trees_in", MERGE_TREES_IN),
            ("merge.nodes_out", MERGE_NODES_OUT),
            ("merge.label_bytes_out", MERGE_LABEL_BYTES_OUT)):
        add(name, merge_counts.get(counter, 0))
    degradation = ctx.result.degradation
    add("faults.injected", degradation.faults_injected)
    add("faults.retries", degradation.retries)
    add("faults.corrupt_detected", degradation.corrupt_detected)
    layers.values["faults.min_coverage"] = min(
        layers.values.get("faults.min_coverage", 1.0), degradation.coverage)
    add("equivalence.classes", len(ctx.classes))
    if isinstance(ctx.scheme, HierarchicalLabelScheme):
        pair = ctx.merge.payload
        add("finalize.labels_remapped",
            pair.tree_2d.node_count() + pair.tree_3d.node_count())
    if stream:
        add("stream.partial_merges", ctx.merge.partial_merges)
        add("stream.sim_ttft_s", ctx.merge.first_tree_time)
        add("stream.sim_ttfinal_s", ctx.merge.sim_time)
        add("stream.first_tree_wall_s", first_tree.at - session_span.start)

    _replay_merge(layers, session_span, spec, ctx)
    _replay_finalize(layers, session_span, spec, ctx)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        with tracer.span("archive", session_span):
            archive, save_s, load_s = archive_round_trip(
                spec, ctx.result, Path(tmp))
        add("archive.save_wall_s", save_s)
        add("archive.load_wall_s", load_s)
        add("archive.bytes", sum(f.stat().st_size
                                 for f in Path(tmp).iterdir()))
    problems += check_result(spec, ctx.result, ctx.task_map)
    problems += check_archive(spec, ctx.result, archive)


def _replay_merge(layers: _Layers, parent: Span, spec: SessionSpec,
                  ctx: SessionContext) -> None:
    """The body of ``MergePhase.run`` again, one span per layer."""
    tracer, add = layers.tracer, layers.add
    emulator = STATBenchEmulator(
        ctx.task_map, ctx.scheme, ctx.stack_model, ctx.state_of,
        num_samples=ctx.config.num_samples,
        threads_per_process=ctx.config.threads_per_process, seed=ctx.seed)

    def bind_injector():
        # A fresh injector per reduction: its draws are consumed.
        if ctx.fault_plan is None or ctx.fault_plan.empty:
            return None
        return ctx.fault_plan.bind(len(ctx.task_map))

    injector = bind_injector()
    dead = set(ctx.dead_daemons)
    if injector is not None:
        dead |= injector.dead_at_start()
    live = [d for d in range(len(ctx.task_map)) if d not in dead]
    with tracer.span("replay.build_forest", parent) as forest_span:
        forest = dict(zip(live, emulator.build_forest(daemon_ids=live)))
    add("forest.build_wall_s", forest_span.seconds)

    def leaf_payload(rank: int) -> DaemonTrees:
        if rank in dead:
            raise DaemonFailure(f"daemon {rank} unreachable")
        return forest[rank]

    batch_merge = _TimedCall(emulator.merge_filter())
    with tracer.span("replay.tbon.reduce", parent) as batch_span:
        batch = TBONetwork(ctx.topology, ctx.machine).reduce(
            leaf_payload_fn=leaf_payload, merge_fn=batch_merge,
            payload_nbytes=DaemonTrees.serialized_bytes,
            payload_nodes=DaemonTrees.node_count,
            on_daemon_failure="skip" if dead or injector is not None
            else "raise",
            faults=injector)
    add("tbon.reduce_wall_s", batch_span.seconds)
    add("tbon.reduce_self_wall_s", batch_span.seconds - batch_merge.seconds)
    # The reduction the session itself ran: batch, unless it streams.
    replayed, replay_s, kernel_s = batch, batch_span.seconds, \
        batch_merge.seconds
    if ctx.stream:
        stream_merge = _TimedCall(emulator.merge_filter())
        with tracer.span("replay.stream.reduce", parent) as span:
            replayed = StreamingTBON(ctx.topology, ctx.machine).reduce(
                leaf_payload_fn=leaf_payload, merge_fn=stream_merge,
                payload_nbytes=DaemonTrees.serialized_bytes,
                payload_nodes=DaemonTrees.node_count,
                on_daemon_failure="skip",
                config=ctx.stream_config or StreamConfig(seed=ctx.seed),
                faults=bind_injector())
        replay_s, kernel_s = span.seconds, stream_merge.seconds
        add("stream.reduce_wall_s", replay_s)
        add("stream.self_wall_s", replay_s - kernel_s)
        if payloads_equal(replayed.payload, batch.payload):
            add("stream.equals_batch", 1)
        else:
            layers.problems.append(f"{spec.label}: streamed payload is not "
                                   "arrays_equal to the batch reduce")
    add("merge.kernel_wall_s", kernel_s)
    add("trace.replay_merge_s", forest_span.seconds + replay_s)
    if not payloads_equal(replayed.payload, ctx.merge.payload):
        layers.problems.append(f"{spec.label}: replayed merge payload is "
                               "not arrays_equal to ctx.merge.payload")


def _replay_finalize(layers: _Layers, parent: Span, spec: SessionSpec,
                     ctx: SessionContext) -> None:
    """The body of ``FinalizePhase.run`` again: remap, then classes."""
    pair = ctx.merge.payload
    with layers.tracer.span("replay.finalize.remap", parent) as span:
        tree_2d = ctx.scheme.finalize(pair.tree_2d, ctx.task_map)
        tree_3d = ctx.scheme.finalize(pair.tree_3d, ctx.task_map)
    layers.add("finalize.remap_wall_s", span.seconds)
    with layers.tracer.span("replay.equivalence.classes", parent) as span:
        classes = triage_classes(tree_2d)
    layers.add("equivalence.classes_wall_s", span.seconds)
    if not (tree_2d.structurally_equal(ctx.tree_2d)
            and tree_3d.structurally_equal(ctx.tree_3d)
            and classes == ctx.classes):
        layers.problems.append(f"{spec.label}: replayed finalize output "
                               "differs from ctx.tree_2d/3d/classes")


def suite_layer(layers: _Layers, runner: Runner) -> None:
    """One pooled ``ScenarioSuite.run`` and what crossed the pool."""
    values = layers.values
    with layers.tracer.span("suite.run"):
        round_ = runner.round()
    walls = [s.wall_s for s in round_.sessions]
    values["suite.wall_s"] = round_.wall_s
    values["suite.worker_busy_s"] = sum(walls)
    values["suite.pool_efficiency"] = \
        sum(walls) / (runner.workers * round_.wall_s)
    values["suite.session_wall_s_p90"] = \
        statistics.quantiles(walls, n=10)[8]
    # The benchmark pickles each outcome again, as the pool did.
    start = time.perf_counter()
    values["suite.outcome_pickle_bytes"] = sum(
        len(pickle.dumps(outcome)) for outcome in round_.report)
    values["suite.outcome_pickle_wall_s"] = time.perf_counter() - start
    layers.problems += [s.error for s in round_.sessions if s.error]


#: share of ``seconds`` spent on untraced inline rounds first: their
#: median wall is the base of ``trace.overhead_ratio``
REFERENCE_SHARE = 0.25

def run_traced(runner: Runner, seconds: float, metric_names: List[str]):
    """Reference rounds, then traced iterations until ``seconds`` passed.

    An iteration traces every spec of the workload once (plus one pooled
    suite run on a pooled workload); a layer's value is its sum over the
    specs, and the reported metric the median over iterations.  Returns
    ``(metrics, attempted, problems, tracer)``.
    """
    workload, specs = runner.workload, runner.specs
    tracer = Tracer()
    problems: List[str] = []
    attempted = 0
    if workload.pooled:
        # Set-up warmed the pool's workers; the traced sessions run in
        # this process, whose caches are still cold.
        for spec in specs:
            runner.run_inline(spec, workload.stream)
    started = time.perf_counter()
    reference = []
    while not reference or \
            time.perf_counter() - started < REFERENCE_SHARE * seconds:
        sessions = [runner.run_inline(s, workload.stream) for s in specs]
        problems += [s.error for s in sessions if s.error]
        attempted += len(sessions)
        reference.append(sum(s.wall_s for s in sessions))
    iterations: List[Dict[str, float]] = []
    while not iterations or time.perf_counter() - started < seconds:
        layers = _Layers(tracer, problems)
        for spec in specs:
            attempted += 1
            traced_session(layers, spec, workload.stream, attempted)
        if problems:
            break
        if workload.pooled:
            suite_layer(layers, runner)
        values = layers.values
        hits = values["forest.struct_cache_hits"]
        builds = hits + values["forest.struct_cache_misses"]
        values["forest.struct_cache_hit_ratio"] = hits / builds
        values["forest.replay_vs_phase_ratio"] = \
            values["trace.replay_merge_s"] / values["trace.merge_phase_s"]
        values["trace.reconcile_ratio"] = \
            values["trace.phase_spans_s"] / values["trace.session_span_s"]
        values["trace.overhead_ratio"] = \
            values["trace.session_span_s"] / statistics.median(reference)
        iterations.append(values)
    # A layer this workload never enters reports 0 (no work, no time).
    metrics = {name: statistics.median(v.get(name, 0.0) for v in iterations)
               for name in metric_names} if iterations else {}
    return metrics, attempted, problems, tracer
