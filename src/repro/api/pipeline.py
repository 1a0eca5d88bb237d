"""The composable session pipeline: launch → map_gather → stage → sample
→ merge → finalize.

This decomposes the historical ``STATFrontEnd.attach_and_analyze`` monolith
into six named phase objects sharing one :class:`SessionContext`.  Each
phase is individually invokable (``pipeline.run_phase("launch")``), the
whole chain is :meth:`SessionPipeline.run`, and observers get a hook
before and after every phase — enough for progress reporting and
wall-clock capture.  Faults are declared, not hooked: a
:class:`~repro.faults.plan.FaultPlan` on the context (``SessionSpec.faults``)
is the one way to say a daemon is dead; ``dead_daemons`` is an input the
merge phase parses into that plan.

The phase semantics and timing keys are *identical* to the monolith:
``launch``, ``map_gather``, ``sbrs`` (stage, only when SBRS is on),
``sample``, ``merge``, ``remap`` — a session driven through the pipeline
reproduces ``attach_and_analyze``'s ``STATResult.timings`` exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.equivalence import EquivalenceClass, triage_classes
from repro.core.merge import LabelScheme
from repro.core.sampling import SamplingConfig, SamplingTimeReport, \
    time_sampling_phase
from repro.core.taskset import TaskMap
from repro.faults.inject import FaultInjector
from repro.faults.plan import DegradationReport, FaultPlan
from repro.fs.binary import StagedFile, stage_binaries
from repro.fs.lustre import LustreServer
from repro.fs.mtab import MountTable
from repro.fs.nfs import NFSServer
from repro.fs.ramdisk import RamDisk
from repro.fs.sbrs import SBRS, RelocationReport
from repro.fs.server import LocalDisk
from repro.launch.base import Launcher, LaunchResult
from repro.machine.base import MachineModel
from repro.mpi.stacks import StackModel
from repro.perf.counters import (
    PERF,
    pipeline_runs,
    pipeline_wall_seconds,
)
from repro.sim.engine import Engine
from repro.statbench.emulator import DaemonTrees, STATBenchEmulator
from repro.statbench.generator import StateProvider
from repro.tbon.network import ReduceResult, TBONetwork
from repro.tbon.streaming import StreamConfig, StreamingTBON
from repro.tbon.topology import Topology

__all__ = [
    "SessionContext",
    "Phase",
    "PhaseObserver",
    "TimingObserver",
    "ProgressObserver",
    "SessionPipeline",
    "PipelineError",
    "PHASES",
]


class PipelineError(RuntimeError):
    """A phase was invoked out of order or twice."""


@dataclass
class SessionContext:
    """Everything one session reads and produces, shared across phases.

    The first block is configuration (filled before the run); the second
    is the per-phase products.  Observers may mutate configuration fields
    that later phases read — e.g. adding to ``dead_daemons`` before the
    merge phase models daemons dying mid-session (the merge phase turns
    them into t=0 crashes on ``fault_plan``).
    """

    # -- configuration ----------------------------------------------------
    machine: MachineModel
    topology: Topology
    scheme: LabelScheme
    launcher: Launcher
    stack_model: StackModel
    state_of: StateProvider
    seed: int = 208_000
    num_samples: int = 10
    staging: str = "nfs"
    use_sbrs: bool = False
    sampling_config: Optional[SamplingConfig] = None
    mapping: str = "cyclic"
    dead_daemons: Set[int] = field(default_factory=set)
    #: event-driven merge: daemons emit asynchronously and interior
    #: nodes fold arrivals incrementally (bit-identical final tree)
    stream: bool = False
    stream_config: Optional[StreamConfig] = None
    #: declarative seeded fault campaign; ``None`` / empty plan is a
    #: guaranteed no-op (bit-identical results)
    fault_plan: Optional[FaultPlan] = None

    # -- products (one per phase, in order) -------------------------------
    timings: Dict[str, float] = field(default_factory=dict)
    #: set by the pipeline around each phase so phases can emit
    #: :meth:`PhaseObserver.on_progress` events mid-run
    progress_sink: Optional[callable] = None
    launch: Optional[LaunchResult] = None
    task_map: Optional[TaskMap] = None
    map_gather: Optional[ReduceResult] = None
    engine: Optional[Engine] = None
    mtab: Optional[MountTable] = None
    files: Optional[List[StagedFile]] = None
    relocation: Optional[RelocationReport] = None
    config: Optional[SamplingConfig] = None
    sampling: Optional[SamplingTimeReport] = None
    emulator: Optional[STATBenchEmulator] = None
    #: a StreamResult (a ReduceResult subclass) when ``stream`` is on
    merge: Optional[ReduceResult] = None
    #: the bound injector when a non-empty fault plan ran the merge
    fault_injector: Optional[FaultInjector] = None
    tree_2d = None
    tree_3d = None
    classes: Optional[List[EquivalenceClass]] = None
    result: Optional["STATResult"] = None  # noqa: F821

    @property
    def total_seconds(self) -> float:
        """Simulated seconds across the phases run so far."""
        return sum(self.timings.values())


class PhaseObserver:
    """Hook points around every pipeline phase (all no-ops by default).

    Subclass and override any subset; observers run in registration order.
    ``on_phase_start`` may mutate the context (fault injection) or raise to
    abort the session.
    """

    def on_phase_start(self, phase: str, ctx: SessionContext) -> None:
        """Called before ``phase`` executes."""

    def on_phase_end(self, phase: str, ctx: SessionContext,
                     sim_seconds: float) -> None:
        """Called after ``phase``; ``sim_seconds`` is its simulated cost."""

    def on_progress(self, phase: str, ctx: SessionContext, event: str,
                    info: Dict[str, float]) -> None:
        """Called for in-phase progress events.

        The streaming merge emits ``"first_tree"`` when the earliest
        daemon payload enters the network (a best-effort snapshot is
        non-empty from then on) and ``"root_fold"`` on every front-end
        commit (``info`` carries ``covered``/``daemons`` counts).
        """

    def on_session_end(self, ctx: SessionContext) -> None:
        """Called once after the final phase of a full run."""


class TimingObserver(PhaseObserver):
    """Captures *wall-clock* seconds per phase (the simulator's own cost)."""

    def __init__(self) -> None:
        self.wall_seconds: Dict[str, float] = {}
        self._started: Dict[str, float] = {}

    def on_phase_start(self, phase: str, ctx: SessionContext) -> None:
        self._started[phase] = time.perf_counter()

    def on_phase_end(self, phase: str, ctx: SessionContext,
                     sim_seconds: float) -> None:
        start = self._started.pop(phase, None)
        if start is not None:
            self.wall_seconds[phase] = time.perf_counter() - start


class ProgressObserver(PhaseObserver):
    """Prints one line per phase through ``print_fn`` (default: print)."""

    def __init__(self, print_fn=print) -> None:
        self._print = print_fn

    def on_phase_start(self, phase: str, ctx: SessionContext) -> None:
        self._print(f"[{ctx.machine.name}] {phase} ...")

    def on_phase_end(self, phase: str, ctx: SessionContext,
                     sim_seconds: float) -> None:
        self._print(f"[{ctx.machine.name}] {phase} done "
                    f"({sim_seconds:.3f} simulated s)")

    def on_progress(self, phase: str, ctx: SessionContext, event: str,
                    info: Dict[str, float]) -> None:
        if event == "first_tree":
            self._print(f"[{ctx.machine.name}] {phase}: first tree at "
                        f"t={info['sim_time']:.4f}s")
        elif event == "root_fold":
            self._print(f"[{ctx.machine.name}] {phase}: "
                        f"{int(info['covered'])}/{int(info['daemons'])} "
                        f"daemons merged at t={info['sim_time']:.4f}s")


class Phase:
    """One named, individually-invokable pipeline step."""

    name = "abstract"

    def run(self, ctx: SessionContext) -> None:
        """Execute against ``ctx``, recording products and timings."""
        raise NotImplementedError


class LaunchPhase(Phase):
    """Phase 1 — daemons + CPs + connect (+ app under tool control on BG/L)."""

    name = "launch"

    def run(self, ctx: SessionContext) -> None:
        ctx.launch = ctx.launcher.launch(ctx.machine, ctx.topology,
                                         mapping=ctx.mapping)
        ctx.timings["launch"] = ctx.launch.sim_time
        assert ctx.launch.process_table is not None
        ctx.task_map = ctx.launch.process_table.task_map


class MapGatherPhase(Phase):
    """Setup — gather the rank map once over the tree (Section V-B)."""

    name = "map_gather"

    def run(self, ctx: SessionContext) -> None:
        task_map = ctx.task_map
        network = TBONetwork(ctx.topology, ctx.machine)
        # 16 bytes per task: rank, daemon, slot, pid.
        ctx.map_gather = network.reduce(
            leaf_payload_fn=lambda d: task_map.tasks_of(d) * 16,
            merge_fn=lambda sizes: sum(sizes),
            payload_nbytes=lambda nbytes: nbytes,
        )
        ctx.timings["map_gather"] = ctx.map_gather.sim_time


class StagePhase(Phase):
    """File-system world + optional SBRS relocation (Section VI-B)."""

    name = "stage"

    def run(self, ctx: SessionContext) -> None:
        ctx.engine = Engine()
        ctx.mtab = MountTable({
            "nfs": NFSServer(ctx.engine),
            "lustre": LustreServer(ctx.engine),
            "ramdisk": RamDisk(),
            "localdisk": LocalDisk(),
        })
        ctx.files = stage_binaries(ctx.machine.binary,
                                   default_mount=ctx.staging)
        if ctx.use_sbrs:
            sbrs = SBRS(ctx.mtab)
            ctx.relocation = sbrs.relocate(ctx.engine, ctx.files,
                                           ctx.machine.num_daemons)
            ctx.files = sbrs.effective_files(ctx.files)
            ctx.timings["sbrs"] = ctx.relocation.total_overhead


class SamplePhase(Phase):
    """Phase 2 — daemon sampling (timing model; real trees come next)."""

    name = "sample"

    def run(self, ctx: SessionContext) -> None:
        ctx.config = ctx.sampling_config or SamplingConfig(
            num_samples=ctx.num_samples,
            application_stopped=ctx.use_sbrs,
        )
        ctx.sampling = time_sampling_phase(
            ctx.machine, ctx.mtab, ctx.files, ctx.stack_model, ctx.config,
            engine=ctx.engine, seed=ctx.seed)
        ctx.timings["sample"] = ctx.sampling.max_seconds


class MergePhase(Phase):
    """Phase 3 — TBO̅N merge of the locally merged 2D+3D trees."""

    name = "merge"

    def run(self, ctx: SessionContext) -> None:
        ctx.emulator = STATBenchEmulator(
            ctx.task_map, ctx.scheme, ctx.stack_model, ctx.state_of,
            num_samples=ctx.config.num_samples,
            threads_per_process=ctx.config.threads_per_process,
            seed=ctx.seed)
        # The one declaration of a dead daemon is a crash on the fault
        # plan: ``dead_daemons`` (spec field, front-end argument, or an
        # observer's edit) parses into t=0 crashes here and nowhere else.
        if ctx.dead_daemons:
            ctx.fault_plan = (ctx.fault_plan or FaultPlan(seed=ctx.seed)) \
                .with_crashes(ctx.dead_daemons)
        injector = None
        if ctx.fault_plan is not None and not ctx.fault_plan.empty:
            injector = ctx.fault_injector = \
                ctx.fault_plan.bind(len(ctx.task_map))
        dead = injector.dead_at_start() if injector is not None else ()
        emulator = ctx.emulator

        # Build the whole forest up front through the vectorized forest
        # path (bit-identical to per-rank daemon_trees).  Daemons gone
        # before the merge starts are excluded, so emulation counters
        # match the lazy per-rank path; the injector declares them dead
        # before their payload is ever asked for.
        live = [d for d in range(len(ctx.task_map)) if d not in dead]
        forest = dict(zip(live, emulator.build_forest(daemon_ids=live)))
        reduction = dict(
            leaf_payload_fn=forest.__getitem__,
            merge_fn=emulator.merge_filter(),
            payload_nbytes=DaemonTrees.serialized_bytes,
            payload_nodes=DaemonTrees.node_count,
            on_daemon_failure="skip",
            faults=injector,
        )
        if ctx.stream:
            # Event-driven variant: asynchronous emissions, incremental
            # folds, missing-ranklist degradation.  Bit-identical final
            # tree.
            ctx.merge = StreamingTBON(ctx.topology, ctx.machine).reduce(
                **reduction,
                config=ctx.stream_config or StreamConfig(seed=ctx.seed),
                progress_fn=ctx.progress_sink)
        else:
            ctx.merge = TBONetwork(ctx.topology, ctx.machine).reduce(
                **reduction)
        ctx.timings["merge"] = ctx.merge.sim_time


class FinalizePhase(Phase):
    """Phase 4 — remap to rank order, triage classes, build the result."""

    name = "finalize"

    def run(self, ctx: SessionContext) -> None:
        from repro.core.frontend import STATResult, remap_seconds

        pair: DaemonTrees = ctx.merge.payload
        ctx.tree_2d = ctx.scheme.finalize(pair.tree_2d, ctx.task_map)
        ctx.tree_3d = ctx.scheme.finalize(pair.tree_3d, ctx.task_map)
        ctx.timings["remap"] = remap_seconds(ctx.scheme, pair, ctx.task_map)
        ctx.classes = triage_classes(ctx.tree_2d)
        ctx.result = STATResult(
            tree_2d=ctx.tree_2d,
            tree_3d=ctx.tree_3d,
            classes=ctx.classes,
            launch=ctx.launch,
            sampling=ctx.sampling,
            # the merged pair is consumed above; the result keeps only
            # the reduction's accounting (``ctx.merge`` keeps the trees)
            merge=replace(ctx.merge, payload=None),
            relocation=ctx.relocation,
            timings=ctx.timings,
            degradation=DegradationReport.from_merge(
                ctx.merge, daemons=len(ctx.task_map),
                injector=ctx.fault_injector),
        )


#: The canonical phase order.
PHASES: Tuple[Phase, ...] = (
    LaunchPhase(), MapGatherPhase(), StagePhase(), SamplePhase(),
    MergePhase(), FinalizePhase())

_PHASE_INDEX = {p.name: i for i, p in enumerate(PHASES)}


class SessionPipeline:
    """Drives the phases of one session over a shared context.

    Phases run strictly in order; :meth:`run` executes them all,
    :meth:`run_until` stops after a named phase, and :meth:`run_phase`
    advances exactly one step.  ``pipeline.ctx`` holds every product.
    """

    def __init__(self, ctx: SessionContext,
                 observers: Sequence[PhaseObserver] = ()) -> None:
        self.ctx = ctx
        self.observers: List[PhaseObserver] = list(observers)
        self._next = 0

    @classmethod
    def from_spec(cls, spec: "SessionSpec",  # noqa: F821
                  observers: Sequence[PhaseObserver] = ()) -> \
            "SessionPipeline":
        """Resolve a declarative spec into a ready-to-run pipeline."""
        from repro.core.frontend import STATFrontEnd
        machine = spec.build_machine()
        topology = spec.build_topology(machine) or \
            STATFrontEnd.default_topology(machine)
        launcher = spec.build_launcher(machine) or \
            STATFrontEnd.default_launcher(machine)
        ctx = SessionContext(
            machine=machine,
            topology=topology,
            scheme=spec.build_scheme(machine),
            launcher=launcher,
            stack_model=STATFrontEnd.default_stack_model(machine),
            state_of=spec.build_state_provider(machine),
            seed=spec.seed,
            num_samples=spec.num_samples,
            staging=spec.staging,
            use_sbrs=spec.use_sbrs,
            sampling_config=spec.sampling,
            mapping=spec.mapping,
            dead_daemons=set(spec.dead_daemons),
            fault_plan=spec.faults,
        )
        return cls(ctx, observers=observers)

    # -- introspection -----------------------------------------------------
    @property
    def completed(self) -> Tuple[str, ...]:
        """Names of the phases already run."""
        return tuple(p.name for p in PHASES[:self._next])

    @property
    def remaining(self) -> Tuple[str, ...]:
        """Names of the phases not yet run, in order."""
        return tuple(p.name for p in PHASES[self._next:])

    def add_observer(self, observer: PhaseObserver) -> None:
        """Attach another observer (applies to phases not yet run)."""
        self.observers.append(observer)

    # -- execution ---------------------------------------------------------
    def run_phase(self, name: str) -> SessionContext:
        """Run exactly the next phase, which must be ``name``."""
        index = _PHASE_INDEX.get(name)
        if index is None:
            raise PipelineError(f"unknown phase {name!r}; "
                                f"phases: {tuple(_PHASE_INDEX)}")
        if index < self._next:
            raise PipelineError(f"phase {name!r} already ran")
        if index > self._next:
            raise PipelineError(
                f"phase {name!r} needs {PHASES[self._next].name!r} first")
        phase = PHASES[index]
        before = dict(self.ctx.timings)
        for obs in self.observers:
            obs.on_phase_start(phase.name, self.ctx)

        def emit(event: str, info: Dict[str, float]) -> None:
            for obs in self.observers:
                obs.on_progress(phase.name, self.ctx, event, info)

        self.ctx.progress_sink = emit
        try:
            with PERF.timer(pipeline_wall_seconds(phase.name)):
                phase.run(self.ctx)
        finally:
            self.ctx.progress_sink = None
        PERF.add(pipeline_runs(phase.name))
        sim = sum(v for k, v in self.ctx.timings.items() if k not in before)
        for obs in self.observers:
            obs.on_phase_end(phase.name, self.ctx, sim)
        self._next = index + 1
        if self._next == len(PHASES):
            for obs in self.observers:
                obs.on_session_end(self.ctx)
        return self.ctx

    def run_until(self, name: str) -> SessionContext:
        """Run pending phases through ``name`` (inclusive)."""
        index = _PHASE_INDEX.get(name)
        if index is None:
            raise PipelineError(f"unknown phase {name!r}; "
                                f"phases: {tuple(_PHASE_INDEX)}")
        if index < self._next - 1:
            raise PipelineError(f"phase {name!r} already ran")
        while self._next <= index:
            self.run_phase(PHASES[self._next].name)
        return self.ctx

    def run(self) -> "STATResult":  # noqa: F821
        """Run every pending phase; returns the finished result."""
        self.run_until(PHASES[-1].name)
        return self.ctx.result
