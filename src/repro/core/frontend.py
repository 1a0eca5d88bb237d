"""The STAT front end: the full launch → sample → merge → report pipeline.

"Conceptually, STAT has three main components: the front end, the tool
daemons, and the stack trace analysis routine" (Section II).  The front
end implemented here orchestrates one complete debugging session on a
simulated platform and reports the paper's three measured phases
separately — "the launch time of the daemons; the daemons' local gathering
and aggregation of stack traces; and the aggregation of locally-merged
results to the final call graph prefix tree at the front end"
(Section III) — plus the Section V-C remap step.

Since the API redesign the actual phase execution lives in
:mod:`repro.api.pipeline`; :class:`STATFrontEnd` remains the stable,
backwards-compatible entry point (``attach_and_analyze`` drives the same
six phases and returns identical timings), and gains the advertised
high-level :meth:`STATFrontEnd.run` that accepts application workload
objects such as :class:`repro.apps.ring.RingApp`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.equivalence import EquivalenceClass
from repro.core.merge import (
    DenseLabelScheme,
    HierarchicalLabelScheme,
    LabelScheme,
)
from repro.core.sampling import SamplingConfig, SamplingTimeReport
from repro.core.taskset import TaskMap
from repro.core.treearrays import TreeArrays
from repro.fs.sbrs import RelocationReport
from repro.launch.base import Launcher, LaunchResult
from repro.launch.ciod import BglSystemLauncher
from repro.launch.launchmon import LaunchMonLauncher
from repro.machine.base import MachineModel
from repro.mpi.runtime import MPIRuntime, RankState
from repro.mpi.stacks import BGLStackModel, LinuxStackModel, StackModel
from repro.sim.engine import Engine
from repro.statbench.emulator import DaemonTrees
from repro.tbon.network import ReduceResult
from repro.tbon.topology import Topology

__all__ = ["STATFrontEnd", "STATResult", "remap_seconds"]

#: Simulated remap cost per (label, task) bit — calibrated so the full
#: 208K-task remap of a Figure-1-sized tree (~38 edge labels across the 2D
#: and 3D trees) costs ~0.66 s (Section V-C).
REMAP_SECONDS_PER_LABEL_BIT = 8.0e-8
REMAP_SECONDS_PER_LABEL = 5.0e-6


@dataclass
class STATResult:
    """Everything one STAT session produced."""

    #: rank-ordered, dense-labelled 2D tree (last sample)
    tree_2d: TreeArrays
    #: rank-ordered, dense-labelled 3D tree (all samples)
    tree_3d: TreeArrays
    #: equivalence classes from the 2D tree, largest first
    classes: List[EquivalenceClass]
    launch: LaunchResult
    sampling: SamplingTimeReport
    #: the reduction's accounting; ``payload`` is ``None`` (the merged
    #: pair lives on as ``tree_2d`` / ``tree_3d``)
    merge: ReduceResult
    relocation: Optional[RelocationReport] = None
    #: simulated seconds per phase
    timings: Dict[str, float] = field(default_factory=dict)
    #: structured robustness account (coverage, retries, faults
    #: absorbed) — see :class:`repro.faults.plan.DegradationReport`
    degradation: Optional["DegradationReport"] = None  # noqa: F821

    @property
    def total_seconds(self) -> float:
        """End-to-end simulated session time."""
        return sum(self.timings.values())

    def summary(self) -> str:
        """Multi-line phase/classes report."""
        lines = [
            "STAT session summary",
            *(f"  {k:<12} {v:10.3f} s" for k, v in self.timings.items()),
            f"  {'total':<12} {self.total_seconds:10.3f} s",
            f"  equivalence classes: {len(self.classes)}",
        ]
        for cls in self.classes:
            lines.append(f"    {cls.label()}")
        return "\n".join(lines)


def remap_seconds(scheme: LabelScheme, pair: DaemonTrees,
                  task_map: TaskMap) -> float:
    """Simulated cost of the front-end remap step (Section V-C)."""
    if isinstance(scheme, DenseLabelScheme):
        return 0.0  # dense labels are already rank-ordered
    labels = pair.tree_2d.node_count() + pair.tree_3d.node_count()
    return labels * (REMAP_SECONDS_PER_LABEL
                     + REMAP_SECONDS_PER_LABEL_BIT * task_map.total_tasks)


class STATFrontEnd:
    """One tool session bound to a machine, topology, and label scheme."""

    def __init__(self, machine: MachineModel,
                 topology: Optional[Topology] = None,
                 scheme: Optional[LabelScheme] = None,
                 launcher: Optional[Launcher] = None,
                 stack_model: Optional[StackModel] = None,
                 seed: int = 208_000) -> None:
        self.machine = machine
        self.topology = topology or self.default_topology(machine)
        self.scheme = scheme or HierarchicalLabelScheme()
        self.launcher = launcher or self.default_launcher(machine)
        self.stack_model = stack_model or self.default_stack_model(machine)
        self.seed = seed

    # -- platform defaults ---------------------------------------------------
    @staticmethod
    def default_topology(machine: MachineModel) -> Topology:
        """2-deep balanced for >64 daemons, flat otherwise."""
        d = machine.num_daemons
        if d <= 64:
            return Topology.flat(d)
        if machine.name.startswith("bgl"):
            return Topology.bgl_two_deep(d)
        return Topology.balanced(d, 2)

    @staticmethod
    def default_launcher(machine: MachineModel) -> Launcher:
        """BG/L needs its control system; clusters use LaunchMON."""
        if machine.name.startswith("bgl"):
            return BglSystemLauncher(patched=True)
        return LaunchMonLauncher()

    @staticmethod
    def default_stack_model(machine: MachineModel) -> StackModel:
        """Frame vocabulary matching the platform."""
        if machine.name.startswith("bgl"):
            return BGLStackModel()
        return LinuxStackModel()

    # -- application helpers ---------------------------------------------------
    def run_application(self, program: Callable,
                        max_steps: Optional[int] = None) -> MPIRuntime:
        """Run the target app on a fresh engine until it hangs/finishes."""
        runtime = MPIRuntime(Engine(), self.machine.total_tasks)
        runtime.run_program(program, max_steps=max_steps)
        return runtime

    # -- the debugging session ---------------------------------------------------
    def pipeline(self, state_of: Callable[[int], RankState],
                 num_samples: int = 10,
                 staging: str = "nfs",
                 use_sbrs: bool = False,
                 sampling_config: Optional[SamplingConfig] = None,
                 mapping: str = "cyclic",
                 dead_daemons: Optional[set] = None,
                 observers: Sequence = ()) -> "SessionPipeline":  # noqa: F821
        """A ready-to-run :class:`~repro.api.pipeline.SessionPipeline`.

        Same parameters as :meth:`attach_and_analyze`, but the phases are
        yours to drive — run them one at a time, attach observers, inject
        faults between phases.
        """
        from repro.api.pipeline import SessionContext, SessionPipeline
        ctx = SessionContext(
            machine=self.machine,
            topology=self.topology,
            scheme=self.scheme,
            launcher=self.launcher,
            stack_model=self.stack_model,
            state_of=state_of,
            seed=self.seed,
            num_samples=num_samples,
            staging=staging,
            use_sbrs=use_sbrs,
            sampling_config=sampling_config,
            mapping=mapping,
            dead_daemons=set(dead_daemons or ()),
        )
        return SessionPipeline(ctx, observers=observers)

    def attach_and_analyze(self, state_of: Callable[[int], RankState],
                           num_samples: int = 10,
                           staging: str = "nfs",
                           use_sbrs: bool = False,
                           sampling_config: Optional[SamplingConfig] = None,
                           mapping: str = "cyclic",
                           dead_daemons: Optional[set] = None) -> STATResult:
        """One full session against a (hung) application.

        Parameters
        ----------
        state_of:
            Rank-state provider — either ``runtime.state_of`` from a live
            :class:`~repro.mpi.runtime.MPIRuntime` or a
            :mod:`repro.statbench` generator.
        staging:
            Mount the binaries start on (``"nfs"``, ``"lustre"``,
            ``"localdisk"``).
        use_sbrs:
            Relocate shared binaries to RAM disk first (Section VI-B) —
            implies SIGSTOPping the application during sampling.
        mapping:
            Resource-manager rank placement; ``"cyclic"`` (non-rank-order)
            exercises the remap step like the paper's Figure 6.
        dead_daemons:
            Daemon ids that died after launch; the merge proceeds without
            their subtrees (degraded session), their tasks are absent from
            the trees, and ``result.merge.missing_daemons`` records them.
        """
        return self.pipeline(
            state_of,
            num_samples=num_samples,
            staging=staging,
            use_sbrs=use_sbrs,
            sampling_config=sampling_config,
            mapping=mapping,
            dead_daemons=dead_daemons,
        ).run()

    def run(self, workload, **kwargs) -> STATResult:
        """One full session against an application workload object.

        ``workload`` is either an object exposing ``state_provider()``
        (e.g. :meth:`repro.apps.ring.RingApp.with_hang`) or a plain
        ``state_of(rank)`` callable; remaining keyword arguments are those
        of :meth:`attach_and_analyze`.
        """
        provider = getattr(workload, "state_provider", None)
        if callable(provider):
            total = getattr(workload, "total_tasks", None)
            if total is not None and total != self.machine.total_tasks:
                raise ValueError(
                    f"workload sized for {total} tasks but "
                    f"{self.machine.name} runs {self.machine.total_tasks}")
            state_of = provider()
        elif callable(workload):
            state_of = workload
        else:
            raise TypeError(
                "workload must expose state_provider() or be a "
                f"state_of(rank) callable, got {type(workload).__name__}")
        return self.attach_and_analyze(state_of, **kwargs)

    def debug_hung_application(self, program: Callable,
                               **kwargs) -> STATResult:
        """Convenience: run the app, detect the hang, attach, analyze."""
        runtime = self.run_application(program)
        if not runtime.unfinished_ranks():
            raise RuntimeError(
                "application completed; nothing to debug "
                "(inject a bug, or call attach_and_analyze directly)")
        return self.attach_and_analyze(runtime.state_of, **kwargs)
