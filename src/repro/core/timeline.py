"""Time-series sampling of a *running* application.

The "time" axis of the 3D trace-space-time tree comes from sampling the
same tasks at several instants.  Against a hung application the variation
is only the progress engine's polling depth; against a **running**
application the tasks genuinely move between states — compute, send,
waitall, barrier — and the 3D tree records the union of behaviours over
the window, exactly what STAT's users read to see *where time goes*.

:class:`TimelineSampler` interleaves the application's discrete-event
execution with sampling pauses: run the engine to t₁, walk every rank,
resume to t₂, walk again, …  This mirrors the real tool, which stops and
resumes the processes around each walk.  The walks are the session's
own sampler: :func:`~repro.core.forest.build_forest` queries its state
provider once per instant, in instant order, so the provider advances
the engine between queries.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np

from repro.core.forest import build_forest
from repro.core.merge import LabelScheme
from repro.core.taskset import TaskMap
from repro.core.treearrays import TreeArrays
from repro.machine.base import MachineModel
from repro.mpi.runtime import MPIRuntime
from repro.mpi.stacks import StackModel
from repro.sim.engine import Engine
from repro.sim.process import Process
from repro.sim.random import SeedStream
from repro.statbench.emulator import _interned_states

__all__ = ["TimelineSampler", "TimelineResult"]


class TimelineResult:
    """Everything one timeline run produced."""

    __slots__ = ("runtime", "sample_times", "tree_2d", "tree_3d",
                 "states_seen")

    def __init__(self, runtime: MPIRuntime, sample_times: List[float],
                 tree_2d: TreeArrays, tree_3d: TreeArrays,
                 states_seen: List[set]) -> None:
        self.runtime = runtime
        self.sample_times = sample_times
        #: merged 2D tree of the *last* instant
        self.tree_2d = tree_2d
        #: merged 3D tree across all instants
        self.tree_3d = tree_3d
        #: per-instant sets of observed state kinds (diagnostics)
        self.states_seen = states_seen

    @property
    def hung(self) -> bool:
        """True if some ranks had not completed by the last sample."""
        return bool(self.runtime.unfinished_ranks())


class TimelineSampler:
    """Sample a live application at chosen simulated instants."""

    def __init__(self, machine: MachineModel, task_map: TaskMap,
                 scheme: LabelScheme, stack_model: StackModel,
                 seed: int = 208_000) -> None:
        if task_map.total_tasks != machine.total_tasks:
            raise ValueError(
                f"task map covers {task_map.total_tasks} tasks but the "
                f"machine runs {machine.total_tasks}")
        self.machine = machine
        self.task_map = task_map
        self.scheme = scheme
        self.stack_model = stack_model
        self.seed = seed

    def run(self, program: Callable,
            sample_times: Sequence[float]) -> TimelineResult:
        """Execute ``program`` and sample at each time in ``sample_times``.

        Times must be strictly increasing.  After the last sample the
        application is left wherever it is (finished or hung); the
        returned trees merge all daemons' local trees.
        """
        times = list(sample_times)
        if not times:
            raise ValueError("need at least one sample time")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("sample times must be strictly increasing")

        engine = Engine()
        runtime = MPIRuntime(engine, self.machine.total_tasks)

        def wrapped(ctx):
            ctx._set_state("compute", "main")
            result = yield from program(ctx)
            ctx._set_state("done", "exited")
            return result

        for rank, ctx in enumerate(runtime.contexts):
            runtime.processes[rank] = Process(engine, wrapped(ctx),
                                              name=f"rank{rank}")

        instants = iter(times)
        states_seen: List[set] = []

        def states_array(ranks: np.ndarray) -> np.ndarray:
            engine.run(until=next(instants))
            states_seen.append({runtime.state_of(rank).kind
                                for rank in range(runtime.size)})
            return _interned_states(runtime.state_of, ranks)

        walks = SeedStream(self.seed).child("timeline").child("walks")
        pairs = build_forest(
            self.task_map, self.scheme, self.stack_model, states_array,
            len(times), walks.root_seed,
            daemon_ids=sorted(self.task_map.daemons()))
        trees_2d, trees_3d = zip(*pairs)
        return TimelineResult(
            runtime, times,
            self.scheme.finalize(self.scheme.merge(trees_2d), self.task_map),
            self.scheme.finalize(self.scheme.merge(trees_3d), self.task_map),
            states_seen,
        )
