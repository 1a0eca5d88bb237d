"""Ablation A4 — merge robustness under daemon failures.

At full scale some of 1,664 daemons *will* be unreachable (dead I/O
nodes, wedged CIOD).  This ablation kills growing fractions of the daemon
population during a 2-deep merge (each dead set declared as t=0 crashes
on a :class:`~repro.faults.plan.FaultPlan`) and measures (a) the completion time — dominated by the parent-side failure
detection timeout, not by the lost data — and (b) the coverage of the
resulting tree, verifying that exactly the dead daemons' tasks are
missing and nothing else.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.merge import HierarchicalLabelScheme
from repro.core.taskset import TaskMap
from repro.experiments.common import ExperimentResult, Row
from repro.faults.plan import FaultPlan
from repro.machine.bgl import BGLMachine
from repro.mpi.stacks import BGLStackModel
from repro.statbench import STATBenchEmulator, ring_hang_states
from repro.statbench.emulator import DaemonTrees
from repro.tbon.network import TBONetwork
from repro.tbon.topology import Topology

__all__ = ["run", "FAILURE_FRACTIONS"]

FAILURE_FRACTIONS: Sequence[float] = (0.0, 0.001, 0.01, 0.05, 0.10)
QUICK_FRACTIONS: Sequence[float] = (0.0, 0.05)


def run(quick: bool = False,
        fractions: Optional[Sequence[float]] = None,
        seed: int = 208_000) -> ExperimentResult:
    """Sweep the dead-daemon fraction at fixed scale."""
    fractions = fractions or (QUICK_FRACTIONS if quick else FAILURE_FRACTIONS)
    daemons = 64 if quick else 512
    machine = BGLMachine.with_io_nodes(daemons, "co")
    result = ExperimentResult(
        figure="Ablation A4",
        title=f"merge under daemon failures ({machine.describe()})",
        xlabel="fraction of daemons failed",
        ylabel="seconds / tasks covered",
    )
    task_map = TaskMap.block(machine.num_daemons, machine.tasks_per_daemon)
    scheme = HierarchicalLabelScheme()
    emulator = STATBenchEmulator(
        task_map, scheme, BGLStackModel(),
        ring_hang_states(machine.total_tasks), num_samples=5, seed=seed)
    topo = Topology.bgl_two_deep(daemons)
    rng = np.random.default_rng(seed)

    for fraction in fractions:
        dead = set(rng.choice(daemons, size=int(round(fraction * daemons)),
                              replace=False).tolist())
        plan = FaultPlan(seed=seed).with_crashes(dead)
        net = TBONetwork(topo, machine)
        merge = net.reduce(emulator.daemon_trees, emulator.merge_filter(),
                           DaemonTrees.serialized_bytes,
                           DaemonTrees.node_count,
                           on_daemon_failure="skip",
                           failure_detect_s=5.0,
                           faults=plan.bind(daemons))
        final = scheme.finalize(merge.payload.tree_3d, task_map)
        covered: set = set()
        for _, label in final.edges():
            covered.update(label.to_ranks().tolist())
        expected = machine.total_tasks - sum(
            task_map.tasks_of(d) for d in dead)
        result.rows.append(Row("merge time", fraction, merge.sim_time,
                               note=f"{len(dead)} daemons dead"))
        result.rows.append(Row("tasks covered", fraction, len(covered),
                               unit="tasks",
                               note="exact" if len(covered) == expected
                               else "MISMATCH"))
    result.notes.append(
        "failure cost is the 5 s detection timeout, paid once in "
        "parallel — not proportional to the number of failures")
    return result
