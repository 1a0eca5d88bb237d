"""Figure 7 — optimized versus original bit vector merge time (BG/L).

The payoff figure of Section V: with hierarchical task lists the merge
"exhibits logarithmic scaling, in contrast to the original linear
scaling"; and virtual-node-mode runs beat co-processor-mode runs at equal
task counts "because the merge performance is bound not only by the task
count, but also by the number of daemons".  Both properties must emerge
from the data volumes, not from assertions.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.merge import DenseLabelScheme, HierarchicalLabelScheme
from repro.experiments.common import ExperimentResult, Row, timed_merge
from repro.machine.bgl import BGLMachine
from repro.mpi.stacks import BGLStackModel
from repro.statbench import ring_hang_states
from repro.tbon.topology import Topology

__all__ = ["run", "SCALES"]

#: I/O-node (daemon) counts; tasks = 64x (CO) / 128x (VN).
SCALES: Sequence[int] = (64, 128, 256, 512, 1024, 1664)
QUICK_SCALES: Sequence[int] = (64, 256)


def run(quick: bool = False,
        scales: Optional[Sequence[int]] = None,
        seed: int = 208_000) -> ExperimentResult:
    """Regenerate all four series (scheme x mode) on 2-deep trees."""
    scales = scales or (QUICK_SCALES if quick else SCALES)
    result = ExperimentResult(
        figure="Figure 7",
        title="optimized versus original bit vector merge time (BG/L, "
              "2-deep)",
        xlabel="MPI tasks",
        ylabel="2D+3D merge seconds",
    )
    stack_model = BGLStackModel()
    for mode in ("co", "vn"):
        for scheme_name in ("original", "optimized"):
            series = f"{scheme_name} {mode.upper()}"
            for daemons in scales:
                machine = BGLMachine.with_io_nodes(daemons, mode)
                scheme = (DenseLabelScheme(machine.total_tasks)
                          if scheme_name == "original"
                          else HierarchicalLabelScheme())
                topo = Topology.bgl_two_deep(daemons)
                merge = timed_merge(machine, topo, scheme, stack_model,
                                    ring_hang_states(machine.total_tasks),
                                    seed=seed)
                result.rows.append(Row(series, machine.total_tasks,
                                       merge.sim_time))
    result.notes.append(
        "paper anchors: optimized logarithmic vs original linear; VN "
        "faster than CO at equal task counts (daemon-count bound); remap "
        "adds 0.66 s at 208K tasks (see claims)")
    result.notes.append(
        "beyond 208K: `stat-repro bench merge --scale million` extends "
        "this workload to 8,192 daemons / 1,048,576 tasks (hierarchical "
        "scheme) and records the kernel timings in BENCH_merge.json")
    return result
