"""Scalar claims embedded in the paper's prose, each reproduced in place.

* C1 (Section V-C): the optimized representation's remap step costs
  **0.66 s at 208K tasks**.
* C2 (Section VI-B): SBRS relocates the 10 KB executable plus the 4 MB MPI
  library to 128 nodes in **0.088 s**.
* C3 (Section IV-C): LaunchMON starts **512 daemons in 5.6 s**, where
  serial spawning "would have taken over 2 minutes".
* C4 (Section IV-A): the pre-patch process-table packing used ``strcat``,
  "which scans the buffer for the string termination character" — the real
  quadratic-vs-linear packing gap is measured on live tables.
"""

from __future__ import annotations

import time

from repro.core.frontend import REMAP_SECONDS_PER_LABEL, \
    REMAP_SECONDS_PER_LABEL_BIT
from repro.core.merge import HierarchicalLabelScheme
from repro.core.taskset import RankRemapper, TaskMap
from repro.experiments.common import ExperimentResult, Row, timed_merge, \
    timed_sampling
from repro.launch.launchmon import LaunchMonLauncher
from repro.launch.process_table import build_process_table, pack_table
from repro.launch.rsh import SerialRshLauncher
from repro.machine.atlas import AtlasMachine
from repro.machine.bgl import BGLMachine
from repro.mpi.stacks import BGLStackModel, LinuxStackModel
from repro.statbench import ring_hang_states
from repro.tbon.topology import Topology

__all__ = ["run"]


def _remap_rows(quick: bool, seed: int) -> list:
    """C1: simulated and real remap cost at (scaled) 208K."""
    daemons = 128 if quick else 1664
    machine = BGLMachine.with_io_nodes(daemons, "vn")
    merge = timed_merge(machine, Topology.bgl_two_deep(daemons),
                        HierarchicalLabelScheme(), BGLStackModel(),
                        ring_hang_states(machine.total_tasks), seed=seed)
    pair = merge.payload
    labels = pair.tree_2d.node_count() + pair.tree_3d.node_count()
    simulated = labels * (REMAP_SECONDS_PER_LABEL
                          + REMAP_SECONDS_PER_LABEL_BIT * machine.total_tasks)
    # Real wall-clock of actually remapping every 3D label.
    task_map = TaskMap.block(machine.num_daemons, machine.tasks_per_daemon)
    remapper = RankRemapper(pair.tree_3d.layout, task_map)
    t0 = time.perf_counter()
    remapper.remap_rows(pair.tree_3d.labels[pair.tree_3d.label_refs])
    wall = time.perf_counter() - t0
    return [
        Row("C1 remap (simulated)", machine.total_tasks, simulated,
            note="paper: 0.66 s at 208K tasks"),
        Row("C1 remap (this host, wall)", machine.total_tasks, wall),
    ]


def _sbrs_rows(seed: int) -> list:
    """C2: relocation overhead for exe+libmpi to 128 nodes."""
    machine = AtlasMachine.with_nodes(128, libraries_on_nfs=False)
    _, relocation = timed_sampling(machine, LinuxStackModel(),
                                   staging="nfs", use_sbrs=True, seed=seed)
    assert relocation is not None
    return [
        Row("C2 SBRS relocation", 128, relocation.sim_time,
            note=f"paper: 0.088 s for "
                 f"{relocation.bytes_broadcast / 1e6:.2f} MB to 128 nodes"),
    ]


def _launch_rows() -> list:
    """C3: LaunchMON vs (extrapolated) serial at 512 daemons."""
    machine = AtlasMachine.with_nodes(512)
    topo = Topology.flat(512)
    lm = LaunchMonLauncher().launch(machine, topo).sim_time
    serial_256 = SerialRshLauncher("rsh").launch(
        AtlasMachine.with_nodes(256), Topology.flat(256)).sim_time
    extrapolated = serial_256 * 2  # the paper's "clear linear scaling trend"
    return [
        Row("C3 LaunchMON @512", 512, lm, note="paper: 5.6 s"),
        Row("C3 serial extrapolated @512", 512, extrapolated,
            note="paper: over 2 minutes"),
    ]


def _strcat_rows(quick: bool) -> list:
    """C4: real strcat-vs-cursor packing times on live process tables."""
    rows = []
    sizes = (512, 1024) if quick else (1024, 2048, 4096, 8192)
    for tasks in sizes:
        table = build_process_table(max(1, tasks // 64), 64, "block")
        t0 = time.perf_counter()
        packed_fast = pack_table(table, use_strcat=False)
        fast = time.perf_counter() - t0
        t0 = time.perf_counter()
        packed_slow = pack_table(table, use_strcat=True)
        slow = time.perf_counter() - t0
        assert packed_fast == packed_slow
        rows.append(Row("C4 pack (patched, wall)", tasks, fast))
        rows.append(Row("C4 pack (strcat, wall)", tasks, slow))
    return rows


def run(quick: bool = False, seed: int = 208_000) -> ExperimentResult:
    """Reproduce all scalar claims."""
    result = ExperimentResult(
        figure="Claims",
        title="scalar claims from the paper's prose",
        xlabel="scale (varies)", ylabel="seconds",
    )
    result.rows.extend(_remap_rows(quick, seed))
    result.rows.extend(_sbrs_rows(seed))
    result.rows.extend(_launch_rows())
    result.rows.extend(_strcat_rows(quick))
    return result
