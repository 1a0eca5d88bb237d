"""Figure 6 — anatomy of the original versus optimized bit vectors.

The paper's illustration: Daemon 0 debugs tasks 0 and 2, Daemon 1 debugs
tasks 1 and 3 (a cyclic placement).  The original representation keeps
job-width vectors with excess zero bits at every analysis node; the
optimized representation conserves bits but requires the front-end remap
into MPI rank order.  This module reproduces the exact 4-task example
with packed label rows and reports the wire-size arithmetic at paper
scales.
"""

from __future__ import annotations

import numpy as np

from repro.core.taskset import (
    CHUNK_HEADER_BITS,
    DaemonLayout,
    RankRemapper,
    TaskMap,
    _pack_indices,
    row_ranks,
)
from repro.experiments.common import ExperimentResult, Row

__all__ = ["run"]


def run(quick: bool = False) -> ExperimentResult:
    """Recreate the 2-daemon example and the per-edge wire-size table."""
    result = ExperimentResult(
        figure="Figure 6",
        title="original versus optimized bit vector representations",
        xlabel="total tasks",
        ylabel="serialized bits per daemon-level edge label",
    )
    # --- the paper's 4-task illustration --------------------------------
    task_map = TaskMap.cyclic(2, 2)          # d0: ranks 0,2; d1: ranks 1,3
    layout = DaemonLayout.from_task_map(task_map)
    slots = {0: [0, 1],                      # both local slots
             1: [1]}                         # slot 1 -> rank 3
    merged = np.concatenate([                # concat of the two chunks
        _pack_indices(np.asarray(slots[d]), w)
        for d, w in zip(layout.daemon_ids, layout.widths)])
    covered = {d: row_ranks(merged[layout.chunk_slice(i)], w)
               for i, (d, w) in enumerate(zip(layout.daemon_ids,
                                              layout.widths))}
    dense = RankRemapper(layout, task_map).remap_rows(merged[None, :])[0]
    result.notes.append(
        f"daemon 0 handles ranks {task_map.ranks_of(0).tolist()}, "
        f"daemon 1 handles ranks {task_map.ranks_of(1).tolist()}")
    result.notes.append(
        f"optimized concat covers slots {covered} "
        f"-> remapped ranks "
        f"{row_ranks(dense, task_map.total_tasks).tolist()}")
    result.notes.append(
        "original daemon-0 label carries "
        f"{task_map.total_tasks} bits "
        f"(2 excess); optimized carries {layout.widths[0]} payload bits")

    # --- wire-size arithmetic at paper scales ----------------------------
    scales = (1024,) if quick else (1024, 16384, 106496, 212992, 1_000_000)
    tasks_per_daemon = 128
    for total in scales:
        result.rows.append(Row("original (per edge)", total,
                               float(total), unit="bits"))
        result.rows.append(Row("optimized (daemon edge)", total,
                               float(tasks_per_daemon + CHUNK_HEADER_BITS),
                               unit="bits"))
    result.notes.append(
        'paper anchor: "a million cores would require a 1 megabit bit '
        'vector per edge label"')
    return result
