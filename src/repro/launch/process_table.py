"""The job process table and its rank-to-daemon map.

When a parallel job starts, the resource manager produces a table mapping
every MPI rank to a host and pid; tool daemons consult it to find their
co-located processes.  Two aspects matter to the paper:

* **Content** — the induced :class:`~repro.core.taskset.TaskMap` is what
  the front end's remap step (Section V-B) must gather once at setup,
  because rank-to-daemon assignment "is not guaranteed to be in MPI rank
  order".
* **Generation cost** — BG/L's system software built this table with
  ``strcat``-style string packing, "which scans the buffer for the string
  termination character": appending rank *i*'s entry re-scanned the *i-1*
  entries already packed, an O(P^2) total that IBM's patches later removed
  (Section IV-A).  :func:`pack_table` really performs both packings so the
  asymptotic difference is executable, while the launchers charge the
  simulated clock with calibrated constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.taskset import TaskMap

__all__ = ["ProcessTable", "build_process_table", "pack_table"]


@dataclass
class ProcessTable:
    """Rank -> (daemon, local slot, pid), held as the task map it induces.

    The per-rank rows are *derived*: no session path reads them (Section
    IV-A's lesson is that BG/L startup died generating exactly such a
    table), so :attr:`entries` is computed from ``task_map`` on access
    and neither stored nor pickled.
    """

    num_tasks: int
    num_daemons: int
    task_map: TaskMap
    base_pid: int = 1000

    @property
    def entries(self) -> List[Tuple[int, int, int]]:
        """``entries[rank] = (daemon_id, local_slot, pid)`` — the task
        map inverted in one pass."""
        daemons = self.task_map.daemons()
        sizes = [self.task_map.tasks_of(d) for d in daemons]
        ranks = np.concatenate([self.task_map.ranks_of(d) for d in daemons])
        starts = np.cumsum(sizes) - sizes
        rows = np.empty((self.num_tasks, 3), dtype=np.int64)
        rows[ranks] = np.column_stack((
            np.repeat(daemons, sizes),
            np.arange(ranks.size) - np.repeat(starts, sizes),
            self.base_pid + ranks))
        return [tuple(row) for row in rows.tolist()]

    def daemon_of(self, rank: int) -> int:
        """Daemon responsible for an MPI rank."""
        return self.entries[rank][0]

    def pid_of(self, rank: int) -> int:
        """Simulated pid of an MPI rank."""
        return self.entries[rank][2]

    def local_slot_of(self, rank: int) -> int:
        """Daemon-local slot index of an MPI rank."""
        return self.entries[rank][1]


def build_process_table(num_daemons: int, tasks_per_daemon: int,
                        mapping: str = "block",
                        rng: Optional[np.random.Generator] = None,
                        base_pid: int = 1000) -> ProcessTable:
    """Construct the table a resource manager would hand the tool.

    ``mapping`` selects the rank-to-daemon policy:

    * ``"block"`` — daemon d owns ranks [d*k, (d+1)*k); concatenation in
      daemon order *is* rank order, so the remap step is the identity
      (common on Atlas with default SLURM distribution).
    * ``"cyclic"`` — round robin, the Figure 6 interleaving; remap is a
      perfect shuffle.
    * ``"shuffled"`` — random assignment (requires ``rng``); the hardest
      case the remap step must handle.
    """
    if num_daemons < 1 or tasks_per_daemon < 1:
        raise ValueError("need at least one daemon and one task per daemon")
    if mapping == "block":
        task_map = TaskMap.block(num_daemons, tasks_per_daemon)
    elif mapping == "cyclic":
        task_map = TaskMap.cyclic(num_daemons, tasks_per_daemon)
    elif mapping == "shuffled":
        if rng is None:
            raise ValueError("mapping='shuffled' requires an rng")
        task_map = TaskMap.shuffled(num_daemons, tasks_per_daemon, rng)
    else:
        raise ValueError(f"unknown mapping {mapping!r}")

    return ProcessTable(num_daemons * tasks_per_daemon, num_daemons,
                        task_map, base_pid)


def pack_table(table: ProcessTable, use_strcat: bool = False) -> bytes:
    """Serialize the table the way the BG/L control system did.

    With ``use_strcat=True`` the packing mimics the pre-patch code path:
    every append re-scans the accumulated buffer for its terminator before
    copying (O(P^2) scanning work overall).  With ``use_strcat=False`` it
    keeps a write cursor (the patched O(P) path).  Both produce identical
    bytes; tests assert the equality and benchmarks can measure the real
    asymptotic gap on small tables.
    """
    records = [
        f"{rank}:{daemon}:{slot}:{pid};".encode()
        for rank, (daemon, slot, pid) in enumerate(table.entries)
    ]
    if not use_strcat:
        return b"".join(records)

    # Pre-patch behaviour: strcat() must find the end of `buffer` by
    # scanning it on every call.  bytes.find is the scan; the concatenation
    # reallocates like the undersized-buffer reallocations IBM removed.
    buffer = bytearray(b"\x00")
    for record in records:
        end = bytes(buffer).find(b"\x00")  # the strcat scan
        buffer[end:end + 1] = record + b"\x00"
    return bytes(buffer[:-1])
