"""Daemon-tree emulation at scale.

The emulator stands in for a fleet of live daemons: given a rank-state
provider it constructs the daemons' locally merged trees.  The session
pipeline builds every live daemon's pair up front with one
:meth:`STATBenchEmulator.build_forest` call and serves them to the
TBO̅N reduction as leaf payloads; :meth:`STATBenchEmulator.daemon_trees`
is the same kernel for a single daemon.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional

import numpy as np

from repro.core.forest import build_forest as _build_forest_arrays
from repro.core.merge import LabelScheme
from repro.core.taskset import TaskMap
from repro.mpi.runtime import STATES, RankState
from repro.mpi.stacks import StackModel
from repro.sim.random import SeedStream

__all__ = ["STATBenchEmulator", "DaemonTrees"]


class DaemonTrees:
    """The payload a daemon ships upward: its 2D and 3D trees together.

    Section V-A: "we measure the time it takes for each STAT daemon to
    send its locally-merged 2D trace-space and 3D trace-space-time prefix
    trees through the MRNet tree" — both travel in one packet, so the wire
    size is the sum.

    Both trees are :class:`~repro.core.treearrays.TreeArrays`, the one
    tree type from the daemons to the front end.
    """

    __slots__ = ("tree_2d", "tree_3d")

    def __init__(self, tree_2d, tree_3d) -> None:
        self.tree_2d = tree_2d
        self.tree_3d = tree_3d

    def serialized_bytes(self) -> int:
        """Combined wire size."""
        return self.tree_2d.serialized_bytes() + self.tree_3d.serialized_bytes()

    def node_count(self) -> int:
        """Combined complexity (filter CPU model input)."""
        return self.tree_2d.node_count() + self.tree_3d.node_count()


def _interned_states(state_of: Callable[[int], RankState],
                     ranks: np.ndarray) -> np.ndarray:
    """Rank-wise ``states_array`` over a scalar provider.

    One ``state_of`` call per rank, in the order given; ``since`` is
    dropped, which sampling never reads (see ``StateInterner``).
    """
    return np.fromiter(
        (STATES.intern(s.kind, s.where)
         for s in map(state_of, ranks.tolist())),
        dtype=np.int64, count=ranks.size)


class STATBenchEmulator:
    """Factory of per-daemon locally merged trees."""

    def __init__(self, task_map: TaskMap, scheme: LabelScheme,
                 stack_model: StackModel,
                 state_of: Callable[[int], RankState],
                 num_samples: int = 10,
                 threads_per_process: int = 1,
                 seed: int = 208_000) -> None:
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        self.task_map = task_map
        self.scheme = scheme
        self.stack_model = stack_model
        self.state_of = state_of
        self.num_samples = num_samples
        self.threads_per_process = threads_per_process
        self._seeds = SeedStream(seed)
        self.daemons_emulated = 0

    def daemon_trees(self, daemon_id: int) -> DaemonTrees:
        """Build daemon ``daemon_id``'s locally merged 2D+3D trees.

        Deterministic per (seed, daemon): the same daemon always samples
        the same traces regardless of emulation order or of which other
        daemons are built with it.
        """
        return self.build_forest([daemon_id])[0]

    def build_forest(self, daemon_ids: Optional[List[int]] = None
                     ) -> List[DaemonTrees]:
        """Build many daemons' trees in one forest-scope pass.

        All daemons when ``daemon_ids`` is ``None``.  Element analysis
        runs over the whole requested population at once
        (:func:`repro.core.forest.build_forest`), which is what makes
        million-task sweep points build in under a second.  A provider
        without the batch ``states_array`` API — e.g. a live runtime's
        ``state_of`` — is queried once per rank and instant and its
        states interned, then takes the same kernel.
        """
        states_array = getattr(self.state_of, "states_array", None) \
            or partial(_interned_states, self.state_of)
        pairs = _build_forest_arrays(
            self.task_map, self.scheme, self.stack_model, states_array,
            self.num_samples,
            lambda d: self._seeds.rng(f"daemon-{d}"),
            daemon_ids=daemon_ids,
            threads_per_process=self.threads_per_process)
        self.daemons_emulated += len(pairs)
        return [DaemonTrees(t2, t3) for t2, t3 in pairs]

    def merge_filter(self):
        """Merge callable over :class:`DaemonTrees` payloads."""
        scheme = self.scheme

        def merge(payloads):
            return DaemonTrees(
                scheme.merge([p.tree_2d for p in payloads]),
                scheme.merge([p.tree_3d for p in payloads]),
            )

        return merge

    def __repr__(self) -> str:
        return (f"<STATBenchEmulator daemons={len(self.task_map)} "
                f"scheme={self.scheme.name} samples={self.num_samples}>")
