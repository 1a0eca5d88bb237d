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
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.forest import build_forest as _build_forest_arrays
from repro.core.merge import LabelScheme
from repro.core.treearrays import TreeArrays
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

    A pair made by :meth:`merged` is *deferred*: it holds the read pairs
    it covers, in order, and runs one k-way ``scheme.merge`` per tree the
    first time its trees are read (:meth:`trees`, :attr:`tree_2d`,
    :attr:`tree_3d`, :meth:`serialized_bytes`).  Until then a fold into
    it is bookkeeping, and :meth:`node_count` is the size of the union of
    its inputs' path ids — the merged node count, since a node *is* its
    path id.  Every partial that crosses a TBO̅N link is read for its
    wire size, so each node runs exactly one k-way over its live
    children in canonical order: the merge the batch reduce runs there.
    """

    __slots__ = ("_trees", "_scheme", "_parts", "_path_ids")

    def __init__(self, tree_2d, tree_3d) -> None:
        self._trees = (tree_2d, tree_3d)
        self._scheme = None
        self._parts = None
        self._path_ids = None

    @classmethod
    def merged(cls, scheme: LabelScheme,
               payloads: Sequence["DaemonTrees"]) -> "DaemonTrees":
        """A deferred merge of ``payloads`` under ``scheme``.

        A deferred input adds its own parts, a read one counts as one
        part, so the k-way that reading runs covers the read pairs in
        order; by the merge's associativity that is the tree the nested
        merges would give.
        """
        pair = cls.__new__(cls)
        pair._trees = None
        pair._scheme = scheme
        pair._parts = [part for p in payloads
                       for part in (p._parts or (p,))]
        pair._path_ids = tuple(
            np.unique(np.concatenate([p._ids_of(i) for p in payloads]))
            for i in (0, 1))
        return pair

    def _ids_of(self, which: int) -> np.ndarray:
        """Path ids of tree ``which`` (0: 2D, 1: 3D), without reading."""
        if self._trees is None:
            return self._path_ids[which]
        return self._trees[which].path_ids

    def trees(self) -> Tuple[TreeArrays, TreeArrays]:
        """``(tree_2d, tree_3d)``, running a deferred k-way merge once."""
        if self._trees is None:
            scheme, parts = self._scheme, self._parts
            self._trees = (scheme.merge([p._trees[0] for p in parts]),
                           scheme.merge([p._trees[1] for p in parts]))
            self._scheme = self._parts = self._path_ids = None
        return self._trees

    @property
    def tree_2d(self) -> TreeArrays:
        """The 2D trace-space tree."""
        return self.trees()[0]

    @property
    def tree_3d(self) -> TreeArrays:
        """The 3D trace-space-time tree."""
        return self.trees()[1]

    def serialized_bytes(self) -> int:
        """Combined wire size."""
        tree_2d, tree_3d = self.trees()
        return tree_2d.serialized_bytes() + tree_3d.serialized_bytes()

    def node_count(self) -> int:
        """Combined complexity (filter CPU model input)."""
        if self._trees is None:
            return int(self._path_ids[0].size + self._path_ids[1].size)
        tree_2d, tree_3d = self._trees
        return tree_2d.node_count() + tree_3d.node_count()


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
        #: root key of the walk draws (``core.sampling.walk_words``)
        self.walk_key = SeedStream(seed).child("walks").root_seed
        self.daemons_emulated = 0

    def daemon_trees(self, daemon_id: int) -> DaemonTrees:
        """Build daemon ``daemon_id``'s locally merged 2D+3D trees.

        Deterministic per (seed, daemon): every walk draws from a word
        keyed on the daemon's id, never on its position, so the same
        daemon samples the same traces whether it is built alone, in
        any subset, in any order or in any ``FOREST_CHUNK_ELEMS`` block
        split.  The e2e tracer's replay relies on this: its
        ``build_forest`` over a session's live daemons equals the
        session's payloads.
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
            self.num_samples, self.walk_key, daemon_ids=daemon_ids,
            threads_per_process=self.threads_per_process)
        self.daemons_emulated += len(pairs)
        return [DaemonTrees(t2, t3) for t2, t3 in pairs]

    def merge_filter(self):
        """Merge callable over :class:`DaemonTrees` payloads.

        Returns a deferred pair (:meth:`DaemonTrees.merged`): the k-way
        merge runs when the pair is first read.
        """
        return partial(DaemonTrees.merged, self.scheme)

    def __repr__(self) -> str:
        return (f"<STATBenchEmulator daemons={len(self.task_map)} "
                f"scheme={self.scheme.name} samples={self.num_samples}>")
