"""The STAT tool daemon (back end).

Each daemon gathers stack traces from its co-located application processes
and performs the *local* part of the analysis: per-sample 2D trace-space
trees and the accumulated 3D trace-space-time tree, both labelled with the
configured representation's leaf labels.  The locally merged trees are
what flows into the TBO̅N (Section III's second measured phase).

Implementation note: during sampling the daemon accumulates **slot sets**
(plain Python sets of daemon-local task indices) on its trees and converts
them to the configured label representation once, when the trees are
handed to the network.  This is behaviour-preserving — union of slot sets
then one label build equals label builds then unions — and avoids
re-allocating job-width bit vectors on every insertion, which matters when
emulating 1,664 daemons with the *original* (dense) representation.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.frames import StackTrace
from repro.core.merge import DenseLabelScheme, LabelScheme
from repro.core.prefix_tree import PrefixTree
from repro.core.stackwalk import StackWalker
from repro.core.taskset import DaemonLayout, TaskMap
from repro.core.treearrays import KIND_DENSE, KIND_HIER, TreeArrays
from repro.mpi.runtime import RankState
from repro.mpi.stacks import StackModel

__all__ = ["STATDaemon"]


def _slot_union(a: set, b: set) -> set:
    """In-place union for slot-set labels (module-level: must pickle)."""
    a.update(b)
    return a


def _slot_tree() -> PrefixTree:
    """A prefix tree whose labels are mutable slot sets."""
    return PrefixTree(
        label_union=_slot_union,
        label_copy=set,
    )


class STATDaemon:
    """One back-end daemon bound to a slice of the application."""

    def __init__(self, daemon_id: int, task_map: TaskMap,
                 scheme: LabelScheme, stack_model: StackModel,
                 rng: Optional[np.random.Generator] = None,
                 threads_per_process: int = 1) -> None:
        self.daemon_id = daemon_id
        self.task_map = task_map
        self.scheme = scheme
        self.stack_model = stack_model
        self.walker = StackWalker(stack_model, rng)
        self.threads_per_process = threads_per_process
        self.local_ranks = task_map.ranks_of(daemon_id)
        self.width = int(self.local_ranks.size)
        self._tree_3d = _slot_tree()
        self._tree_2d: Optional[PrefixTree] = None
        self.samples_taken = 0

    def sample_once(self, state_of: Callable[[int], RankState]) -> int:
        """Walk every local process (and thread) once; merge locally.

        Traces identical across slots share one insertion with a combined
        label — the daemon-side half of STAT's "intelligent implementation
        of the filter routines".  Returns the number of traces gathered.
        """
        groups: Dict[StackTrace, Set[int]] = {}
        traces = 0
        for slot in range(self.width):
            state = state_of(int(self.local_ranks[slot]))
            for tid in range(self.threads_per_process):
                trace = self.walker.walk(state, thread_id=tid)
                traces += 1
                groups.setdefault(trace, set()).add(slot)

        tree_2d = _slot_tree()
        for trace, slots in groups.items():
            tree_2d.insert(trace, slots)
            self._tree_3d.insert(trace, slots)
        self._tree_2d = tree_2d
        self.samples_taken += 1
        return traces

    def collect_samples(self, state_of: Callable[[int], RankState],
                        num_samples: int) -> None:
        """Gather ``num_samples`` instants (the paper's runs use ten)
        without materializing labels."""
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        for _ in range(num_samples):
            self.sample_once(state_of)

    # -- label materialization ------------------------------------------------
    def _label_for(self, slots: Set[int], cache: Dict[frozenset, Any]) -> Any:
        """The scheme label for a slot set, shared across equal sets.

        Long call chains carry the same task set on every edge; building
        (and later merging/transmitting the in-memory form of) one label
        per *distinct* set instead of per node is what keeps full-machine
        emulation affordable.  Labels are treated as immutable once
        placed on a materialized tree.
        """
        key = frozenset(slots)
        label = cache.get(key)
        if label is None:
            label = cache[key] = self.scheme.daemon_label(
                self.daemon_id, self.width, sorted(slots), self.task_map)
        return label

    def _materialize_arrays(self, slot_tree: PrefixTree,
                            cache: Dict[frozenset, Any]) -> TreeArrays:
        """Convert a slot-set tree into the scheme's array-backed tree.

        Nodes flatten to BFS arrays, labels deduplicate by slot set into
        one packed matrix, and (for the dense scheme) each distinct row
        records the byte span that actually carries bits, so the k-way
        merge kernels can skip the job-width zero fringe.
        """
        scheme = self.scheme
        dense = isinstance(scheme, DenseLabelScheme)
        frame_ids: List[int] = []
        parents: List[int] = []
        label_refs: List[int] = []
        level_offsets = [0]
        rows: List[np.ndarray] = []
        spans: List[Tuple[int, int]] = []
        row_of: Dict[frozenset, int] = {}
        first_label: Any = None

        level = [(-1, child) for child in slot_tree.root.children.values()]
        while level:
            nxt = []
            for parent_gid, node in level:
                gid = len(frame_ids)
                frame_ids.append(node.frame.id)
                parents.append(parent_gid)
                key = frozenset(node.tasks)
                row = row_of.get(key)
                if row is None:
                    label = self._label_for(node.tasks, cache)
                    if first_label is None:
                        first_label = label
                    row = row_of[key] = len(rows)
                    rows.append(label.data)
                    if dense:
                        spans.append(scheme.leaf_span(
                            self.daemon_id, sorted(node.tasks),
                            self.task_map))
                label_refs.append(row)
                for child in node.children.values():
                    nxt.append((gid, child))
            level_offsets.append(len(frame_ids))
            level = nxt

        if dense:
            kind, width, layout = KIND_DENSE, scheme.total_tasks, None
            nbytes = (width + 7) // 8
        else:
            kind, width = KIND_HIER, None
            layout = first_label.layout if first_label is not None \
                else DaemonLayout.for_daemon(self.daemon_id, self.width)
            nbytes = layout.nbytes
        labels = np.stack(rows) if rows \
            else np.zeros((0, nbytes), dtype=np.uint8)
        return TreeArrays(
            kind,
            np.asarray(frame_ids, dtype=np.int64),
            np.asarray(parents, dtype=np.int64),
            np.asarray(label_refs, dtype=np.int64),
            np.asarray(level_offsets, dtype=np.int64),
            labels,
            spans=np.asarray(spans, dtype=np.int64).reshape(-1, 2)
            if dense else None,
            width=width, layout=layout)

    def trees_arrays(self) -> Tuple[TreeArrays, TreeArrays]:
        """The labelled ``(last instant's 2D, accumulated 3D)`` trees,
        sharing one label cache."""
        if self._tree_2d is None:
            raise RuntimeError("no samples taken yet")
        cache: Dict[frozenset, Any] = {}
        return (self._materialize_arrays(self._tree_2d, cache),
                self._materialize_arrays(self._tree_3d, cache))

    def reset(self) -> None:
        """Drop accumulated trees (a fresh STAT session)."""
        self._tree_3d = _slot_tree()
        self._tree_2d = None
        self.samples_taken = 0

    def __repr__(self) -> str:
        return (f"<STATDaemon {self.daemon_id} tasks={self.width} "
                f"samples={self.samples_taken}>")
