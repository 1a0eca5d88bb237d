"""Array-backed call-graph prefix trees: the one tree type.

Every sampled stack trace is inserted root-first; traces sharing a
prefix share nodes, and each edge carries a task-set label naming the
MPI ranks whose traces traverse it.  A :class:`TreeArrays` stores one
such tree as flat NumPy arrays:

* ``frame_ids[n]`` — interned frame id per node, in BFS (level) order,
  each level in first-seen (insertion) order;
* ``parents[n]`` — index of the parent *node* in the same array
  (``-1`` for depth-1 nodes, whose parent is the artificial root);
* ``label_refs[n]`` — row into ``labels`` for the node's edge label;
* ``labels[d, nbytes]`` — the **distinct** packed label rows, in one of
  the two row formats of :mod:`repro.core.taskset`.  Nodes sharing a
  label (common along call chains, where every edge carries the same
  task set) share one row, which is what lets the
  k-way merge kernels compute each distinct contributor combination
  exactly once;
* ``spans[d, 2]`` — optional per-row ``(lo, hi)`` byte range containing
  every set bit (dense labels only).  Daemon-local labels touch a few
  bytes of a job-width vector; span-limited kernels skip the zero fringe
  without changing what is *represented* (wire sizes are unchanged).
* ``path_ids[n]`` — the node's interned **path id**
  (:data:`~repro.core.interning.PATHS`): one integer per root-anchored
  frame sequence, so equal ids across trees mean the same node and
  :func:`merge_structure` is one ``np.unique`` over the concatenated
  ids.  An accelerator, not part of the tree's value: process-local,
  never serialized, derived from ``(frame_ids, parents)`` when a tree
  arrives without it.

**One tree type.**  Daemons build ``TreeArrays`` (labels in either
scheme's form), every TBO̅N level merges them, and
``LabelScheme.finalize`` returns one with dense, rank-ordered labels,
which the front end reads directly: :meth:`preorder` is the node order
of the codec, the renderers and the equivalence classes, and
:meth:`row_ranks` is the one read of a dense row as sorted ranks.

In the paper's terms, a **2D trace-space** tree holds one sampling
instant, so a task lies on exactly one root-to-leaf path; a **3D
trace-space-time** tree is the union over instants, so a task may lie on
several (Figure 1, where the progress-engine recursion depth varies).

Interned frame ids are process-local, so pickling translates ids to
``(function, module)`` pairs and re-interns on load; path ids are
dropped and re-derived in the loading process.
"""

from __future__ import annotations

# Hot path: array kernels must stay per-array, not per-node.

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.buildarrays import group_members, segment_bounds
from repro.lint.contracts import contract
from repro.core.frames import Frame, StackTrace
from repro.core.interning import FRAMES, PATHS
from repro.core.taskset import CHUNK_HEADER_BITS, DaemonLayout, row_ranks

__all__ = ["TreeArrays", "merge_structure", "KIND_DENSE", "KIND_HIER"]

KIND_DENSE = "dense"
KIND_HIER = "hier"

_EMPTY_I64 = np.zeros(0, dtype=np.int64)


class TreeArrays:
    """One prefix tree, flattened to arrays with deduplicated labels."""

    __slots__ = ("kind", "frame_ids", "parents", "label_refs",
                 "level_offsets", "labels", "spans", "width", "layout",
                 "_ospan", "_path_ids")

    def __init__(self, kind: str,
                 frame_ids: np.ndarray,
                 parents: np.ndarray,
                 label_refs: np.ndarray,
                 level_offsets: np.ndarray,
                 labels: np.ndarray,
                 spans: Optional[np.ndarray] = None,
                 width: Optional[int] = None,
                 layout: Optional[DaemonLayout] = None,
                 path_ids: Optional[np.ndarray] = None) -> None:
        if kind not in (KIND_DENSE, KIND_HIER):
            raise ValueError(f"unknown tree kind {kind!r}")
        if kind == KIND_HIER and layout is None:
            raise ValueError("hierarchical tree arrays need a layout")
        self.kind = kind
        self.frame_ids = np.asarray(frame_ids, dtype=np.int64)
        self.parents = np.asarray(parents, dtype=np.int64)
        self.label_refs = np.asarray(label_refs, dtype=np.int64)
        self.level_offsets = np.asarray(level_offsets, dtype=np.int64)
        self.labels = np.asarray(labels, dtype=np.uint8)
        if self.labels.ndim != 2:
            raise ValueError("labels must be a 2-D uint8 matrix")
        self.spans = None if spans is None \
            else np.asarray(spans, dtype=np.int64)
        self.width = None if width is None else int(width)
        self.layout = layout
        self._ospan: Optional[Tuple[int, int]] = None
        self._path_ids = None if path_ids is None \
            else np.asarray(path_ids, dtype=np.int64)

    # -- constructors ------------------------------------------------------
    @classmethod
    @contract("frame_ids:(n):int64, parents:(n):int64, "
              "label_refs:(n):int64, level_offsets:(L):int64, "
              "labels:(r,b):uint8, spans:(r,2):int64?, "
              "path_ids:(n):int64? -> *")
    def _trusted(cls, kind: str,
                 frame_ids: np.ndarray,
                 parents: np.ndarray,
                 label_refs: np.ndarray,
                 level_offsets: np.ndarray,
                 labels: np.ndarray,
                 spans: Optional[np.ndarray] = None,
                 width: Optional[int] = None,
                 layout: Optional[DaemonLayout] = None,
                 path_ids: Optional[np.ndarray] = None) -> "TreeArrays":
        """Construct from already-validated, correctly-typed arrays.

        The forest build kernel assembles thousands of trees from
        cached structure arrays that were validated once when the
        structure was built; re-running ``np.asarray`` + shape checks
        per tree is pure overhead there.  Callers own the invariants ``__init__`` checks.
        """
        self = object.__new__(cls)
        self.kind = kind
        self.frame_ids = frame_ids
        self.parents = parents
        self.label_refs = label_refs
        self.level_offsets = level_offsets
        self.labels = labels
        self.spans = spans
        self.width = width
        self.layout = layout
        self._ospan = None
        self._path_ids = path_ids
        return self

    @classmethod
    def empty(cls, kind: str, width: Optional[int] = None,
              layout: Optional[DaemonLayout] = None) -> "TreeArrays":
        """A zero-node tree (nbytes derived from width/layout).

        A dense one carries zero span rows, like every daemon-built
        dense tree, so it is ``arrays_equal`` to a daemon's empty tree.
        """
        if kind == KIND_HIER:
            nbytes = layout.nbytes if layout is not None else 0
            spans = None
        else:
            nbytes = 0 if width is None else (width + 7) // 8
            spans = np.zeros((0, 2), dtype=np.int64)
        return cls(kind, _EMPTY_I64, _EMPTY_I64, _EMPTY_I64,
                   np.zeros(1, dtype=np.int64),
                   np.zeros((0, nbytes), dtype=np.uint8),
                   spans=spans, width=width, layout=layout)

    # -- front-end reads: a finalized tree has tens of nodes (20 / 23 at
    # 208K tasks), so these walk nodes in Python, never in a merge/build.
    def row_ranks(self, row: np.ndarray) -> np.ndarray:
        """The sorted ``int64`` ranks set in one packed dense ``row``
        (a row of ``labels``, or a union of rows)."""
        if self.kind != KIND_DENSE:
            raise TypeError("tree carries hierarchical labels "
                            "(run scheme.finalize first)")
        width = self.width if self.width is not None \
            else self.labels.shape[1] * 8
        return row_ranks(row, width)

    def label_of(self, node: int) -> np.ndarray:
        """The sorted ``int64`` ranks of the edge label into ``node``."""
        return self.row_ranks(self.labels[self.label_refs[node]])

    def children(self) -> List[List[int]]:
        """Child indices per node, ascending; the extra last entry (the
        root's ``parents`` value, ``-1``) lists the depth-1 nodes."""
        kids: List[List[int]] = [[] for _ in range(self.node_count() + 1)]
        for node, parent in enumerate(self.parents.tolist()):
            kids[parent].append(node)
        return kids

    def preorder(self, kids: Optional[List[List[int]]] = None
                 ) -> List[int]:
        """Node indices in preorder, siblings in ascending (first-seen)
        index: the one node order of the codec, the renderers and the
        class extraction, which fixes ``.stpt``/``.dot`` bytes, DOT node
        ids and the tie order of ``EquivalenceClass.paths``.  Pass the
        caller's :meth:`children` as ``kids`` to not build them twice."""
        kids = self.children() if kids is None else kids
        order: List[int] = []
        stack = kids[-1][::-1]
        while stack:
            order.append(stack.pop())
            stack.extend(kids[order[-1]][::-1])
        return order

    def paths(self) -> List[StackTrace]:
        """The root-anchored call path of every node, by node index."""
        chains: List[Tuple[Frame, ...]] = []
        for frame, parent in zip(FRAMES.frames_of(self.frame_ids),
                                 self.parents.tolist()):
            chains.append((chains[parent] if parent >= 0 else ()) + (frame,))
        return [StackTrace(chain) for chain in chains]

    def node_at(self, path: StackTrace) -> Optional[int]:
        """Index of the node at exactly ``path``, or None."""
        return {p: node for node, p in enumerate(self.paths())}.get(path)

    def truncated(self, stop: Callable[[StackTrace, Frame], bool]
                  ) -> "TreeArrays":
        """A copy with the subtrees below matching nodes cut off.

        A node stays iff no strict ancestor matched ``stop(path,
        frame)``; node order and label rows carry over, and labels stay
        right (an edge label is the union of the traces through it).
        Cut at the MPI API boundary, Figure 1's tree shows its three-way
        split instead of the per-progress-depth sub-classes below.
        """
        paths = self.paths()
        keep = np.zeros(self.node_count(), dtype=bool)
        cut = np.zeros_like(keep)
        for node, parent in enumerate(self.parents.tolist()):  # parents first
            keep[node] = parent < 0 or (keep[parent] and not cut[parent])
            cut[node] = keep[node] and stop(paths[node], paths[node].leaf)
        kept = np.concatenate(([0], np.cumsum(keep)))
        parents = self.parents[keep]
        return TreeArrays(
            self.kind, self.frame_ids[keep],
            np.where(parents >= 0, kept[parents + 1] - 1, -1),
            self.label_refs[keep], np.unique(kept[self.level_offsets]),
            self.labels, spans=self.spans, width=self.width,
            layout=self.layout, path_ids=self.path_ids[keep])

    def truncated_at_depth(self, max_depth: int) -> "TreeArrays":
        """A copy keeping only the first ``max_depth`` frame levels."""
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        return self.truncated(lambda path, frame: len(path) >= max_depth)

    def structurally_equal(self, other: "TreeArrays") -> bool:
        """Same path ids with equal label values (kind, width or layout,
        bytes) on each; node order and row sharing do not matter."""
        if self.node_count() != other.node_count():
            return False
        if not self.node_count():
            return True
        mine = np.argsort(self.path_ids)
        theirs = np.argsort(other.path_ids)
        same_labels = self.width == other.width if self.kind == KIND_DENSE \
            else self.layout == other.layout
        return (self.kind == other.kind and same_labels
                and np.array_equal(self.path_ids[mine], other.path_ids[theirs])
                and np.array_equal(self.labels[self.label_refs[mine]],
                                   other.labels[other.label_refs[theirs]]))

    def arrays_equal(self, other: "TreeArrays") -> bool:
        """Exact array-level equality — every array, order included.

        Stronger than :meth:`structurally_equal` (which ignores child and
        label-row order): the build equivalence tests use this to pin the
        vectorized construction path bit-identical to the per-object one.
        """
        if not isinstance(other, TreeArrays):
            return False
        spans_equal = (self.spans is None) == (other.spans is None) and (
            self.spans is None or np.array_equal(self.spans, other.spans))
        return (self.kind == other.kind
                and self.width == other.width
                and self.layout == other.layout
                and np.array_equal(self.frame_ids, other.frame_ids)
                and np.array_equal(self.parents, other.parents)
                and np.array_equal(self.label_refs, other.label_refs)
                and np.array_equal(self.level_offsets, other.level_offsets)
                and np.array_equal(self.labels, other.labels)
                and spans_equal)

    # -- statistics (array-native: no object tree required) ---------------
    def node_count(self) -> int:
        """Number of non-root nodes."""
        return int(self.frame_ids.size)

    def depth(self) -> int:
        """Longest path length (root excluded)."""
        return int(self.level_offsets.size - 1) if self.frame_ids.size else 0

    @property
    def path_ids(self) -> np.ndarray:
        """Interned path id per node: the node's identity across trees.

        Process-local and never serialized.  The build and merge kernels
        hand their output's ids over; a tree that arrives any other way
        (object conversion, unpickling, a bare constructor call) derives
        them from ``(frame_ids, parents)`` on first use.
        """
        ids = self._path_ids
        if ids is None:
            ids = self._path_ids = PATHS.ids_of(self.frame_ids, self.parents)
        return ids

    def overall_span(self) -> Tuple[int, int]:
        """Byte range containing every set bit of every label (cached).

        Without per-row span metadata this is conservatively the whole
        row; dense kernels use it to skip the zero fringe.
        """
        span = self._ospan
        if span is None:
            if self.spans is None:
                span = (0, int(self.labels.shape[1]))
            elif self.spans.size == 0:
                span = (0, 0)
            else:
                span = (int(self.spans[:, 0].min()),
                        int(self.spans[:, 1].max()))
            self._ospan = span
        return span

    def serialized_bytes(self) -> int:
        """Wire-size model: frames + structure + every edge label (all
        of one size: the tree's width, or its layout plus chunk headers).

        This is what the TBO̅N timing model charges to links, and it is
        what differs between the two label representations;
        :func:`~repro.core.codec.verify_size_model` holds it to the
        codec's real encoding.
        """
        label_bits = (self.width or 0) if self.kind == KIND_DENSE else \
            self.layout.total_tasks + CHUNK_HEADER_BITS * len(self.layout)
        n = self.node_count()
        return (8 + 8 * n + FRAMES.serialized_bytes_of(self.frame_ids)
                + n * ((label_bits + 7) // 8))

    # -- pickling ----------------------------------------------------------
    def __getstate__(self):
        uniq, inverse = np.unique(self.frame_ids, return_inverse=True)
        table = [(f.function, f.module) for f in FRAMES.frames_of(uniq)]
        return {
            "kind": self.kind,
            "frame_local": inverse.astype(np.int64),
            "frame_table": table,
            "parents": self.parents,
            "label_refs": self.label_refs,
            "level_offsets": self.level_offsets,
            "labels": self.labels,
            "spans": self.spans,
            "width": self.width,
            "layout": self.layout,
        }

    def __setstate__(self, state) -> None:
        ids = np.asarray(
            [Frame(fn, mod).id for fn, mod in state["frame_table"]],
            dtype=np.int64)
        frame_ids = ids[state["frame_local"]] if ids.size \
            else _EMPTY_I64.copy()
        self.__init__(state["kind"], frame_ids, state["parents"],
                      state["label_refs"], state["level_offsets"],
                      state["labels"], spans=state["spans"],
                      width=state["width"], layout=state["layout"])

    def __repr__(self) -> str:
        return (f"<TreeArrays kind={self.kind} nodes={self.node_count()} "
                f"labels={self.labels.shape[0]}x{self.labels.shape[1]}B>")


@contract("trees:* -> frame_ids:(n):int64, parents:(n):int64, "
          "level_offsets:(L):int64, group_refs:(n):int64, groups:*, "
          "path_ids:(n):int64")
def merge_structure(trees: Sequence[TreeArrays]) -> Tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray,
        List[Tuple[np.ndarray, np.ndarray]], np.ndarray]:
    """Vectorized k-way structure merge over interned path ids.

    A node *is* its path id, so matching paths across trees is one
    ``np.unique`` over the concatenated ids — no per-level pass and no
    Python recursion.  Merged nodes come out in BFS order, each level by
    first occurrence in ``(tree, node)`` order (equal paths share a
    level, so that is the smallest concatenated index ``np.unique``
    already reports) — the child order of the historical recursive
    kernels.

    Returns ``(frame_ids, parents, level_offsets, group_refs, groups,
    path_ids)`` for the merged tree, where ``group_refs[i]`` indexes
    ``groups`` and ``groups[g] = (tree_idx[], label_ref[])`` is one
    **distinct** contributor combination, in tree order.  Output nodes
    whose contributors carry identical label rows — ubiquitous along
    call chains — share a group, so the label kernels run once per
    combination instead of once per node.
    """
    counts = [t.frame_ids.size for t in trees]
    if not sum(counts):
        return (_EMPTY_I64, _EMPTY_I64, np.zeros(1, dtype=np.int64),
                _EMPTY_I64, [], _EMPTY_I64)
    uniq, first, inverse = np.unique(
        np.concatenate([t.path_ids for t in trees]),
        return_index=True, return_inverse=True)
    num_nodes = int(uniq.size)
    level = PATHS.level_of[uniq]
    order = np.lexsort((first, level))
    rank = np.empty(num_nodes, dtype=np.int64)
    rank[order] = np.arange(num_nodes)
    path_ids = uniq[order]
    # Inputs are prefix-closed, so every parent path is itself in uniq.
    above = PATHS.parent_of[path_ids]
    parents = np.where(above >= 0, rank[np.searchsorted(uniq, above)], -1)
    group_refs, groups = group_members(
        rank[inverse], num_nodes,
        (np.repeat(np.arange(len(trees), dtype=np.int64), counts),
         np.concatenate([t.label_refs for t in trees])))
    return (PATHS.frame_of[path_ids], parents,
            segment_bounds(level, int(level[order[-1]]) + 1),
            group_refs, groups, path_ids)
