"""Array-backed prefix trees: the merge hot path's data representation.

A :class:`TreeArrays` stores one call-graph prefix tree as flat NumPy
arrays instead of linked :class:`~repro.core.prefix_tree.PrefixTreeNode`
objects:

* ``frame_ids[n]`` — interned frame id per node, in BFS (level) order,
  each level in first-seen order (matching object-tree insertion order);
* ``parents[n]`` — index of the parent *node* in the same array
  (``-1`` for depth-1 nodes, whose parent is the artificial root);
* ``label_refs[n]`` — row into ``labels`` for the node's edge label;
* ``labels[d, nbytes]`` — the **distinct** packed label rows.  Nodes
  sharing a label object (common along call chains, where every edge
  carries the same task set) share one row, which is what lets the
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

**Model and view.**  ``TreeArrays`` is the tree model from the daemons to
the front end's finalize step; a
:class:`~repro.core.prefix_tree.PrefixTree` is a *view* of one.
:meth:`to_prefix_tree` builds that view — called once per result tree by
``LabelScheme.finalize``, whose output is the presentation object the
front end keeps — and the read API
(``walk``/``edges``/``leaf_paths``/``find``/``structurally_equal``)
delegates to a cached copy of it for inspection and tests.
:meth:`from_prefix_tree` is the way in for code that builds object trees
(tests, the frozen oracles of :mod:`repro.perf.reference`); no kernel
accepts an object tree.

Interned frame ids are process-local, so pickling translates ids to
``(function, module)`` pairs and re-interns on load; path ids are
dropped and re-derived in the loading process.
"""

from __future__ import annotations

# repro-lint: hot-path — array kernels must stay per-array, not per-node.

from typing import Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.buildarrays import group_members, segment_bounds
from repro.lint.contracts import contract
from repro.core.frames import Frame, StackTrace
from repro.core.interning import FRAMES, PATHS
from repro.core.prefix_tree import PrefixTree, PrefixTreeNode
from repro.core.taskset import (
    CHUNK_HEADER_BITS,
    DaemonLayout,
    DenseBitVector,
    HierarchicalTaskSet,
)

__all__ = ["TreeArrays", "merge_structure", "KIND_DENSE", "KIND_HIER"]

KIND_DENSE = "dense"
KIND_HIER = "hier"

_EMPTY_I64 = np.zeros(0, dtype=np.int64)


class TreeArrays:
    """One prefix tree, flattened to arrays with deduplicated labels."""

    __slots__ = ("kind", "frame_ids", "parents", "label_refs",
                 "level_offsets", "labels", "spans", "width", "layout",
                 "_prefix", "_ospan", "_path_ids")

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
        self._prefix: Optional[PrefixTree] = None
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
        self._prefix = None
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

    @classmethod
    def from_prefix_tree(cls, tree: PrefixTree,
                         kind: Optional[str] = None,
                         width: Optional[int] = None,
                         layout: Optional[DaemonLayout] = None) -> "TreeArrays":
        """Flatten an object tree (labels deduplicated by object identity)."""
        frame_ids: List[int] = []
        parents: List[int] = []
        label_refs: List[int] = []
        level_offsets = [0]
        rows: List[np.ndarray] = []
        row_of: dict = {}

        level: List[Tuple[int, PrefixTreeNode]] = \
            [(-1, child) for child in tree.root.children.values()]
        first_label: Any = None
        while level:  # repro-lint: disable=hot-path-loop (object->array boundary conversion, per level)
            nxt: List[Tuple[int, PrefixTreeNode]] = []
            for parent_gid, node in level:  # repro-lint: disable=hot-path-loop (boundary conversion, inherently per node)
                gid = len(frame_ids)
                frame_ids.append(node.frame.id)
                parents.append(parent_gid)
                label = node.tasks
                if first_label is None:
                    first_label = label
                ref = row_of.get(id(label))  # repro-lint: disable=determinism-taint (identity-keyed dedup: shared label objects collapse to one row; the ref indices come from traversal order, never from id() values, so output is reproducible)
                if ref is None:
                    ref = row_of[id(label)] = len(rows)  # repro-lint: disable=determinism-taint (same identity-keyed dedup as above)
                    rows.append(label.data)
                label_refs.append(ref)
                for child in node.children.values():  # repro-lint: disable=hot-path-loop (boundary conversion, inherently per node)
                    nxt.append((gid, child))
            level_offsets.append(len(frame_ids))
            level = nxt

        if kind is None:
            if isinstance(first_label, DenseBitVector):
                kind = KIND_DENSE
            elif isinstance(first_label, HierarchicalTaskSet):
                kind = KIND_HIER
            elif first_label is None:
                kind = KIND_DENSE
            else:
                raise TypeError(
                    f"unsupported label type {type(first_label).__name__}")
        if kind == KIND_DENSE and width is None and first_label is not None:
            width = first_label.width
        if kind == KIND_HIER and layout is None:
            if first_label is None:
                raise ValueError("cannot determine layout of an empty tree")
            layout = first_label.layout

        if kind == KIND_HIER:
            nbytes = layout.nbytes
        else:
            nbytes = 0 if width is None else (width + 7) // 8
        labels = np.stack(rows) if rows \
            else np.zeros((0, nbytes), dtype=np.uint8)
        return cls(kind, np.asarray(frame_ids, dtype=np.int64),
                   np.asarray(parents, dtype=np.int64),
                   np.asarray(label_refs, dtype=np.int64),
                   np.asarray(level_offsets, dtype=np.int64),
                   labels, width=width, layout=layout)

    # -- object view -------------------------------------------------------
    def make_label(self, row: int) -> Any:
        """A label object over row ``row`` (shares the row's storage)."""
        if self.kind == KIND_DENSE:
            width = self.width if self.width is not None \
                else self.labels.shape[1] * 8
            return DenseBitVector(width, self.labels[row])
        return HierarchicalTaskSet(self.layout, self.labels[row])

    def to_prefix_tree(self) -> PrefixTree:
        """Materialize the object view (fresh tree; label rows shared).

        Nodes on call chains share one label *object* (they carried the
        same task set), so treat the returned tree's labels as
        immutable — use ``tree.copy()`` before in-place label surgery.
        """
        tree = PrefixTree()
        label_objs = [self.make_label(j) for j in range(len(self.labels))]
        nodes: List[PrefixTreeNode] = []
        root = tree.root
        frames = FRAMES.frames_of(self.frame_ids)
        parents = self.parents
        refs = self.label_refs
        for i, frame in enumerate(frames):  # repro-lint: disable=hot-path-loop (array->object boundary materialization)
            node = PrefixTreeNode(frame, label_objs[refs[i]])
            parent = root if parents[i] < 0 else nodes[parents[i]]
            parent.children[frame] = node
            nodes.append(node)
        return tree

    def _prefix_view(self) -> PrefixTree:
        view = self._prefix
        if view is None:
            view = self._prefix = self.to_prefix_tree()
        return view

    # Read API shared with PrefixTree (delegates to the cached object view;
    # the hot paths below never touch it).
    def walk(self) -> Iterator[Tuple[StackTrace, PrefixTreeNode]]:
        """Preorder ``(path, node)`` traversal of the object view."""
        return self._prefix_view().walk()

    def edges(self):
        """All ``(path, edge label)`` pairs."""
        return self._prefix_view().edges()

    def leaf_paths(self):
        """``(path, label)`` for every leaf."""
        return self._prefix_view().leaf_paths()

    def find(self, path: StackTrace):
        """Node at exactly ``path``, or None."""
        return self._prefix_view().find(path)

    def structurally_equal(self, other) -> bool:
        """Same shape and equal labels everywhere (order-insensitive)."""
        if isinstance(other, TreeArrays):
            other = other._prefix_view()
        return self._prefix_view().structurally_equal(other)

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

    def label_serialized_bytes(self) -> int:
        """Wire bytes of one edge label (identical for every edge)."""
        if self.kind == KIND_DENSE:
            width = self.width if self.width is not None else 0
            return (width + 7) // 8
        bits = self.layout.total_tasks + CHUNK_HEADER_BITS * len(self.layout)
        return (bits + 7) // 8

    def serialized_bytes(self) -> int:
        """Wire-size model — exactly :meth:`PrefixTree.serialized_bytes`."""
        n = self.node_count()
        return (8 + 8 * n
                + FRAMES.serialized_bytes_of(self.frame_ids)
                + n * self.label_serialized_bytes())

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
