"""Vectorized BFS construction of per-daemon trees from trace-id arrays.

A per-object build inserts every sampled trace into a
:class:`~repro.core.prefix_tree.PrefixTree` and flattens it level by
level (the frozen oracle in ``tests/per_object_oracle.py``).  This
module produces the
same BFS-level arrays straight from a daemon's *distinct-trace* table —
padded **path-id** rows in first-seen order
(``StackModel.trace_paths``: one interned id per trace prefix, i.e. per
tree node the trace passes through) — with whole-tree array operations,
no per-node objects and no per-level pass:

* the tree's nodes are one ``np.unique`` over the rows' ids; one sort on
  ``(level, introducing traces of the ancestors)`` recovers the BFS
  parent-major, first-introducing-trace order, so child order matches
  object-tree insertion order exactly;
* each node's **contributor combination** (which distinct traces pass
  through it, by position in the trace tuple) is deduplicated across the
  whole tree in one pass, so downstream label work runs once per
  combination.

A :class:`TreeStructure` depends only on the ordered tuple of distinct
trace ids — not on which slots produced them — so daemons sharing a
trace tuple (the overwhelmingly common case in homogeneous populations)
share one cached structure and only compute label rows per daemon.
"""

from __future__ import annotations

# Hot path: build kernels must stay per-array, not per-node.

from typing import List, Tuple

import numpy as np

from repro.core.interning import PATHS
from repro.lint.contracts import contract

__all__ = ["TreeStructure", "build_structure", "dedup_segments",
           "group_members", "segment_bounds"]

_EMPTY_I64 = np.zeros(0, dtype=np.int64)


@contract("bounds:(q):int64, columns:[(e):int64] "
          "-> refs:(s):int64, reps:(d):int64")
def dedup_segments(bounds: np.ndarray,
                   columns: Tuple[np.ndarray, ...]
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Deduplicate variable-length segments of parallel value columns.

    ``bounds`` (length ``S + 1``, starting at 0) delimits ``S``
    contiguous segments in each equal-length 1-D column; two segments are
    equal when their lengths and all column values match element-wise.
    Returns ``(refs, reps)``: ``refs[s]`` is the distinct-segment index
    of segment ``s`` and ``reps`` holds one representative segment id per
    distinct segment, both in first-occurrence order.

    The columns become one interleaved byte string, sliced and hashed
    per segment: equal slices are equal lengths and equal values in
    every column.  Measured on whole-tree inputs (4 to 65,536 segments
    of 1 to 26 members) this is never slower than scattering into a
    padded matrix for one lexicographic ``np.unique`` — the kernel it
    replaced — and 2-3x faster below ~100 segments, where that kernel's
    dozen array launches dominate (docs/performance.md).
    """
    rows = np.stack(columns, axis=1)
    blob = rows.tobytes()
    edges = (bounds * rows.strides[0]).tolist()
    index: dict = {}
    refs: List[int] = []
    reps: List[int] = []
    for s in range(len(edges) - 1):  # per segment: one bytes slice and one dict probe, cheaper than any array formulation measured
        ref = index.setdefault(blob[edges[s]:edges[s + 1]], len(reps))
        if ref == len(reps):
            reps.append(s)
        refs.append(ref)
    return (np.asarray(refs, dtype=np.int64),
            np.asarray(reps, dtype=np.int64))


@contract("keys:(e):int64 -> bounds:(q):int64")
def segment_bounds(keys: np.ndarray, num: int) -> np.ndarray:
    """``bounds[k]:bounds[k + 1]`` spans key ``k`` once elements are
    sorted by key (keys in ``0..num-1``)."""
    bounds = np.zeros(num + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=num), out=bounds[1:])
    return bounds


@contract("node_of:(e):int64, columns:[(e):int64] "
          "-> refs:(n):int64, combos:*")
def group_members(node_of: np.ndarray, num_nodes: int,
                  columns: Tuple[np.ndarray, ...]
                  ) -> Tuple[np.ndarray, List[Tuple[np.ndarray, ...]]]:
    """Distinct contributor combinations of a whole tree's nodes.

    Element ``e`` contributes ``columns[.][e]`` to node ``node_of[e]``
    (every node has at least one element).  A node's combination is its
    elements' column values in element order; ``combos`` lists the
    distinct ones in order of first use (node order) as tuples of
    per-column arrays, and ``refs[n]`` indexes node ``n``'s.  One stable
    sort and one :func:`dedup_segments` for the whole tree.
    """
    order = np.argsort(node_of, kind="stable")
    bounds = segment_bounds(node_of, num_nodes)
    columns = tuple(c[order] for c in columns)
    refs, reps = dedup_segments(bounds, columns)
    cuts = zip(bounds[reps].tolist(), bounds[reps + 1].tolist())
    return refs, [tuple(c[lo:hi] for c in columns) for lo, hi in cuts]


class TreeStructure:
    """Shape of one daemon tree over an ordered distinct-trace tuple.

    Arrays follow the :class:`~repro.core.treearrays.TreeArrays` BFS
    conventions, ``path_ids`` included; ``combo_refs[n]`` indexes
    ``combos``, whose entries are sorted position arrays into the trace
    tuple (which traces contribute to node ``n``).  Structures are
    immutable and shared across every daemon whose sample produced the
    same trace tuple.
    """

    __slots__ = ("frame_ids", "parents", "level_offsets", "combo_refs",
                 "combos", "path_ids")

    def __init__(self, frame_ids: np.ndarray, parents: np.ndarray,
                 level_offsets: np.ndarray, combo_refs: np.ndarray,
                 combos: List[np.ndarray], path_ids: np.ndarray) -> None:
        self.frame_ids = frame_ids
        self.parents = parents
        self.level_offsets = level_offsets
        self.combo_refs = combo_refs
        self.combos = combos
        self.path_ids = path_ids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TreeStructure nodes={self.frame_ids.size} "
                f"combos={len(self.combos)}>")


@contract("rows:(g,m):int64 -> *")
def build_structure(rows: np.ndarray) -> TreeStructure:
    """BFS tree arrays for traces given as padded path-id rows.

    ``rows[g]`` holds the interned path id of every prefix of trace
    ``g`` (``-1``-padded), rows in trace insertion order.  The result is
    exactly what inserting the traces into a prefix tree one by one and
    flattening it level by level produces: per level, nodes appear
    parent-major (parents in their own BFS order) and, within a parent,
    in the order the traces that introduce them were inserted.
    """
    valid = rows >= 0
    trace_of, level_of = np.nonzero(valid)  # cells in trace-major order
    if trace_of.size == 0:
        return TreeStructure(_EMPTY_I64, _EMPTY_I64,
                             np.zeros(1, dtype=np.int64), _EMPTY_I64, [],
                             _EMPTY_I64)
    uniq, first, inverse = np.unique(rows[valid], return_index=True,
                                     return_inverse=True)
    num_nodes = int(uniq.size)
    intro = trace_of[first]  # the trace that introduces each node
    level = level_of[first]
    # A node's ancestors are the prefix of its introducing trace's row.
    # BFS parent-major order is recursive — (parent's position, own
    # introducing trace) — which unrolls to: by level, then by the
    # introducing traces of the ancestors, root first.
    node_at = np.full(rows.shape, -1, dtype=np.int64)
    node_at[valid] = inverse
    lineage = node_at[intro]
    keys = intro[lineage]
    keys[np.arange(rows.shape[1]) > level[:, None]] = 0
    order = np.lexsort(np.vstack((keys.T[::-1], level)))
    rank = np.empty(num_nodes, dtype=np.int64)
    rank[order] = np.arange(num_nodes)
    level = level[order]
    path_ids = uniq[order]
    parents = np.where(level > 0, rank[lineage[order, level - 1]], -1)
    combo_refs, combos = group_members(rank[inverse], num_nodes,
                                       (trace_of,))
    return TreeStructure(PATHS.frame_of[path_ids], parents,
                         segment_bounds(level, int(level[-1]) + 1),
                         combo_refs, [combo[0] for combo in combos], path_ids)
