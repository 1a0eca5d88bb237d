"""Vectorized BFS construction of daemon tree structures from trace ids.

A per-object build inserts every sampled trace into a linked object
tree and flattens it level by level (the frozen oracle in
``tests/per_object_oracle.py``).
:func:`build_structures` produces the same BFS-level arrays for a whole
batch of *distinct-trace tuples* at once — each tuple one daemon's
traces in first-seen order, each trace a padded **path-id** row
(``StackModel.trace_paths``: one interned id per trace prefix, i.e. per
tree node the trace passes through) — with block-wide array operations:
no per-node objects, no per-level pass and no per-tuple pass.

* The nodes of every tuple's tree are one ``np.unique`` over
  ``tuple * span + path_id``; one ``lexsort`` on ``(tuple, level,
  introducing traces of the ancestors)`` recovers each tree's BFS
  parent-major, first-introducing-trace order, so child order matches
  object-tree insertion order exactly.
* Each node's **contributor combination** (which of the tuple's traces
  pass through it, by position) comes from the *chain-head rule*: the
  distinct combinations are exactly those of the *heads* — the roots
  plus the nodes whose trace count differs from their parent's — and
  every other node shares its nearest head ancestor's.  Proof: a trace
  through a node passes through its parent, so a node's set is a subset
  of its parent's, and equal counts mean equal sets; by induction a
  non-head has its nearest head ancestor's set.  Heads have pairwise
  distinct sets: a trace passes through the nodes of one root path
  only, so two nodes that are not ancestor-related have disjoint,
  non-empty sets, and if an ancestor and a descendant had equal sets,
  every node between them would too, so the descendant's count would
  equal its parent's and it would not be a head.  Every node sharing a
  head's set lies below it, so in BFS order heads come in exactly the
  first-use order a per-node dedup of the sets produces.

A :class:`TreeStructure` depends only on the ordered tuple of distinct
trace ids — not on which slots produced them — so daemons sharing a
trace tuple (the overwhelmingly common case in homogeneous populations)
share one cached structure and only compute label rows per daemon.
:func:`group_members` and :func:`dedup_segments` serve the merge
kernel, whose combinations are not nested.
"""

from __future__ import annotations

# Hot path: build kernels must stay per-array, not per-node.

from typing import List, Tuple

import numpy as np

from repro.core.interning import PATHS
from repro.lint.contracts import contract

__all__ = ["TreeStructure", "build_structures", "dedup_segments",
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
    conventions, ``path_ids`` included.  ``combo_refs[n]`` indexes the
    distinct contributor combinations, stored CSR:
    ``combo_pos[combo_ptr[c]:combo_ptr[c + 1]]`` are the ascending
    positions in the trace tuple of the traces through combination
    ``c``'s nodes.  Structures are immutable and shared across every
    daemon whose sample produced the same trace tuple.
    """

    __slots__ = ("frame_ids", "parents", "level_offsets", "combo_refs",
                 "combo_ptr", "combo_pos", "path_ids")

    def __init__(self, frame_ids: np.ndarray, parents: np.ndarray,
                 level_offsets: np.ndarray, combo_refs: np.ndarray,
                 combo_ptr: np.ndarray, combo_pos: np.ndarray,
                 path_ids: np.ndarray) -> None:
        self.frame_ids = frame_ids
        self.parents = parents
        self.level_offsets = level_offsets
        self.combo_refs = combo_refs
        self.combo_ptr = combo_ptr
        self.combo_pos = combo_pos
        self.path_ids = path_ids

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<TreeStructure nodes={self.frame_ids.size} "
                f"combos={self.combo_ptr.size - 1}>")


_EMPTY_STRUCTURE = TreeStructure(
    _EMPTY_I64, _EMPTY_I64, np.zeros(1, dtype=np.int64), _EMPTY_I64,
    np.zeros(1, dtype=np.int64), _EMPTY_I64, _EMPTY_I64)


@contract("paths:(t,m):int64, tuples_flat:(r):int64, counts:(g):int64 "
          "-> *")
def build_structures(paths: np.ndarray, tuples_flat: np.ndarray,
                     counts: np.ndarray) -> List[TreeStructure]:
    """BFS tree structures for a batch of ordered trace tuples.

    ``paths[t]`` holds the interned path id of every prefix of trace
    ``t`` (``-1``-padded); tuple ``g`` is the next ``counts[g]`` trace
    ids of ``tuples_flat``, in insertion order.  Structure ``g`` is
    exactly what inserting tuple ``g``'s traces into a prefix tree one
    by one and flattening it level by level produces: per level, nodes
    appear parent-major (parents in their own BFS order) and, within a
    parent, in the order the traces that introduce them were inserted.
    """
    num = counts.size
    rows = paths[tuples_flat]
    valid = rows >= 0
    depth = rows.shape[1]
    cells = rows[valid]  # path ids, tuple- then trace-major
    if cells.size == 0:
        return [_EMPTY_STRUCTURE] * num
    span = int(cells.max()) + 1
    row_cells = valid.sum(axis=1, dtype=np.int32)
    del rows, valid
    row_of = np.repeat(np.arange(row_cells.size, dtype=np.int32), row_cells)
    row_group = np.repeat(np.arange(num), counts)
    cells += row_group[row_of] * span
    uniq, first, inverse = np.unique(cells, return_index=True,
                                     return_inverse=True)
    del cells
    inverse = inverse.reshape(-1)
    num_nodes = int(uniq.size)
    intro = row_of[first]  # the (block-wide) row that introduces each node
    row_base = np.cumsum(row_cells, dtype=np.int32) - row_cells
    level = first - row_base[intro]
    group = row_group[intro]
    # A node's ancestors are the cells before it on its introducing row,
    # whose cells are contiguous (rows are prefix-filled).  BFS parent-
    # major order is recursive — (parent's position, own introducing
    # trace) — which unrolls to: by level, then by the introducing rows
    # of the ancestors, root first.  Columns past a node's level never
    # decide (same-level nodes differ by their own introducing row), so
    # they are clamped to the node's own cell instead of masked.  The
    # (depth, nodes) key matrix is int32 (a block holds far fewer than
    # 2**31 cells) and is dropped right after the sort.
    cell_intro = intro[inverse]
    keys = cell_intro[row_base[intro] + np.minimum(
        np.arange(depth, dtype=np.int32)[:, None],
        level.astype(np.int32))]  # (depth, nodes): ancestor rows, root first
    order = np.lexsort(tuple(keys[::-1]) + (level, group))
    del keys
    rank = np.empty(num_nodes, dtype=np.int64)
    rank[order] = np.arange(num_nodes)
    level = level[order]
    group = group[order]
    path_ids = uniq[order] - group * span
    # The parent is the cell just before a node's first cell.
    parents = np.where(level > 0, rank[inverse[first[order] - 1]], -1)
    # Chain heads: roots, and nodes whose trace count differs from
    # their parent's.  Every other node takes its nearest head
    # ancestor's combination, found by pointer jumping.
    count = np.bincount(inverse, minlength=num_nodes)[order]
    is_head = parents < 0
    inner = ~is_head
    is_head[inner] = count[inner] != count[parents[inner]]
    up = np.where(is_head, np.arange(num_nodes), parents)
    while True:  # per pointer-jumping round: log2 of the longest headless chain
        nxt = up[up]
        if np.array_equal(nxt, up):
            break
        up = nxt
    head_rank = np.cumsum(is_head) - 1
    cell_node = rank[inverse]
    head_cells = np.flatnonzero(is_head[cell_node])
    cell_combo = head_rank[cell_node[head_cells]]
    combo_ptr = segment_bounds(cell_combo, int(head_rank[-1]) + 1)
    row_start = np.cumsum(counts) - counts
    head_rows = row_of[head_cells]
    combo_pos = (head_rows - row_start[row_group[head_rows]])[
        np.argsort(cell_combo, kind="stable")]
    # Group-local numbering: nodes, combinations and levels per group.
    node_ptr = segment_bounds(group, num)
    head_ptr = segment_bounds(group[is_head], num)
    parents -= np.where(level > 0, node_ptr[group], 0)
    combo_of = head_rank[up] - head_ptr[group]
    level_counts = np.bincount(group * depth + level,
                               minlength=num * depth).reshape(num, depth)
    level_ptr = np.zeros((num, depth + 1), dtype=np.int64)
    np.cumsum(level_counts, axis=1, out=level_ptr[:, 1:])
    levels = np.count_nonzero(level_counts, axis=1).tolist()
    frame_ids = PATHS.frame_of[path_ids]
    node_cut = node_ptr.tolist()
    head_cut = head_ptr.tolist()
    pos_cut = combo_ptr[head_ptr].tolist()
    out: List[TreeStructure] = []
    for g in range(num):  # per tuple: views of the block arrays
        n0, n1 = node_cut[g], node_cut[g + 1]
        c0, c1 = head_cut[g], head_cut[g + 1]
        out.append(TreeStructure(
            frame_ids[n0:n1], parents[n0:n1], level_ptr[g, :levels[g] + 1],
            combo_of[n0:n1], combo_ptr[c0:c1 + 1] - pos_cut[g],
            combo_pos[pos_cut[g]:pos_cut[g + 1]], path_ids[n0:n1]))
    return out
