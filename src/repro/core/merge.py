"""The STAT filter kernel: merging call-graph prefix trees.

As locally merged trees flow up the TBO̅N, every communication process runs
this merge over its children's trees.  The *structure* merge is identical
for both label representations — matching paths share nodes — but the
*label* merge differs, and that difference is the whole of Section V:

* :class:`DenseLabelScheme` (original): every label is a global-width bit
  vector, so merging is a bitwise OR of equal-width vectors and every level
  of the tree transmits job-width labels.
* :class:`HierarchicalLabelScheme` (optimized): children's labels cover
  disjoint subtrees, so merging is **concatenation** — zero-fill a label
  over the merged layout and paste each contributing child's bytes at its
  chunk offset.  Only the front end, via
  :class:`~repro.core.taskset.RankRemapper`, ever builds a job-width vector.

Both schemes expose the same interface so daemons, filters, and benchmarks
are generic over the representation.

Since the vectorized rewrite, the hot path is **k-way over array-backed
trees** (:class:`~repro.core.treearrays.TreeArrays`): one structure
merge shared by both schemes (a single ``np.unique`` over the trees'
interned path ids — no Python recursion, no per-level pass), then one
batched label kernel per *distinct contributor combination* — a single
span-limited ``|=`` pass per source tree (dense) or one zero-filled
slice-assignment pass per source tree (hierarchical), k-way instead of
pairwise, with no per-node allocation.

**Tree model.**  :class:`~repro.core.treearrays.TreeArrays` is the only
tree type this module merges: daemons build arrays, every TBO̅N level
merges arrays into arrays, and a scheme's :meth:`~LabelScheme.finalize`
is the single place a :class:`~repro.core.prefix_tree.PrefixTree` is
built — the finalized, dense-labelled presentation object the front end
hands to equivalence classes, queries, rendering and the archive codec.
Callers holding an object tree (tests, the frozen oracles) convert with
:meth:`TreeArrays.from_prefix_tree` before they call in.  The
pre-vectorization recursive kernels are retained in
:mod:`repro.perf.reference` and the equivalence property tests assert
bit-identical trees between old and new on randomized inputs.
"""

from __future__ import annotations

# repro-lint: hot-path — merge kernels must stay per-array, not per-node.

from typing import Any, Sequence, Tuple

import numpy as np

from repro.core.prefix_tree import PrefixTree
from repro.lint.contracts import contract
from repro.core.taskset import (
    DaemonLayout,
    DenseBitVector,
    HierarchicalTaskSet,
    RankRemapper,
    TaskMap,
)
from repro.core.treearrays import (
    KIND_DENSE,
    KIND_HIER,
    TreeArrays,
    merge_structure,
)
from repro.perf.counters import (
    MERGE_CALLS,
    MERGE_KERNEL_SECONDS,
    MERGE_LABEL_BYTES_OUT,
    MERGE_LABEL_GROUPS,
    MERGE_NODES_OUT,
    MERGE_TREES_IN,
    PERF,
)

__all__ = [
    "LabelScheme",
    "DenseLabelScheme",
    "HierarchicalLabelScheme",
]


@contract("groups:* -> grp:(p):int64, tre:(p):int64, row:(p):int64")
def _flat_pairs(groups: Sequence[Tuple[np.ndarray, np.ndarray]]
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten contributor groups into ``(group, tree, label row)`` arrays.

    One row per contribution of one source tree to one distinct output
    label — the unit the batched label kernels scatter over.
    """
    sizes = np.asarray([g[0].size for g in groups], dtype=np.int64)
    grp = np.repeat(np.arange(len(groups), dtype=np.int64), sizes)
    tree = np.concatenate([g[0] for g in groups])
    row = np.concatenate([g[1] for g in groups])
    return grp, tree, row


class LabelScheme:
    """Strategy interface shared by the two edge-label representations."""

    #: short identifier used in benchmark output rows
    name = "abstract"
    #: array-backed tree kind ("dense" / "hier")
    kind = KIND_DENSE

    def daemon_label(self, daemon_id: int, local_width: int,
                     slots: Sequence[int], task_map: TaskMap) -> Any:
        """Label for a leaf (daemon-level) edge covering ``slots``."""
        raise NotImplementedError

    def leaf_span(self, daemon_id: int, slots: Sequence[int],
                  task_map: TaskMap) -> Tuple[int, int]:
        """Byte range of a leaf label's set bits (dense kernels only)."""
        raise NotImplementedError

    def merge(self, trees: Sequence[TreeArrays]) -> TreeArrays:
        """Merge locally rooted trees into one (the TBO̅N filter body).

        The one counted and timed entry over :meth:`merge_arrays`.

        Associative down to the arrays: folding arrivals one at a time
        (``merge([partial, arriving])``, the streaming TBO̅N step) in
        canonical child order yields a tree ``arrays_equal`` to the
        one-shot k-way merge of the same inputs — the structure
        kernel's per-level first-occurrence order over path ids, the
        contributor-combination label dedup, and the per-row span
        metadata all compose (``tests/test_tbon_streaming.py`` and
        ``tests/test_merge_order.py`` pin this on randomized forests).
        """
        PERF.add(MERGE_CALLS)
        PERF.add(MERGE_TREES_IN, len(trees))
        with PERF.timer(MERGE_KERNEL_SECONDS):
            out = self.merge_arrays(trees)
        PERF.add(MERGE_NODES_OUT, out.node_count())
        PERF.add(MERGE_LABEL_GROUPS, out.labels.shape[0])
        PERF.add(MERGE_LABEL_BYTES_OUT, out.labels.nbytes)
        return out

    def merge_arrays(self, trees: Sequence[TreeArrays]) -> TreeArrays:
        """The vectorized k-way kernel proper (arrays in, arrays out)."""
        raise NotImplementedError

    def finalize(self, root_tree: TreeArrays,
                 task_map: TaskMap) -> PrefixTree:
        """Front-end post-processing to a rank-ordered, dense-labelled
        :class:`PrefixTree` — the one array->object conversion."""
        raise NotImplementedError


class DenseLabelScheme(LabelScheme):
    """Original STAT representation: global-width bit vectors everywhere.

    ``total_tasks`` must be globally agreed before any daemon builds a
    label — the paper's observation that the design "reserves space to
    represent a global view".
    """

    name = "original"
    kind = KIND_DENSE

    def __init__(self, total_tasks: int) -> None:
        if total_tasks <= 0:
            raise ValueError(f"total_tasks must be positive, got {total_tasks}")
        self.total_tasks = int(total_tasks)

    def daemon_label(self, daemon_id: int, local_width: int,
                     slots: Sequence[int], task_map: TaskMap) -> DenseBitVector:
        """Global-width vector with the daemon's task ranks set."""
        ranks = task_map.ranks_of(daemon_id)[np.asarray(list(slots), dtype=np.int64)] \
            if len(slots) else np.zeros(0, dtype=np.int64)
        return DenseBitVector.from_ranks(ranks, self.total_tasks)

    def leaf_span(self, daemon_id: int, slots: Sequence[int],
                  task_map: TaskMap) -> Tuple[int, int]:
        """Byte range of a leaf label's set bits within the job width."""
        if not len(slots):
            return (0, 0)
        ranks = task_map.ranks_of(daemon_id)[np.asarray(list(slots),
                                                        dtype=np.int64)]
        return (int(ranks.min()) >> 3, (int(ranks.max()) >> 3) + 1)

    #: largest gather/scatter index matrix (elements) the overlapping-span
    #: fast path may build before degrading to the per-tree loop
    _SCATTER_LIMIT = 1 << 22

    def merge_arrays(self, trees: Sequence[TreeArrays]) -> TreeArrays:
        """K-way structure merge; label merge is one batched OR per tree."""
        width = self.total_tasks
        nbytes = (width + 7) // 8
        for t in trees:  # repro-lint: disable=hot-path-loop (per input tree, k-bounded validation)
            if t.width is not None and t.width != width:
                raise ValueError(
                    f"width mismatch: {width} vs {t.width} (the original "
                    "representation requires global agreement on job size)")
        frame_ids, parents, level_offsets, group_refs, groups, path_ids = \
            merge_structure(trees)
        n_groups = len(groups)
        out = np.zeros((n_groups, nbytes), dtype=np.uint8)
        if not n_groups:
            return TreeArrays(KIND_DENSE, frame_ids, parents, group_refs,
                              level_offsets, out, width=width,
                              path_ids=path_ids)

        grp, tre, row = _flat_pairs(groups)
        k = len(trees)
        lo_t = np.empty(k, dtype=np.int64)
        hi_t = np.empty(k, dtype=np.int64)
        for i, t in enumerate(trees):  # repro-lint: disable=hot-path-loop (per input tree, k-bounded)
            lo_t[i], hi_t[i] = t.overall_span()
        w_t = hi_t - lo_t

        # Contributors from different subtrees usually carry bits in
        # disjoint byte ranges (the hierarchical insight, exploited inside
        # the dense kernel): when every tree's span is pairwise disjoint,
        # scatter is plain assignment into the zero-filled output.
        nz = np.nonzero(w_t)[0]
        span_order = nz[np.argsort(lo_t[nz], kind="stable")]
        disjoint = bool(np.all(hi_t[span_order][:-1]
                               <= lo_t[span_order][1:])) \
            if span_order.size > 1 else True

        out_flat = out.reshape(-1)
        for w in np.unique(w_t[tre]).tolist():  # repro-lint: disable=hot-path-loop (per distinct span width, not per node)
            if w == 0:
                continue
            bucket = np.nonzero(w_t == w)[0]
            mask = w_t[tre] == w
            grp_b, tre_b, row_b = grp[mask], tre[mask], row[mask]
            if disjoint and grp_b.size * w <= self._SCATTER_LIMIT:
                # Compact matrix of just the span bytes of every distinct
                # label row in this bucket, then one gather + one scatter.
                comp = np.concatenate(
                    [trees[i].labels[:, lo_t[i]:hi_t[i]]
                     for i in bucket.tolist()]) \
                    if bucket.size else np.zeros((0, w), dtype=np.uint8)
                roff = np.zeros(k, dtype=np.int64)
                counts = np.asarray(
                    [trees[i].labels.shape[0] for i in bucket.tolist()],
                    dtype=np.int64)
                roff[bucket] = np.concatenate(
                    ([0], np.cumsum(counts)))[:-1]
                values = comp[roff[tre_b] + row_b]
                starts = grp_b * nbytes + lo_t[tre_b]
                out_flat[starts[:, None]
                         + np.arange(w, dtype=np.int64)] = values
            else:
                # Overlapping spans (e.g. cyclic rank maps) or oversized
                # scatter: batched OR per source tree.
                for i in np.unique(tre_b).tolist():  # repro-lint: disable=hot-path-loop (per source tree, k-bounded)
                    sel = tre_b == i
                    lo, hi = int(lo_t[i]), int(hi_t[i])
                    out[grp_b[sel], lo:hi] |= \
                        trees[i].labels[row_b[sel], lo:hi]

        # Output spans are exact per contributing *row* (falling back to
        # the tree's overall span when it carries no per-row metadata).
        # Per-row exactness is what keeps incremental pairwise folds
        # bit-identical to one k-way merge: a partial's row spans feed
        # the next fold exactly as the original contributors' spans fed
        # the batch merge.
        row_counts = np.asarray([t.labels.shape[0] for t in trees],
                                dtype=np.int64)
        roff_all = np.concatenate(([0], np.cumsum(row_counts)))[:-1]
        n_rows = int(row_counts.sum())
        row_lo = np.empty(n_rows, dtype=np.int64)
        row_hi = np.empty(n_rows, dtype=np.int64)
        for i, t in enumerate(trees):  # repro-lint: disable=hot-path-loop (per input tree, k-bounded)
            sl = slice(int(roff_all[i]), int(roff_all[i] + row_counts[i]))
            if t.spans is None:
                row_lo[sl] = lo_t[i]
                row_hi[sl] = hi_t[i]
            else:
                row_lo[sl] = t.spans[:, 0]
                row_hi[sl] = t.spans[:, 1]
        contrib = roff_all[tre] + row
        span_lo = np.full(n_groups, nbytes, dtype=np.int64)
        span_hi = np.zeros(n_groups, dtype=np.int64)
        np.minimum.at(span_lo, grp, row_lo[contrib])
        np.maximum.at(span_hi, grp, row_hi[contrib])
        spans = np.stack((np.minimum(span_lo, span_hi), span_hi), axis=1)
        return TreeArrays(KIND_DENSE, frame_ids, parents, group_refs,
                          level_offsets, out, spans=spans, width=width,
                          path_ids=path_ids)

    def finalize(self, root_tree: TreeArrays,
                 task_map: TaskMap) -> PrefixTree:
        """Dense labels are already global and rank-ordered: the object
        view of the arrays is the finalized tree."""
        return root_tree.to_prefix_tree()


class HierarchicalLabelScheme(LabelScheme):
    """Optimized representation: labels span only the local subtree.

    The merge pastes children's chunk bytes side by side (concatenation);
    no job-width vector exists anywhere below the front end.
    """

    name = "optimized"
    kind = KIND_HIER

    def daemon_label(self, daemon_id: int, local_width: int,
                     slots: Sequence[int], task_map: TaskMap) -> HierarchicalTaskSet:
        """Subtree-local leaf label over the daemon's own slots."""
        return HierarchicalTaskSet.for_daemon(daemon_id, local_width, slots)

    def merge_arrays(self, trees: Sequence[TreeArrays]) -> TreeArrays:
        """Concatenation merge across disjoint child subtrees."""
        if not trees:
            raise ValueError("merge of zero trees")
        layouts = []
        for t in trees:  # repro-lint: disable=hot-path-loop (per input tree, k-bounded validation)
            if t.layout is None:
                raise ValueError("cannot determine layout of an empty tree")
            layouts.append(t.layout)
        merged_layout = DaemonLayout.concat(layouts)
        nb_t = np.asarray([lay.nbytes for lay in layouts], dtype=np.int64)
        off_t = np.concatenate(([0], np.cumsum(nb_t)))[:-1]
        frame_ids, parents, level_offsets, group_refs, groups, path_ids = \
            merge_structure(trees)
        n_groups = len(groups)
        merged_nbytes = merged_layout.nbytes
        out = np.zeros((n_groups, merged_nbytes), dtype=np.uint8)
        if not n_groups:
            return TreeArrays(KIND_HIER, frame_ids, parents, group_refs,
                              level_offsets, out, layout=merged_layout,
                              path_ids=path_ids)

        grp, tre, row = _flat_pairs(groups)
        k = len(trees)
        out_flat = out.reshape(-1)
        # Chunk byte ranges are disjoint by construction, so each bucket of
        # equal-size chunks is one gather from a compact matrix plus one
        # linear-index scatter — the zero fringe is never touched.
        for nb in np.unique(nb_t[tre]).tolist():  # repro-lint: disable=hot-path-loop (per distinct chunk size, not per node)
            if nb == 0:
                continue
            bucket = np.nonzero(nb_t == nb)[0]
            mask = nb_t[tre] == nb
            grp_b, tre_b, row_b = grp[mask], tre[mask], row[mask]
            comp = np.concatenate([trees[i].labels for i in bucket.tolist()])
            roff = np.zeros(k, dtype=np.int64)
            counts = np.asarray(
                [trees[i].labels.shape[0] for i in bucket.tolist()],
                dtype=np.int64)
            roff[bucket] = np.concatenate(([0], np.cumsum(counts)))[:-1]
            values = comp[roff[tre_b] + row_b]
            starts = grp_b * merged_nbytes + off_t[tre_b]
            out_flat[starts[:, None] + np.arange(nb, dtype=np.int64)] = values
        return TreeArrays(KIND_HIER, frame_ids, parents, group_refs,
                          level_offsets, out, layout=merged_layout,
                          path_ids=path_ids)

    def finalize(self, root_tree: TreeArrays,
                 task_map: TaskMap) -> PrefixTree:
        """The front-end **remap** (Section V-C; 0.66 s at 208K tasks).

        Rearranges every distinct concatenation-ordered label row into
        MPI rank order in one pass over the label matrix, returning a
        dense-labelled tree suitable for rendering and equivalence-class
        extraction.
        """
        if root_tree.kind != KIND_HIER:
            raise TypeError("tree does not carry hierarchical labels")
        remapper = RankRemapper(root_tree.layout, task_map)
        return TreeArrays(
            KIND_DENSE, root_tree.frame_ids, root_tree.parents,
            root_tree.label_refs, root_tree.level_offsets,
            remapper.remap_rows(root_tree.labels),
            width=remapper.total_tasks).to_prefix_tree()
