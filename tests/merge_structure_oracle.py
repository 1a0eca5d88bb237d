"""Frozen per-level oracle for ``repro.core.treearrays.merge_structure``.

This is the body ``merge_structure`` had while a tree node was
``(frame id, parent index)`` and every merge re-discovered path identity
level by level — one ``np.unique`` over ``(merged parent, frame id)``
keys, three argsorts and one ``dedup_segments`` *per tree level*, with a
cross-level dictionary of contributor combinations — moved here verbatim
(only ``TreeArrays.bundle()``, deleted with the loop, is inlined as
:func:`_bundle`).  It lives under ``tests/`` — not in the package — and
exists only so ``test_merge_order.py`` can demand the same five outputs,
**order included**, from the path-interned kernel.  Do not optimise it.

:func:`oracle_getstate` is likewise the ``TreeArrays.__getstate__`` body
of that commit: the pickle of a tree must not learn about path ids.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.buildarrays import dedup_segments
from repro.core.interning import FRAMES
from repro.core.treearrays import TreeArrays

__all__ = ["oracle_merge_structure", "oracle_getstate"]

_EMPTY_I64 = np.zeros(0, dtype=np.int64)


def _bundle(tree: TreeArrays) -> np.ndarray:
    """``(4, n)`` stack of frame ids, parents, label refs, levels."""
    counts = np.diff(tree.level_offsets)
    b = np.empty((4, tree.frame_ids.size), dtype=np.int64)
    b[0] = tree.frame_ids
    b[1] = tree.parents
    b[2] = tree.label_refs
    b[3] = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    return b


def oracle_merge_structure(trees: Sequence[TreeArrays]) -> Tuple[
        np.ndarray, np.ndarray, np.ndarray, np.ndarray,
        List[Tuple[np.ndarray, np.ndarray]]]:
    k = len(trees)
    bundles = [_bundle(t) for t in trees]
    counts = np.asarray([b.shape[1] for b in bundles], dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return (_EMPTY_I64, _EMPTY_I64, np.zeros(1, dtype=np.int64),
                _EMPTY_I64, [])
    offsets = np.zeros(k, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])

    frames_all, parents_local, label_refs, levels = \
        np.concatenate(bundles, axis=1)
    tree_idx = np.repeat(np.arange(k, dtype=np.int64), counts)
    parents_global = np.where(parents_local >= 0,
                              parents_local + offsets[tree_idx], -1)

    order = np.argsort(levels, kind="stable")
    n_levels = int(levels.max()) + 1
    bounds = np.searchsorted(levels[order],
                             np.arange(n_levels + 1, dtype=np.int64))

    key_base = np.int64(len(FRAMES))
    merged_of = np.empty(total, dtype=np.int64)
    out_frames: List[np.ndarray] = []
    out_parents: List[np.ndarray] = []
    out_offsets = [0]
    group_refs: List[np.ndarray] = []
    group_index: dict = {}
    groups: List[Tuple[np.ndarray, np.ndarray]] = []
    out_count = 0

    for lvl in range(n_levels):
        idx = order[bounds[lvl]:bounds[lvl + 1]]
        frames_lvl = frames_all[idx]
        if lvl == 0:
            parent_merged = np.full(idx.size, -1, dtype=np.int64)
            key = frames_lvl
        else:
            parent_merged = merged_of[parents_global[idx]]
            key = (parent_merged + 1) * key_base + frames_lvl
        uniq, first, inverse = np.unique(key, return_index=True,
                                         return_inverse=True)
        # np.unique sorts by key; re-rank groups by first occurrence so the
        # merged children keep the object kernels' first-seen order.
        seen_order = np.argsort(first, kind="stable")
        rank = np.empty(uniq.size, dtype=np.int64)
        rank[seen_order] = np.arange(uniq.size)
        local = rank[inverse]
        merged_of[idx] = out_count + local
        rep = first[seen_order]
        out_frames.append(frames_lvl[rep])
        out_parents.append(parent_merged[rep])
        out_count += int(uniq.size)
        out_offsets.append(out_count)

        # Contributor grouping: members of one merged node, in tree order.
        member_order = np.argsort(local, kind="stable")
        sorted_members = idx[member_order]
        node_bounds = np.searchsorted(local[member_order],
                                      np.arange(uniq.size + 1))
        trees_sorted = tree_idx[sorted_members]
        refs_sorted = label_refs[sorted_members]
        # One vectorized dedup over the level's member segments; only the
        # few *distinct* combinations then pass through the cross-level
        # group dictionary.
        refs, reps = dedup_segments(node_bounds,
                                    (trees_sorted, refs_sorted))
        gid_of = np.empty(reps.size, dtype=np.int64)
        for r, rep in enumerate(reps.tolist()):
            lo, hi = int(node_bounds[rep]), int(node_bounds[rep + 1])
            pair_t = trees_sorted[lo:hi]
            pair_r = refs_sorted[lo:hi]
            ck = (pair_t.tobytes(), pair_r.tobytes())
            gid = group_index.get(ck)
            if gid is None:
                gid = group_index[ck] = len(groups)
                groups.append((pair_t, pair_r))
            gid_of[r] = gid
        group_refs.append(gid_of[refs])

    return (np.concatenate(out_frames),
            np.concatenate(out_parents),
            np.asarray(out_offsets, dtype=np.int64),
            np.concatenate(group_refs),
            groups)


def oracle_getstate(tree: TreeArrays) -> dict:
    uniq, inverse = np.unique(tree.frame_ids, return_inverse=True)
    table = [(f.function, f.module) for f in FRAMES.frames_of(uniq)]
    return {
        "kind": tree.kind,
        "frame_local": inverse.astype(np.int64),
        "frame_table": table,
        "parents": tree.parents,
        "label_refs": tree.label_refs,
        "level_offsets": tree.level_offsets,
        "labels": tree.labels,
        "spans": tree.spans,
        "width": tree.width,
        "layout": tree.layout,
    }
