"""Whole-forest vectorized tree construction.

:func:`build_forest` builds *every* daemon's locally merged ``(2D, 3D)``
:class:`~repro.core.treearrays.TreeArrays` pair in one pass — the only
production build kernel.  Building daemon by daemon, even without
per-task objects, is dominated at 8,192 daemons by *fixed
per-NumPy-call overhead*: each daemon's element analysis is a dozen
kernel launches over a few hundred elements.  This module hoists those
launches to forest scope:

* rank states are fetched with **one** provider call per sampling
  instant, over exactly the requested daemons' ranks;
* progress-engine depth and time-of-day draws are one keyed draw per
  block (:func:`~repro.core.sampling.walk_words`, then
  ``StackModel.walk_draws``): no per-daemon generator, no per-daemon
  loop.  State+draw tuples resolve to interned trace ids through a
  dense ``(thread, composite key)`` table (``StackModel.ukey_lut``),
  one gather per thread id;
* the per-daemon "group elements by trace" step becomes **one**
  row-wise stable sort per block plus flat segment-boundary scans, and
  every segment's slot set is packed to label bits by blockwise
  ``np.packbits``.  The sort key is the trace-id matrix cast to the
  narrowest unsigned dtype that holds the block's largest id, so below
  2^16 ids numpy's stable sort runs as a radix sort; the order is the
  same as the ``int64`` one.  The 2D tree is not sorted again: its
  order is the 3D order filtered to the last instant's columns
  (filtering a stable order keeps it stable);
* daemons are then *grouped by their ordered distinct-trace tuple*;
  a group shares its BFS structure, contributor combinations and
  segment permutation.  Each group probes the stack model's structure
  cache once, and every miss of a block is built in **one**
  :func:`~repro.core.buildarrays.build_structures` pass (one
  ``np.unique`` and one ``lexsort`` for all of them; combinations by
  the chain-head rule stated there);
* label rows come from one block-wide *label pass*, whatever the
  grouping: one gather of packed segment words and one
  ``bitwise_or.reduceat`` give every combination of every daemon its
  row, one stable ``lexsort`` over the row words keeps each daemon's
  first occurrence of every distinct row, and one gather maps every
  node to its daemon-local row.  Populations that share no trace tuple
  (``uniform:64``: hundreds of groups per block) cost the same handful
  of array operations as a homogeneous one.

What remains per daemon is a few array views and one ``TreeArrays``
allocation.  Output is bit-identical to a per-object scalar walk of
every slot that reads the same keyed words one walk at a time
(``tests/test_build_equivalence.py`` holds it to the frozen oracle in
``tests/per_object_oracle.py``).  A word is keyed on the daemon's id,
never on its row, so a daemon's trees do not depend on which daemons
share its block.

Every population shape takes this pipeline, never an approximation:
ragged task maps run it once per distinct daemon width (zero-width
daemons get empty trees); mixed draw signatures and threaded
populations take the same draw and the same table.
"""

from __future__ import annotations

# Hot path: the build kernel must stay per-forest/per-block.

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.buildarrays import TreeStructure, build_structures
from repro.core.merge import DenseLabelScheme, LabelScheme
from repro.core.sampling import walk_words
from repro.core.taskset import DaemonLayout, TaskMap, _pack_indices
from repro.core.treearrays import KIND_DENSE, KIND_HIER, TreeArrays
from repro.lint.contracts import contract
from repro.mpi.stacks import StackModel
from repro.perf.counters import (
    BUILD_DAEMONS,
    BUILD_STRUCT_HITS,
    BUILD_STRUCT_MISSES,
    BUILD_TRACES,
    PERF,
)

__all__ = ["build_forest", "FOREST_CHUNK_ELEMS"]

#: walks (matrix elements) per pipeline block.  The block's element-sized
#: int64 matrices stay at 2 MiB, so the allocator recycles them block
#: after block: one block over a 1,664-daemon forest mapped, faulted in
#: and unmapped ~130 MB of fresh pages on every build, and what those
#: faults cost is the host's to decide — it made identical sessions differ.
FOREST_CHUNK_ELEMS = 1 << 18

#: cap on the transient segment-bitmask block (bools) in :func:`_pack_segments`
_MASK_BLOCK_BOOLS = 1 << 26


@contract("elems:(r,n):int64 -> order:(r,n):int64")
def _block_order(elems: np.ndarray) -> np.ndarray:
    """Row-wise stable sort order of a block's trace ids.

    Trace ids are non-negative, so the key is ``elems`` cast to the
    narrowest unsigned dtype that holds the largest one
    (``np.min_scalar_type``): with ids below 2^16 numpy's stable sort
    is a radix sort.  A stable order is unique, so it equals the
    ``int64`` stable ``argsort`` whatever the key's width.
    """
    keys = elems.astype(np.min_scalar_type(int(elems.max())))
    return np.argsort(keys, axis=1, kind="stable")


@contract("order:(r,n):int64 -> tail:(r,m):int64")
def _tail_order(order: np.ndarray, last: int) -> np.ndarray:
    """The stable order of each row's last ``last`` columns.

    Filtering a row's stable order to the columns ``>= cut`` keeps
    their relative order, which is the stable order of
    ``elems[:, cut:]`` once shifted by ``cut``.
    """
    rows, n = order.shape
    cut = n - last
    return order[order >= cut].reshape(rows, last) - cut


@contract("elems:(r,n):int64, order:(r,n):int64 -> seg_ptr:(q):int64, "
          "first:(s):int64, vals:(s):int64, packed:(s,p):uint8")
def _segment_rows(elems: np.ndarray, order: np.ndarray, width: int,
                  threads: int) -> Tuple[np.ndarray, np.ndarray,
                                         np.ndarray, np.ndarray]:
    """Row-wise grouping of elements by trace id, forest-wide.

    ``order`` is the row-wise stable sort order of ``elems``
    (:func:`_block_order`, or :func:`_tail_order` of it).  For each
    row (daemon), elements with equal trace ids form a segment; the
    stable order keeps original element order within a segment, so a
    segment's first element is the trace's first occurrence and its
    slots ascend within each instant (elements are
    ``(slot, thread)``-major per instant, so a column's slot is
    ``(column mod width*threads) // threads``).  Returns flat arrays
    over all segments of all rows:

    * ``seg_ptr`` — ``seg_ptr[i]:seg_ptr[i+1]`` are row ``i``'s segments;
    * ``first``   — column of each segment's first element in its row
      (the trace's first-seen position, for BFS insertion order);
    * ``vals``    — each segment's trace id (ascending within a row);
    * ``packed``  — each segment's slot set as packed label bits,
      zero-padded to a whole number of 64-bit words.
    """
    num_rows, n = elems.shape
    flat = np.take_along_axis(elems, order, axis=1).ravel()
    sorted_slots = (order % (width * threads)).ravel()
    if threads > 1:
        sorted_slots //= threads
    is_start = np.empty(flat.size, dtype=bool)
    is_start[0] = True
    np.not_equal(flat[1:], flat[:-1], out=is_start[1:])
    if num_rows > 1:
        is_start[n::n] = True  # a row boundary always starts a segment
    starts = np.flatnonzero(is_start)
    counts = np.diff(np.append(starts, flat.size))
    per_row = np.bincount(starts // n, minlength=num_rows)
    seg_ptr = np.concatenate(([0], np.cumsum(per_row)))
    first = order.ravel()[starts]
    vals = flat[starts]
    packed = _pack_segments(starts, counts, sorted_slots, width)
    return seg_ptr, first, vals, packed


@contract("starts:(s):int64, counts:(s):int64, sorted_slots:(e):int64 "
          "-> packed:(s,p):uint8")
def _pack_segments(starts: np.ndarray, counts: np.ndarray,
                   sorted_slots: np.ndarray, width: int) -> np.ndarray:
    """Pack every segment's slots into label-bit rows, blockwise.

    One boolean scatter + ``np.packbits`` per block of segments; blocks
    bound the transient ``segments x padded-width`` mask so populations
    with many tiny segments (every trace distinct) cannot blow up
    memory.  Rows are zero-padded to a multiple of 8 bytes so the
    assembly step can compare and union them as 64-bit words.
    """
    num = starts.size
    nbytes_pad = ((width + 63) // 64) * 8
    bits_pad = nbytes_pad * 8
    packed = np.empty((num, nbytes_pad), dtype=np.uint8)
    block = max(1, _MASK_BLOCK_BOOLS // bits_pad)
    for b0 in range(0, num, block):  # per bounded-size allocation block, not per segment
        b1 = min(num, b0 + block)
        e0 = int(starts[b0])
        e1 = int(starts[b1]) if b1 < num else sorted_slots.size
        mask = np.zeros((b1 - b0, bits_pad), dtype=bool)
        mask[np.repeat(np.arange(b1 - b0), counts[b0:b1]),
             sorted_slots[e0:e1]] = True
        packed[b0:b1] = np.packbits(mask, axis=1)
    return packed


class _ForestScheme:
    """Per-scheme constants shared by the assembly loop."""

    __slots__ = ("scheme", "dense", "total_tasks", "nbytes")

    def __init__(self, scheme: LabelScheme, width: int) -> None:
        self.scheme = scheme
        self.dense = isinstance(scheme, DenseLabelScheme)
        self.total_tasks = scheme.total_tasks if self.dense else 0
        self.nbytes = (width + 7) // 8  # daemon-width label row bytes


@contract("ptr:(q):int64, group_of:(r):int64 -> index:(e):int64, "
          "row_ptr:(p):int64")
def _per_row(ptr: np.ndarray, group_of: np.ndarray
             ) -> Tuple[np.ndarray, np.ndarray]:
    """Lay every row's group slice of a group-concatenated array end to end.

    ``ptr[g]:ptr[g + 1]`` is group ``g``'s slice; returns ``index``, the
    positions that gather row ``0``'s group slice, then row ``1``'s, and
    so on, and ``row_ptr``, where each row's copy starts and ends.
    """
    lengths = np.diff(ptr)[group_of]
    row_ptr = np.zeros(group_of.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=row_ptr[1:])
    index = np.repeat(ptr[:-1][group_of] - row_ptr[:-1], lengths) \
        + np.arange(int(row_ptr[-1]))
    return index, row_ptr


def _concat(arrays: List[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """One array and its CSR pointer from a list of 1-D int64 arrays."""
    ptr = np.zeros(len(arrays) + 1, dtype=np.int64)
    np.cumsum([a.size for a in arrays], out=ptr[1:])
    return np.concatenate(arrays), ptr


@contract("ranks_matrix:(r,w):int64 -> *")
def _assemble_chunk(chunk: List[int],
                    segments: Tuple[np.ndarray, np.ndarray, np.ndarray,
                                    np.ndarray],
                    num_cols: int, width: int, model: StackModel,
                    fscheme: _ForestScheme,
                    ranks_matrix: np.ndarray,
                    row_caches: Optional[List[dict]],
                    ) -> List[TreeArrays]:
    """Trees for one chunk of daemons from their trace segments.

    ``segments`` is :func:`_segment_rows` of the chunk's
    ``(daemons, num_cols)`` element matrix.  Daemons are grouped by
    ordered distinct-trace tuple, and a group
    shares its BFS structure, contributor combinations and value-order-
    to-first-seen permutation.  Structures missing from the model's
    cache are built in one :func:`build_structures` call; then every
    combination of every daemon gets its label row from one
    ``bitwise_or.reduceat``, first-occurrence row dedup is one
    ``lexsort`` over the row words, and node->row references
    are one gather — for the whole chunk, whatever its grouping.
    """
    rows = len(chunk)
    seg_ptr, first, vals, packed = segments
    seg_counts = np.diff(seg_ptr)
    kmax = int(seg_counts.max())
    nseg = vals.size
    seg_row = np.repeat(np.arange(rows), seg_counts)
    seg_col = np.arange(nseg) - seg_ptr[seg_row]
    # Per-row matrices of the distinct traces (value order) and their
    # first-occurrence columns; padding sorts after any real column.
    kmat = np.full((rows, kmax), -1, dtype=np.int64)
    kmat[seg_row, seg_col] = vals
    fmat = np.full((rows, kmax), num_cols, dtype=np.int64)
    fmat[seg_row, seg_col] = first
    perm2d = np.argsort(fmat, axis=1, kind="stable")
    okeys = np.take_along_axis(kmat, perm2d, axis=1)
    _, rep, ginv = np.unique(okeys, axis=0, return_index=True,
                             return_inverse=True)
    ginv = np.asarray(ginv).reshape(-1)
    rep_counts = seg_counts[rep]

    # One cache probe per group; one structure pass for every miss.
    cache = model.struct_cache
    keys = [tuple(okeys[r, :k].tolist())
            for r, k in zip(rep.tolist(), rep_counts.tolist())]  # per group: the cache key
    structs: List[Optional[TreeStructure]] = [cache.get(k) for k in keys]
    missing = [g for g, s in enumerate(structs) if s is None]  # per group
    PERF.add(BUILD_STRUCT_HITS, rows - len(missing))
    if missing:
        PERF.add(BUILD_STRUCT_MISSES, len(missing))
        tuples = okeys[rep[missing]]
        built = build_structures(model.trace_paths(), tuples[tuples >= 0],
                                 rep_counts[missing])
        for g, struct in zip(missing, built):  # per missing group: cache insert
            structs[g] = cache[keys[g]] = struct

    # Every combination of every row: its members' segments, OR-ed.
    pos_all, pos_ptr = _concat([s.combo_pos for s in structs])
    seg_of_pos = perm2d[np.repeat(rep, np.diff(pos_ptr)), pos_all]
    pos_index, pos_row_ptr = _per_row(pos_ptr, ginv)
    members = np.repeat(seg_ptr[:-1], np.diff(pos_row_ptr)) \
        + seg_of_pos[pos_index]
    sizes_all, combo_ptr = _concat([np.diff(s.combo_ptr) for s in structs])
    combo_index, combo_row_ptr = _per_row(combo_ptr, ginv)
    sizes = sizes_all[combo_index]
    words = packed.shape[1] // 8
    packed64 = packed.view(np.uint64).reshape(nseg, words)
    num_entries = sizes.size
    bits = np.bitwise_or.reduceat(packed64[members],
                                  np.cumsum(sizes) - sizes, axis=0) \
        if num_entries else np.zeros((0, words), dtype=np.uint64)
    # First-occurrence dedup of each daemon's label rows, exactly
    # mirroring a per-daemon dict dedup: entries are daemon-major, so a
    # stable sort by the row words alone keeps each daemon's equal rows
    # side by side, earliest first.
    entry_row = np.repeat(np.arange(rows), np.diff(combo_row_ptr))
    order = np.lexsort(bits.T[::-1])
    sbits = bits[order]
    new_run = np.ones(num_entries, dtype=bool)
    new_run[1:] = (sbits[1:] != sbits[:-1]).any(axis=1) \
        | (entry_row[order[1:]] != entry_row[order[:-1]])
    first_occ = np.empty(num_entries, dtype=np.int64)
    first_occ[order] = order[np.flatnonzero(new_run)][np.cumsum(new_run) - 1]
    is_first = first_occ == np.arange(num_entries)
    kept = np.ascontiguousarray(
        bits[is_first].view(np.uint8)[:, :fscheme.nbytes])
    kept_ptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(entry_row[is_first], minlength=rows),
              out=kept_ptr[1:])
    local_id = (np.cumsum(is_first) - 1)[first_occ] - kept_ptr[entry_row]
    refs_all, refs_ptr = _concat([s.combo_refs for s in structs])
    ref_index, ref_row_ptr = _per_row(refs_ptr, ginv)
    refs = local_id[np.repeat(combo_row_ptr[:-1], np.diff(ref_row_ptr))
                    + refs_all[ref_index]]

    out: List[TreeArrays] = []
    kept_cut = kept_ptr.tolist()
    ref_cut = ref_row_ptr.tolist()
    for ri, g in enumerate(ginv.tolist()):  # per daemon: views of the chunk arrays into one TreeArrays
        struct = structs[g]
        labels = kept[kept_cut[ri]:kept_cut[ri + 1]]
        label_refs = refs[ref_cut[ri]:ref_cut[ri + 1]]
        if fscheme.dense:
            out.append(_dense_tree(
                struct, labels, label_refs, width, fscheme,
                ranks_matrix[ri], row_caches[ri]))
        else:
            out.append(TreeArrays._trusted(
                KIND_HIER, struct.frame_ids, struct.parents, label_refs,
                struct.level_offsets, labels,
                layout=DaemonLayout.shared(chunk[ri], width),
                path_ids=struct.path_ids))
    return out


@contract("daemon_bits:(u,b):uint8, label_refs:(n):int64, "
          "local_ranks:(w):int64 -> *")
def _dense_tree(struct: TreeStructure, daemon_bits: np.ndarray,
                label_refs: np.ndarray, width: int,
                fscheme: _ForestScheme, local_ranks: np.ndarray,
                row_cache: Dict[bytes, Tuple[np.ndarray,
                                             Tuple[int, int]]],
                ) -> TreeArrays:
    """Job-width dense tree from a daemon's packed daemon-width rows."""
    rows: List[np.ndarray] = []
    spans: List[Tuple[int, int]] = []
    blob = daemon_bits.tobytes()
    nbytes = fscheme.nbytes
    for r in range(daemon_bits.shape[0]):  # per unique label row; dense trees have a handful
        bkey = blob[r * nbytes:(r + 1) * nbytes]
        hit = row_cache.get(bkey)
        if hit is None:
            slot_ids = np.flatnonzero(
                np.unpackbits(daemon_bits[r], count=width).astype(bool))
            ranks = np.sort(local_ranks[slot_ids])
            data = _pack_indices(ranks, fscheme.total_tasks)
            span = (0, 0) if ranks.size == 0 \
                else (int(ranks[0]) >> 3, (int(ranks[-1]) >> 3) + 1)
            hit = row_cache[bkey] = (data, span)
        rows.append(hit[0])
        spans.append(hit[1])
    labels = np.vstack(rows) if rows \
        else np.zeros((0, (fscheme.total_tasks + 7) // 8), dtype=np.uint8)
    return TreeArrays._trusted(
        KIND_DENSE, struct.frame_ids, struct.parents, label_refs,
        struct.level_offsets, labels,
        spans=np.asarray(spans, dtype=np.int64).reshape(-1, 2),
        width=fscheme.total_tasks, path_ids=struct.path_ids)


@contract("daemons:(r):int64, sids_matrix:(r,m):int64 "
          "-> elems:(r,n):int64")
def _sample_elements(key: int, daemons: np.ndarray,
                     sids_matrix: np.ndarray, num_samples: int,
                     threads: int, model: StackModel) -> np.ndarray:
    """Interned trace ids for every walk of one block of daemons.

    Row ``i`` holds daemon ``daemons[i]``'s walks in ``(instant, slot,
    thread)`` order.  Every walk's draws come from its keyed word
    (:func:`~repro.core.sampling.walk_words` over the daemon's id, never
    its row), all of the block's in one call.  Column ``c`` is then a
    walk of thread ``c % threads`` with composite key ``(sid * (high +
    1) + depth) * 2 + tod``, and ``model.ukey_lut[t, key]`` is that
    walk's trace id whatever the session's thread count: one gather per
    thread id.  The table is grown and filled lazily; only never-seen
    entries pay the registry lookup.
    """
    sids = np.repeat(sids_matrix, threads, axis=1) if threads > 1 \
        else sids_matrix
    rows, n = sids.shape
    column = np.arange(n // num_samples)
    words = walk_words(key, daemons[:, None, None],
                       np.arange(num_samples)[None, :, None],
                       column // threads, column % threads)
    depths, tods = model.walk_draws(model.state_signatures()[sids],
                                    words.reshape(rows, n))
    del words
    depth_base = model.DEPTH_RANGE[1] + 1
    ukeys = depths  # the composite keys, built in place
    ukeys += sids * depth_base
    ukeys *= 2
    ukeys += tods
    need = int(ukeys.max()) + 1
    have_threads, have_keys = model.ukey_lut.shape
    if have_threads < threads or have_keys < need:
        model.ukey_lut = np.pad(model.ukey_lut, (
            (0, max(threads - have_threads, 0)),
            (0, max(need - have_keys, 64))), constant_values=-1)
    lut = model.ukey_lut
    ids = np.empty_like(ukeys)
    # mode="clip" writes ``out`` unbuffered; every key is below ``need``.
    for tid in range(threads):  # per thread id: one gather of its columns
        keys, got = ukeys[:, tid::threads], ids[:, tid::threads]
        np.take(lut[tid], keys, out=got, mode="clip")
        missing = got < 0
        if missing.any():
            for packed in np.unique(keys[missing]).tolist():  # per never-seen composite key, not per element
                half, tod = divmod(packed, 2)
                sid, depth = divmod(half, depth_base)
                lut[tid, packed] = model.trace_id(sid, depth, bool(tod), tid)
            np.take(lut[tid], keys, out=got, mode="clip")
    return ids


def _empty_tree(daemon_id: int, fscheme: _ForestScheme) -> TreeArrays:
    """The tree of a daemon with no local tasks."""
    if fscheme.dense:
        return TreeArrays.empty(KIND_DENSE, width=fscheme.total_tasks)
    return TreeArrays.empty(KIND_HIER,
                            layout=DaemonLayout.shared(daemon_id, 0))


def build_forest(task_map: TaskMap, scheme: LabelScheme,
                 stack_model: StackModel,
                 states_array: Callable[[np.ndarray], np.ndarray],
                 num_samples: int, key: int,
                 daemon_ids: Optional[List[int]] = None,
                 threads_per_process: int = 1,
                 ) -> List[Tuple[TreeArrays, TreeArrays]]:
    """Build ``(2D, 3D)`` tree pairs for a whole daemon population.

    Provider contract: ``states_array`` is called exactly
    ``num_samples`` times, in instant order, before any draw.  Each
    call receives the requested daemons' ranks, concatenated in
    ``daemon_ids`` order, and returns their interned state ids; a live
    provider may therefore advance its application between calls
    (:class:`~repro.core.timeline.TimelineSampler`).  ``key`` is the
    session's root key: walk ``(daemon, instant, slot, thread)`` draws
    from ``walk_words(key, daemon, instant, slot, thread)``, so a
    daemon's trees are the same whether it is built alone, in any
    subset, or in any block split.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    ids = list(range(len(task_map))) if daemon_ids is None \
        else [int(d) for d in daemon_ids]
    if not ids:
        return []
    threads = threads_per_process
    local_ranks = [task_map.ranks_of(d) for d in ids]
    widths = np.asarray([r.size for r in local_ranks], dtype=np.int64)
    starts = np.cumsum(widths) - widths  # each daemon's offset in `ranks`
    ranks = np.concatenate(local_ranks)
    sid_of_pos: List[np.ndarray] = []
    for _ in range(num_samples):  # one provider query per sampling instant
        sids = np.asarray(states_array(ranks), dtype=np.int64)
        if sids.size != ranks.size:
            raise ValueError(f"states_array returned {sids.size} ids for "
                             f"{ranks.size} ranks")
        sid_of_pos.append(sids)

    out: List[Optional[Tuple[TreeArrays, TreeArrays]]] = [None] * len(ids)
    PERF.add(BUILD_DAEMONS, len(ids))
    PERF.add(BUILD_TRACES, float(ranks.size) * threads * num_samples)

    # The matrix pipeline needs equal-width rows: run it once per
    # distinct daemon width (one pass for every regular task map).
    for width in np.unique(widths).tolist():  # per distinct daemon width; one for regular maps
        members = np.flatnonzero(widths == width)
        fscheme = _ForestScheme(scheme, width)
        if width == 0:
            for p in members.tolist():  # per zero-width daemon: two empty-tree allocations
                out[p] = (_empty_tree(ids[p], fscheme),
                          _empty_tree(ids[p], fscheme))
            continue
        per_instant = width * threads
        n = per_instant * num_samples
        step = max(1, FOREST_CHUNK_ELEMS // n)
        for lo in range(0, members.size, step):  # per bounded-memory daemon block
            rows = members[lo:lo + step]
            chunk = [ids[p] for p in rows.tolist()]
            cols = starts[rows][:, None] + np.arange(width)
            ranks_matrix = ranks[cols]
            sids_matrix = np.concatenate(
                [s[cols] for s in sid_of_pos], axis=1)
            elems = _sample_elements(key, np.asarray(chunk), sids_matrix,
                                     num_samples, threads, stack_model)

            # One sort per block: the 2D tree reads the last instant's
            # columns in the 3D tree's order.  Both trees' segments are
            # taken before either tree is assembled, so the element-
            # sized order is not held through an assembly.
            order = _block_order(elems)
            segments_2d = _segment_rows(elems[:, n - per_instant:],
                                        _tail_order(order, per_instant),
                                        width, threads)
            segments_3d = _segment_rows(elems, order, width, threads)
            del order
            row_caches = [{} for _ in chunk] if fscheme.dense else None
            trees_2d = _assemble_chunk(
                chunk, segments_2d, per_instant, width, stack_model,
                fscheme, ranks_matrix, row_caches)
            del segments_2d
            trees_3d = _assemble_chunk(
                chunk, segments_3d, n, width, stack_model, fscheme,
                ranks_matrix, row_caches)
            for p, pair in zip(rows.tolist(), zip(trees_2d, trees_3d)):  # per daemon: places the pair at its requested position
                out[p] = pair
    return out
