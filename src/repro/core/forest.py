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
* progress-engine depth draws still come from each daemon's own RNG
  (bit-exactness demands it) but land in one ``(daemons, elements)``
  matrix, and state+draw tuples resolve to interned trace ids through a
  dense composite-key table (``StackModel.ukey_lut``) with a single
  gather;
* the per-daemon "group elements by trace" step becomes one row-wise
  stable ``argsort`` of the whole matrix plus flat segment-boundary
  scans, and every segment's slot set is packed to label bits by
  blockwise ``np.packbits``;
* daemons are then *grouped by their ordered distinct-trace tuple* —
  populations have a handful of distinct tuples, and within a group the
  BFS structure, contributor combinations, and segment permutation are
  all identical, so label-row unions, first-occurrence dedup, and
  node-to-row reference mapping run as one batch of matrix ops per
  group instead of per daemon.

What remains per daemon is a few array views, an optional RNG draw, and
one ``TreeArrays`` allocation.  Output is bit-identical to the
per-object oracle (:func:`repro.perf.reference.reference_daemon_trees`,
pinned by ``tests/test_build_equivalence.py``).

Every population shape takes this pipeline, never an approximation:
ragged task maps run it once per distinct daemon width (zero-width
daemons get empty trees); rows whose states draw interleaved
depth+time-of-day coins (``SIG_DEPTH_TOD``) or mix drawing and
non-drawing states, and every row of a multi-threaded population,
replay the exact scalar draw sequence through the batch sampler.
"""

from __future__ import annotations

# repro-lint: hot-path — the build kernel must stay per-forest/per-group.

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.buildarrays import TreeStructure, build_structure
from repro.core.merge import DenseLabelScheme, LabelScheme
from repro.core.sampling import BatchWalkSampler
from repro.core.taskset import DaemonLayout, TaskMap, _pack_indices
from repro.core.treearrays import KIND_DENSE, KIND_HIER, TreeArrays
from repro.lint.contracts import contract
from repro.mpi.stacks import SIG_DEPTH, StackModel
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


@contract("ukeys:(m):int64 -> ids:(m):int64")
def _lut_resolve(model: StackModel, ukeys: np.ndarray) -> np.ndarray:
    """Trace ids for composite ``(state, depth)`` keys via a dense table.

    ``ukey = (sid * (high + 1) + depth) * 2`` (time-of-day bit clear —
    rows that draw it bypass this path).  The table is grown and filled
    lazily; only never-seen keys pay the registry lookup.
    """
    lut = model.ukey_lut
    top = int(ukeys.max()) + 1 if ukeys.size else 1
    if lut is None or lut.size < top:
        grown = np.full(max(top, 64), -1, dtype=np.int64)
        if lut is not None:
            grown[:lut.size] = lut
        lut = model.ukey_lut = grown
    ids = lut[ukeys]
    missing = ids < 0
    if missing.any():
        depth_base = model.DEPTH_RANGE[1] + 1
        for packed in np.unique(ukeys[missing]).tolist():  # repro-lint: disable=hot-path-loop (per never-seen composite key, not per element)
            half, tod = divmod(packed, 2)
            sid, depth = divmod(half, depth_base)
            lut[packed] = model.trace_id(sid, depth, bool(tod), 0)
        ids = lut[ukeys]
    return ids


@contract("elems:(r,n):int64 -> seg_ptr:(q):int64, first:(s):int64, "
          "vals:(s):int64, packed:(s,p):uint8")
def _segment_rows(elems: np.ndarray, width: int, threads: int
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                             np.ndarray]:
    """Row-wise grouping of elements by trace id, forest-wide.

    For each row (daemon) of ``elems``, elements with equal trace ids
    form a segment; the stable sort keeps original element order within
    a segment, so a segment's first element is the trace's first
    occurrence and its slots ascend within each instant (elements are
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
    order = np.argsort(elems, axis=1, kind="stable")
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
    for b0 in range(0, num, block):  # repro-lint: disable=hot-path-loop (per bounded-size allocation block, not per segment)
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


@contract("elems:(r,n):int64, ranks_matrix:(r,w):int64 -> *")
def _assemble_chunk(chunk: List[int], elems: np.ndarray, width: int,
                    threads: int, model: StackModel,
                    fscheme: _ForestScheme,
                    ranks_matrix: np.ndarray,
                    row_caches: Optional[List[dict]],
                    ) -> List[TreeArrays]:
    """Trees for one chunk of daemons from their element matrix.

    Daemons are grouped by ordered distinct-trace tuple; within a group
    every per-tree quantity except the label *bits* is shared (same BFS
    structure, same contributor combinations, same value-order-to-
    first-seen permutation), so combo unions, first-occurrence row
    dedup, and node->row reference mapping are computed for all of a
    group's daemons in a fixed number of array ops.
    """
    rows = len(chunk)
    seg_ptr, first, vals, packed = _segment_rows(elems, width, threads)
    seg_counts = np.diff(seg_ptr)
    kmax = int(seg_counts.max())
    nseg = vals.size
    seg_row = np.repeat(np.arange(rows), seg_counts)
    seg_col = np.arange(nseg) - seg_ptr[seg_row]
    # Per-row matrices of the distinct traces (value order) and their
    # first-occurrence columns; padding sorts after any real column.
    kmat = np.full((rows, kmax), -1, dtype=np.int64)
    kmat[seg_row, seg_col] = vals
    fmat = np.full((rows, kmax), elems.shape[1], dtype=np.int64)
    fmat[seg_row, seg_col] = first
    perm2d = np.argsort(fmat, axis=1, kind="stable")
    okeys = np.take_along_axis(kmat, perm2d, axis=1)
    _, ginv = np.unique(okeys, axis=0, return_inverse=True)
    ginv = np.asarray(ginv).reshape(-1)
    order = np.argsort(ginv, kind="stable")
    bounds = np.searchsorted(ginv[order],
                             np.arange(int(ginv[order[-1]]) + 2))

    words = packed.shape[1] // 8
    packed64 = packed.view(np.uint64).reshape(nseg, words)
    out: List[Optional[TreeArrays]] = [None] * rows
    for g in range(bounds.size - 1):  # repro-lint: disable=hot-path-loop (per distinct trace-tuple group; populations have a handful)
        rows_g = order[bounds[g]:bounds[g + 1]]
        r0 = int(rows_g[0])
        k = int(seg_counts[r0])
        vperm = perm2d[r0, :k]
        okey = tuple(okeys[r0, :k].tolist())
        struct: Optional[TreeStructure] = model.struct_cache.get(okey)
        if struct is None:
            struct = model.struct_cache[okey] = build_structure(
                model.trace_paths()[np.asarray(okey, dtype=np.int64)])
            PERF.add(BUILD_STRUCT_MISSES)
            PERF.add(BUILD_STRUCT_HITS, rows_g.size - 1)
        else:
            PERF.add(BUILD_STRUCT_HITS, rows_g.size)
        seg_base = seg_ptr[rows_g]
        num_combos = len(struct.combos)
        parts: List[np.ndarray] = []
        for combo in struct.combos:  # repro-lint: disable=hot-path-loop (per distinct contributor combination of the group's shared structure)
            vids = vperm[combo]
            if combo.size == 1:
                parts.append(packed64[seg_base + int(vids[0])])
            else:
                parts.append(np.bitwise_or.reduce(
                    packed64[seg_base[:, None] + vids[None, :]], axis=1))
        bits = np.stack(parts, axis=1)  # (group, combos, words)
        # First-occurrence dedup of label rows, batched over the group:
        # row c maps to the unique-row id of its first equal
        # predecessor, exactly mirroring the per-daemon dict dedup.
        eq = (bits[:, :, None, :] == bits[:, None, :, :]).all(axis=3)
        first_occ = np.argmax(eq, axis=2)
        is_first = first_occ == np.arange(num_combos)
        new_ids = np.cumsum(is_first, axis=1) - 1
        row_map = np.take_along_axis(new_ids, first_occ, axis=1)
        refs = row_map[:, struct.combo_refs] if struct.combo_refs.size \
            else np.zeros((rows_g.size, 0), dtype=np.int64)
        rsel, csel = np.nonzero(is_first)
        kept = np.ascontiguousarray(
            bits.view(np.uint8).reshape(rows_g.size, num_combos, -1)
            [rsel, csel][:, :fscheme.nbytes])
        offs = np.concatenate(([0], np.cumsum(is_first.sum(axis=1))))
        for j, ri in enumerate(rows_g.tolist()):  # repro-lint: disable=hot-path-loop (per daemon: slices shared group arrays into one TreeArrays)
            daemon_id = chunk[ri]
            labels = kept[offs[j]:offs[j + 1]]
            if fscheme.dense:
                out[ri] = _dense_tree(
                    struct, labels, refs[j], width, fscheme,
                    ranks_matrix[ri], row_caches[ri])
            else:
                out[ri] = TreeArrays._trusted(
                    KIND_HIER, struct.frame_ids, struct.parents,
                    refs[j], struct.level_offsets, labels,
                    layout=DaemonLayout.shared(daemon_id, width),
                    path_ids=struct.path_ids)
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
    for r in range(daemon_bits.shape[0]):  # repro-lint: disable=hot-path-loop (per unique label row; dense trees have a handful)
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


@contract("sids_matrix:(r,m):int64 -> elems:(r,n):int64")
def _sample_elements(chunk: List[int], sids_matrix: np.ndarray,
                     threads: int, model: StackModel,
                     rng_of: Callable[[int],
                                      Optional[np.random.Generator]],
                     ) -> np.ndarray:
    """Interned trace ids for every walk of one chunk of daemons.

    Row ``i`` holds daemon ``chunk[i]``'s walks in ``(instant, slot,
    thread)`` order, drawn from that daemon's own generator exactly as
    the scalar walker would.  Rows that draw nothing, or progress-engine
    depths only, resolve through the dense ``(state, depth)`` table in
    one gather.  Mixed-signature and time-of-day rows replay the scalar
    draw sequence through the batch sampler instead, and so does every
    row of a threaded population — there the trace id depends on the
    thread id even for non-drawing states, which the table cannot key.
    """
    rows, n = sids_matrix.shape
    if threads > 1:
        replay = np.ones(rows, dtype=bool)
        elems = np.empty((rows, n * threads), dtype=np.int64)
    else:
        low, high = model.DEPTH_RANGE
        sigs = model.state_signatures()[sids_matrix]
        draws = sigs.any(axis=1)
        replay = draws & ~(sigs == SIG_DEPTH).all(axis=1)
        depths = np.zeros((rows, n), dtype=np.int64)
        for i in np.flatnonzero(draws & ~replay).tolist():  # repro-lint: disable=hot-path-loop (per drawing daemon: RNG draws must come from each daemon's own generator)
            rng = rng_of(chunk[i])
            if rng is not None and high > low:
                depths[i] = rng.integers(low, high + 1, size=n)
            else:
                depths[i] = low
        ukeys = (sids_matrix * (high + 1) + depths) * 2
        if not replay.any():
            return _lut_resolve(model, ukeys.ravel()).reshape(rows, n)
        elems = np.empty((rows, n), dtype=np.int64)
        elems[~replay] = _lut_resolve(
            model, ukeys[~replay].ravel()).reshape(-1, n)
    for i in np.flatnonzero(replay).tolist():  # repro-lint: disable=hot-path-loop (per exact-replay row: rare single-threaded, every row when threaded)
        elems[i] = BatchWalkSampler(
            model, rng_of(chunk[i]), threads).trace_ids(sids_matrix[i])
    return elems


def _empty_tree(daemon_id: int, fscheme: _ForestScheme) -> TreeArrays:
    """The tree of a daemon with no local tasks."""
    if fscheme.dense:
        return TreeArrays.empty(KIND_DENSE, width=fscheme.total_tasks)
    return TreeArrays.empty(KIND_HIER,
                            layout=DaemonLayout.shared(daemon_id, 0))


def build_forest(task_map: TaskMap, scheme: LabelScheme,
                 stack_model: StackModel,
                 states_array: Callable[[np.ndarray], np.ndarray],
                 num_samples: int,
                 rng_of: Callable[[int], Optional[np.random.Generator]],
                 daemon_ids: Optional[List[int]] = None,
                 threads_per_process: int = 1,
                 ) -> List[Tuple[TreeArrays, TreeArrays]]:
    """Build ``(2D, 3D)`` tree pairs for a whole daemon population.

    ``states_array`` is queried **once per sampling instant** with the
    requested daemons' ranks, concatenated in ``daemon_ids`` order (it
    is rank-wise by contract, so the values equal the per-rank queries
    of the scalar oracle); ``rng_of`` must return the generator the
    oracle would use for that daemon (the emulator's
    ``SeedStream(seed).rng(f"daemon-{id}")``), and draw order within a
    daemon matches the scalar walk order exactly.
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
    for _ in range(num_samples):  # repro-lint: disable=hot-path-loop (one provider query per sampling instant)
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
    for width in np.unique(widths).tolist():  # repro-lint: disable=hot-path-loop (per distinct daemon width; one for regular maps)
        members = np.flatnonzero(widths == width)
        fscheme = _ForestScheme(scheme, width)
        if width == 0:
            for p in members.tolist():  # repro-lint: disable=hot-path-loop (per zero-width daemon: two empty-tree allocations)
                out[p] = (_empty_tree(ids[p], fscheme),
                          _empty_tree(ids[p], fscheme))
            continue
        per_instant = width * threads
        n = per_instant * num_samples
        step = max(1, FOREST_CHUNK_ELEMS // n)
        for lo in range(0, members.size, step):  # repro-lint: disable=hot-path-loop (per bounded-memory daemon block)
            rows = members[lo:lo + step]
            chunk = [ids[p] for p in rows.tolist()]
            cols = starts[rows][:, None] + np.arange(width)
            ranks_matrix = ranks[cols]
            sids_matrix = np.concatenate(
                [s[cols] for s in sid_of_pos], axis=1)
            elems = _sample_elements(chunk, sids_matrix, threads,
                                     stack_model, rng_of)

            row_caches = [{} for _ in chunk] if fscheme.dense else None
            trees_2d = _assemble_chunk(
                chunk, elems[:, n - per_instant:], width, threads,
                stack_model, fscheme, ranks_matrix, row_caches)
            trees_3d = _assemble_chunk(
                chunk, elems, width, threads, stack_model, fscheme,
                ranks_matrix, row_caches)
            for p, pair in zip(rows.tolist(), zip(trees_2d, trees_3d)):  # repro-lint: disable=hot-path-loop (per daemon: places the pair at its requested position)
                out[p] = pair
    return out
