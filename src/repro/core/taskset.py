"""Task-set row formats for call-graph edge labels (paper Section V).

STAT labels every edge of the call graph prefix tree with the set of MPI
ranks whose stack traces follow that edge.  How that set is *represented*
turned out to be the difference between linear and logarithmic merge
scaling at 100K+ tasks.  Here a label is one packed ``uint8`` row of a
tree's label matrix (:class:`~repro.core.treearrays.TreeArrays`), in one
of two formats:

* **Dense** (original): a bit per task of the *entire application*, bit
  ``r`` for MPI rank ``r`` — a million cores means a megabit per edge at
  every level of the tree, almost all of it zero padding at the fringes.
  Aggregate wire traffic grows linearly with job size.

* **Hierarchical** (optimized): bits only for the tasks inside one
  subtree, as byte-aligned per-daemon chunks in :class:`DaemonLayout`
  order, each over the daemon's local slots.  Merging disjoint children
  concatenates their chunks; only the front end ever materializes a
  job-width row, via a one-time rank **remap** (:class:`RankRemapper`)
  through the gathered :class:`TaskMap`, because daemons are not
  assigned rank-contiguous tasks (paper Figure 6).  On the wire each
  chunk also carries a :data:`CHUNK_HEADER_BITS` header.

A dense row reads back as sorted ``int64`` ranks through :func:`row_ranks`
(on a tree: :meth:`~repro.core.treearrays.TreeArrays.row_ranks`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.lint.contracts import contract

__all__ = [
    "TaskMap",
    "DaemonLayout",
    "RankRemapper",
    "CHUNK_HEADER_BITS",
    "row_ranks",
]

#: Wire-format header per hierarchical chunk: 32-bit daemon id + 32-bit width.
CHUNK_HEADER_BITS = 64


def _packed_nbytes(width: int) -> int:
    """Bytes needed to hold ``width`` bits."""
    return (width + 7) // 8


@contract("indices:(k) -> bits:(b):uint8")
def _pack_indices(indices: np.ndarray, width: int) -> np.ndarray:
    """Pack a sorted array of bit indices into a uint8 bit array."""
    bits = np.zeros(width, dtype=np.uint8)
    if indices.size:
        bits[indices] = 1
    return np.packbits(bits) if width else np.zeros(0, dtype=np.uint8)


def row_ranks(row: np.ndarray, width: int) -> np.ndarray:
    """The sorted ``int64`` indices set in a packed row of ``width`` bits:
    the ranks of a dense row, or the local slots of one daemon chunk."""
    # The unpacked bits are 0/1, so a bool view is exact, and nonzero on
    # bool runs several times faster than on uint8.
    return np.flatnonzero(np.unpackbits(row, count=width).view(bool))


class TaskMap:
    """Which global MPI ranks each daemon gathers traces from, in local order.

    The mapping of compute nodes to daemons is **not** guaranteed to follow
    MPI rank order (paper Figure 6: daemon 0 debugs tasks 0 and 2, daemon 1
    debugs tasks 1 and 3), which is exactly why the optimized representation
    needs a front-end remap step.

    The map is gathered once at tool-attach time; :class:`RankRemapper`
    consumes it to rearrange concatenated subtree bits into rank order.
    """

    def __init__(self, daemon_ranks: Dict[int, np.ndarray]) -> None:
        self._ranks: Dict[int, np.ndarray] = {}
        arrays = []
        for daemon_id, ranks in daemon_ranks.items():
            arr = np.asarray(ranks, dtype=np.int64)
            if arr.ndim != 1:
                raise ValueError("each daemon's rank list must be 1-D")
            arrays.append(arr)
            self._ranks[int(daemon_id)] = arr
        self.total_tasks = sum(arr.size for arr in arrays)
        ranks = np.sort(np.concatenate(arrays)) if arrays else np.zeros(0)
        if (ranks[1:] == ranks[:-1]).any():
            # Some rank is held twice: name the culprits daemon by
            # daemon (a rank repeated inside one daemon's own list is
            # not an assignment conflict and passes).
            seen: set = set()
            for arr in arrays:
                dupes = set(arr.tolist()) & seen
                if dupes:
                    raise ValueError("ranks assigned to multiple daemons: "
                                     f"{sorted(dupes)[:5]}")
                seen.update(arr.tolist())

    # -- constructors ------------------------------------------------------
    @classmethod
    def block(cls, num_daemons: int, tasks_per_daemon: int) -> "TaskMap":
        """Contiguous block assignment: daemon d owns ranks [d*k, (d+1)*k)."""
        return cls({
            d: np.arange(d * tasks_per_daemon, (d + 1) * tasks_per_daemon)
            for d in range(num_daemons)
        })

    @classmethod
    def cyclic(cls, num_daemons: int, tasks_per_daemon: int) -> "TaskMap":
        """Round-robin assignment (Figure 6's interleaving): daemon d owns
        ranks d, d+D, d+2D, ..."""
        total = num_daemons * tasks_per_daemon
        return cls({
            d: np.arange(d, total, num_daemons) for d in range(num_daemons)
        })

    @classmethod
    def shuffled(cls, num_daemons: int, tasks_per_daemon: int,
                 rng: np.random.Generator) -> "TaskMap":
        """Random assignment — the worst case the remap step must handle."""
        total = num_daemons * tasks_per_daemon
        perm = rng.permutation(total)
        return cls({
            d: np.sort(perm[d * tasks_per_daemon:(d + 1) * tasks_per_daemon])
            for d in range(num_daemons)
        })

    # -- queries ---------------------------------------------------------
    def daemons(self) -> List[int]:
        """All daemon ids in the map."""
        return list(self._ranks)

    def ranks_of(self, daemon_id: int) -> np.ndarray:
        """Global ranks handled by ``daemon_id``, in local slot order."""
        return self._ranks[daemon_id]

    def tasks_of(self, daemon_id: int) -> int:
        """Task count for one daemon."""
        return int(self._ranks[daemon_id].size)

    def daemon_of_rank(self, rank: int) -> int:
        """Inverse lookup: which daemon owns a global rank (O(total) scan,
        for tests and diagnostics only)."""
        for daemon_id, arr in self._ranks.items():
            if rank in arr:
                return daemon_id
        raise KeyError(f"rank {rank} not in task map")

    def is_rank_ordered(self) -> bool:
        """True when concatenating daemons in id order yields 0..N-1 —
        i.e. when the remap step would be the identity."""
        cat = np.concatenate([self._ranks[d] for d in sorted(self._ranks)]) \
            if self._ranks else np.zeros(0, dtype=np.int64)
        return bool(np.array_equal(cat, np.arange(cat.size)))

    def __len__(self) -> int:
        return len(self._ranks)

    def __repr__(self) -> str:
        return f"TaskMap(daemons={len(self._ranks)}, tasks={self.total_tasks})"


#: Memoized single-chunk layouts for :meth:`DaemonLayout.shared`.
_SHARED_LAYOUTS: Dict[Tuple[int, int], "DaemonLayout"] = {}


class DaemonLayout:
    """The ordered set of daemon chunks a hierarchical label row spans.

    A layout is immutable and shared by every edge label at a given analysis
    node, so concatenating two subtrees builds **one** new layout, reused by
    all their edges.  Chunks are byte-aligned in the packed array so that
    concatenation of the underlying bytes is a plain ``np.concatenate``.
    """

    __slots__ = ("daemon_ids", "widths", "byte_offsets", "byte_sizes",
                 "nbytes", "total_tasks", "_key")

    def __init__(self, daemon_ids: Sequence[int], widths: Sequence[int]) -> None:
        if len(daemon_ids) != len(widths):
            raise ValueError("daemon_ids and widths must have equal length")
        # Vectorized construction: merges concatenate thousands of
        # single-chunk layouts, so per-element Python conversion is a
        # measurable slice of the k-way kernel.
        ids_arr = np.asarray(daemon_ids, dtype=np.int64)
        widths_arr = np.asarray(widths, dtype=np.int64)
        self.daemon_ids: Tuple[int, ...] = tuple(ids_arr.tolist())
        if len(set(self.daemon_ids)) != len(self.daemon_ids):
            raise ValueError("duplicate daemon id in layout")
        self.widths: Tuple[int, ...] = tuple(widths_arr.tolist())
        if widths_arr.size and int(widths_arr.min()) < 0:
            raise ValueError("negative chunk width")
        sizes = (widths_arr + 7) >> 3
        self.byte_sizes = sizes
        self.byte_offsets = np.concatenate(([0], np.cumsum(sizes)))[:-1]
        self.nbytes = int(sizes.sum())
        self.total_tasks = int(widths_arr.sum())
        self._key = (self.daemon_ids, self.widths)

    @classmethod
    def for_daemon(cls, daemon_id: int, width: int) -> "DaemonLayout":
        """Single-chunk leaf layout."""
        return cls((daemon_id,), (width,))

    @classmethod
    def shared(cls, daemon_id: int, width: int) -> "DaemonLayout":
        """Memoized :meth:`for_daemon`: layouts are immutable, and every
        hierarchical label row of one daemon shares a single layout, so
        the array build paths reuse one instance per daemon."""
        key = (daemon_id, width)
        layout = _SHARED_LAYOUTS.get(key)
        if layout is None:
            # Inlined single-chunk construction: the forest build path
            # makes one layout per daemon, and __init__'s generality
            # (array conversion, duplicate checks) costs ~20x the
            # scalar arithmetic a one-chunk layout actually needs.
            layout = object.__new__(cls)
            layout.daemon_ids = (int(daemon_id),)
            layout.widths = (int(width),)
            nbytes = (int(width) + 7) >> 3
            layout.byte_sizes = np.array([nbytes], dtype=np.int64)
            layout.byte_offsets = np.zeros(1, dtype=np.int64)
            layout.nbytes = nbytes
            layout.total_tasks = int(width)
            layout._key = (layout.daemon_ids, layout.widths)
            _SHARED_LAYOUTS[key] = layout
        return layout

    @classmethod
    def concat(cls, layouts: Sequence["DaemonLayout"]) -> "DaemonLayout":
        """Layout covering the children's chunks in order — the merge step."""
        if len(layouts) == 1:
            return layouts[0]
        ids: List[int] = []
        widths: List[int] = []
        for layout in layouts:
            ids.extend(layout.daemon_ids)
            widths.extend(layout.widths)
        return cls(ids, widths)

    @classmethod
    def from_task_map(cls, task_map: TaskMap,
                      daemon_order: Optional[Sequence[int]] = None) -> "DaemonLayout":
        """Layout over every daemon in ``task_map`` (default: id order)."""
        order = list(daemon_order) if daemon_order is not None \
            else sorted(task_map.daemons())
        return cls(order, [task_map.tasks_of(d) for d in order])

    def chunk_slice(self, index: int) -> slice:
        """Byte slice of chunk ``index`` in the packed array."""
        start = int(self.byte_offsets[index])
        return slice(start, start + int(self.byte_sizes[index]))

    def index_of(self, daemon_id: int) -> int:
        """Position of a daemon's chunk in this layout."""
        return self.daemon_ids.index(daemon_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DaemonLayout):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __len__(self) -> int:
        return len(self.daemon_ids)

    def __repr__(self) -> str:
        return (f"DaemonLayout(chunks={len(self.daemon_ids)}, "
                f"tasks={self.total_tasks})")


class RankRemapper:
    """Front-end remap of concatenated subtree bits into MPI rank order.

    Built once per attach from the root layout and the gathered
    :class:`TaskMap` (paper: "we first collect the map information once
    during the setup phase and then perform a local remap during the final
    result rendering"); thereafter :meth:`remap_rows` converts a whole
    matrix of root-level label rows into rank-ordered job-width rows (one
    row is a matrix of one row).

    At 208K tasks the paper measured this step at 0.66 s — benchmarked by
    ``benchmarks/bench_claims.py``.
    """

    #: largest unpacked ``(rows, bits)`` temporary :meth:`remap_rows` builds
    #: at once (elements); taller label matrices are remapped in row blocks
    _BLOCK_LIMIT = 1 << 24

    def __init__(self, layout: DaemonLayout, task_map: TaskMap) -> None:
        self.layout = layout
        self.task_map = task_map
        self.total_tasks = total = task_map.total_tasks
        slots = layout.nbytes * 8
        #: slot_of_rank[r] = padded-slot index holding global rank r.  Ranks
        #: the layout does not cover (dead daemons) point one past the last
        #: slot, at the zero byte :meth:`remap_rows` appends to every row.
        self._slot_of_rank = np.full(total, slots, dtype=np.int64)
        for i, daemon_id in enumerate(layout.daemon_ids):
            ranks = task_map.ranks_of(daemon_id)
            if ranks.size != layout.widths[i]:
                raise ValueError(
                    f"daemon {daemon_id}: layout width {layout.widths[i]} != "
                    f"task map size {ranks.size}")
            if ranks.size and not 0 <= ranks.min() <= ranks.max() < total:
                raise ValueError(
                    f"daemon {daemon_id}: rank out of range [0, {total})")
            start_bit = int(layout.byte_offsets[i]) * 8
            self._slot_of_rank[ranks] = np.arange(
                start_bit, start_bit + ranks.size, dtype=np.int64)

    @contract("labels:(n,b):uint8 -> rows:(n,w):uint8")
    def remap_rows(self, labels: np.ndarray) -> np.ndarray:
        """Rank-ordered job-width rows for a matrix of packed label rows.

        One unpack, one column gather through ``slot_of_rank``, one pack —
        per block of rows, so the unpacked temporaries stay under
        ``_BLOCK_LIMIT`` elements however many distinct labels arrive.
        """
        if labels.ndim != 2 or labels.shape[1] != self.layout.nbytes:
            raise ValueError(
                f"label matrix of shape {labels.shape} does not match the "
                f"remapper layout ({self.layout.nbytes} bytes per row)")
        n = labels.shape[0]
        out = np.empty((n, _packed_nbytes(self.total_tasks)), dtype=np.uint8)
        bits_per_row = max(8 * (self.layout.nbytes + 1), self.total_tasks)
        step = max(1, self._BLOCK_LIMIT // bits_per_row)
        for lo in range(0, n, step):
            block = labels[lo:lo + step]
            padded = np.zeros((block.shape[0], block.shape[1] + 1),
                              dtype=np.uint8)
            padded[:, :-1] = block
            bits = np.unpackbits(padded, axis=1)
            out[lo:lo + step] = np.packbits(
                np.take(bits, self._slot_of_rank, axis=1), axis=1)
        return out

    def __repr__(self) -> str:
        return (f"RankRemapper(chunks={len(self.layout)}, "
                f"tasks={self.total_tasks})")
