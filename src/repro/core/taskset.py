"""Task-set representations for call-graph edge labels (paper Section V).

STAT labels every edge of the call graph prefix tree with the set of MPI
ranks whose stack traces follow that edge.  How that set is *represented*
turned out to be the difference between linear and logarithmic merge
scaling at 100K+ tasks:

* **Original** (:class:`DenseBitVector`): every analysis node uses a bit
  vector sized to the *entire application* — a million cores means a megabit
  per edge at every level of the tree, almost all of it zero padding at the
  fringes.  Aggregate wire traffic grows linearly with job size.

* **Optimized** (:class:`HierarchicalTaskSet`): each analysis node only
  represents tasks inside its own subtree.  A leaf daemon's labels are
  ``n_d``-bit vectors over its local tasks; merging children is a simple
  **concatenation** of their chunk lists; only the front end ever
  materializes a full-width vector, via a one-time rank **remap**
  (:class:`RankRemapper`) because daemons are not assigned rank-contiguous
  tasks (paper Figure 6).

Both representations are bit-packed into ``uint8`` NumPy arrays so that the
set-union work the tool performs is the real work, measurable by the
benchmarks, and the ``serialized_bits`` accounting matches the paper's wire
model (1 bit per represented task, plus a small per-chunk header for the
hierarchical form).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.ranklist import normalize_ranks
from repro.lint.contracts import contract

__all__ = [
    "DenseBitVector",
    "TaskMap",
    "DaemonLayout",
    "HierarchicalTaskSet",
    "RankRemapper",
    "CHUNK_HEADER_BITS",
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


def _unpack(data: np.ndarray, width: int) -> np.ndarray:
    """Unpack a uint8 bit array into a boolean array of length ``width``."""
    if width == 0:
        return np.zeros(0, dtype=bool)
    return np.unpackbits(data, count=width).astype(bool)


_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1)


def _popcount(data: np.ndarray) -> int:
    """Number of set bits in a uint8 array (table-driven, vectorized)."""
    if data.size == 0:
        return 0
    return int(_POPCOUNT[data].sum())


class DenseBitVector:
    """A bit vector over **all** tasks of the job — the original STAT label.

    The width is fixed at construction to the total task count; every
    instance, anywhere in the analysis tree, carries (and would transmit)
    ``width`` bits.  That invariant is the scalability defect the paper
    identifies: ``serialized_bits`` is always ``width`` no matter how few
    bits are set.
    """

    __slots__ = ("width", "data")

    def __init__(self, width: int, data: Optional[np.ndarray] = None) -> None:
        if width < 0:
            raise ValueError(f"width must be >= 0, got {width}")
        self.width = int(width)
        nbytes = _packed_nbytes(self.width)
        if data is None:
            self.data = np.zeros(nbytes, dtype=np.uint8)
        else:
            data = np.asarray(data, dtype=np.uint8)
            if data.shape != (nbytes,):
                raise ValueError(
                    f"data has {data.shape[0]} bytes, width {width} needs {nbytes}")
            self.data = data

    # -- constructors ------------------------------------------------------
    @classmethod
    def empty(cls, width: int) -> "DenseBitVector":
        """All-zeros vector."""
        return cls(width)

    @classmethod
    def full(cls, width: int) -> "DenseBitVector":
        """All-ones vector (every rank present)."""
        vec = cls(width)
        vec.data[:] = 0xFF
        vec._mask_tail()
        return vec

    @classmethod
    def from_ranks(cls, ranks: Iterable[int], width: int) -> "DenseBitVector":
        """Vector with exactly the given global ranks set."""
        idx = normalize_ranks(ranks)
        if idx.size and (idx[0] < 0 or idx[-1] >= width):
            raise ValueError(
                f"rank out of range [0, {width}): {idx[0 if idx[0] < 0 else -1]}")
        return cls(width, _pack_indices(idx, width))

    def _mask_tail(self) -> None:
        """Zero the padding bits beyond ``width`` in the last byte."""
        rem = self.width % 8
        if rem and self.data.size:
            self.data[-1] &= np.uint8(0xFF << (8 - rem) & 0xFF)

    # -- set algebra ---------------------------------------------------------
    def _check_peer(self, other: "DenseBitVector") -> None:
        if not isinstance(other, DenseBitVector):
            raise TypeError(f"expected DenseBitVector, got {type(other).__name__}")
        if other.width != self.width:
            raise ValueError(
                f"width mismatch: {self.width} vs {other.width} "
                "(the original representation requires global agreement on job size)")

    def union(self, other: "DenseBitVector") -> "DenseBitVector":
        """Set union (the merge operation for matching tree edges)."""
        self._check_peer(other)
        return DenseBitVector(self.width, np.bitwise_or(self.data, other.data))

    def union_inplace(self, other: "DenseBitVector") -> "DenseBitVector":
        """In-place union; returns self (used on the merge hot path)."""
        self._check_peer(other)
        np.bitwise_or(self.data, other.data, out=self.data)
        return self

    def intersection(self, other: "DenseBitVector") -> "DenseBitVector":
        """Set intersection."""
        self._check_peer(other)
        return DenseBitVector(self.width, np.bitwise_and(self.data, other.data))

    def difference(self, other: "DenseBitVector") -> "DenseBitVector":
        """Ranks in self but not in other."""
        self._check_peer(other)
        return DenseBitVector(
            self.width, np.bitwise_and(self.data, np.bitwise_not(other.data)))

    def complement(self) -> "DenseBitVector":
        """All ranks not in self."""
        out = DenseBitVector(self.width, np.bitwise_not(self.data))
        out._mask_tail()
        return out

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    # -- queries ---------------------------------------------------------
    def count(self) -> int:
        """Number of ranks present."""
        return _popcount(self.data)

    def contains(self, rank: int) -> bool:
        """Membership test for one global rank."""
        if not 0 <= rank < self.width:
            return False
        return bool(self.data[rank >> 3] & (0x80 >> (rank & 7)))

    __contains__ = contains

    def to_ranks(self) -> np.ndarray:
        """Sorted array of set global ranks."""
        return np.nonzero(_unpack(self.data, self.width))[0]

    def is_empty(self) -> bool:
        """True when no rank is set."""
        return not self.data.any()

    def serialized_bits(self) -> int:
        """Wire size: always the full job width — the Section V defect."""
        return self.width

    def serialized_bytes(self) -> int:
        """Wire size in bytes (bit size rounded up)."""
        return _packed_nbytes(self.serialized_bits())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DenseBitVector):
            return NotImplemented
        return self.width == other.width and np.array_equal(self.data, other.data)

    def __hash__(self) -> int:
        return hash((self.width, self.data.tobytes()))

    def copy(self) -> "DenseBitVector":
        """Deep copy."""
        return DenseBitVector(self.width, self.data.copy())

    def __repr__(self) -> str:
        n = self.count()
        return f"DenseBitVector(width={self.width}, count={n})"


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
    """The ordered set of daemon chunks a :class:`HierarchicalTaskSet` spans.

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


class HierarchicalTaskSet:
    """The optimized edge label: bits only for tasks inside one subtree.

    Invariants maintained:

    * ``data`` is a byte-aligned concatenation of per-daemon bit chunks as
      described by ``layout``.
    * :meth:`union` requires identical layouts (two labels at the same
      analysis node); :meth:`concat` joins disjoint subtrees.
    * Wire size is ``sum(chunk widths) + 64 bits/chunk`` — proportional to
      the subtree, not the job, which is what restores logarithmic merge
      scaling in Figure 7.
    """

    __slots__ = ("layout", "data")

    def __init__(self, layout: DaemonLayout, data: Optional[np.ndarray] = None) -> None:
        self.layout = layout
        if data is None:
            self.data = np.zeros(layout.nbytes, dtype=np.uint8)
        else:
            data = np.asarray(data, dtype=np.uint8)
            if data.shape != (layout.nbytes,):
                raise ValueError(
                    f"data has {data.shape[0]} bytes, layout needs {layout.nbytes}")
            self.data = data

    # -- constructors ------------------------------------------------------
    @classmethod
    def empty(cls, layout: DaemonLayout) -> "HierarchicalTaskSet":
        """All-zeros set over ``layout``."""
        return cls(layout)

    @classmethod
    def full(cls, layout: DaemonLayout) -> "HierarchicalTaskSet":
        """Every local slot set."""
        out = cls(layout)
        for i, width in enumerate(out.layout.widths):
            sl = out.layout.chunk_slice(i)
            chunk = np.full(int(out.layout.byte_sizes[i]), 0xFF, dtype=np.uint8)
            rem = width % 8
            if rem and chunk.size:
                chunk[-1] = np.uint8(0xFF << (8 - rem) & 0xFF)
            out.data[sl] = chunk
        return out

    @classmethod
    def for_daemon(cls, daemon_id: int, width: int,
                   local_slots: Iterable[int]) -> "HierarchicalTaskSet":
        """Leaf label: ``local_slots`` are daemon-local indices, not ranks."""
        layout = DaemonLayout.for_daemon(daemon_id, width)
        idx = normalize_ranks(local_slots)
        if idx.size and (idx[0] < 0 or idx[-1] >= width):
            raise ValueError(f"local slot out of range [0, {width})")
        return cls(layout, _pack_indices(idx, width))

    # -- merge operations ------------------------------------------------
    def union(self, other: "HierarchicalTaskSet") -> "HierarchicalTaskSet":
        """Union of two labels over the same subtree layout."""
        self._check_layout(other)
        return HierarchicalTaskSet(self.layout, np.bitwise_or(self.data, other.data))

    def union_inplace(self, other: "HierarchicalTaskSet") -> "HierarchicalTaskSet":
        """In-place union; returns self (merge hot path)."""
        self._check_layout(other)
        np.bitwise_or(self.data, other.data, out=self.data)
        return self

    def intersection(self, other: "HierarchicalTaskSet") -> "HierarchicalTaskSet":
        """Intersection over the same layout."""
        self._check_layout(other)
        return HierarchicalTaskSet(self.layout, np.bitwise_and(self.data, other.data))

    __or__ = union
    __and__ = intersection

    def _check_layout(self, other: "HierarchicalTaskSet") -> None:
        if not isinstance(other, HierarchicalTaskSet):
            raise TypeError(
                f"expected HierarchicalTaskSet, got {type(other).__name__}")
        if other.layout != self.layout:
            raise ValueError(
                "layout mismatch: set operations require labels at the same "
                "analysis node; use concat() to join disjoint subtrees")

    @staticmethod
    def concat(sets: Sequence["HierarchicalTaskSet"],
               layout: Optional[DaemonLayout] = None) -> "HierarchicalTaskSet":
        """Join labels of **disjoint** subtrees — the children-merge step.

        ``layout`` may be passed in when the caller has already computed the
        concatenated layout (one layout serves every edge of the merged
        tree); otherwise it is derived here.
        """
        if not sets:
            raise ValueError("concat of zero sets")
        if layout is None:
            layout = DaemonLayout.concat([s.layout for s in sets])
        else:
            expect = [lay for s in sets for lay in (s.layout.daemon_ids,)]
            flat = tuple(d for ids in expect for d in ids)
            if flat != layout.daemon_ids:
                raise ValueError("provided layout does not match concatenation order")
        data = np.concatenate([s.data for s in sets]) if sets else None
        return HierarchicalTaskSet(layout, data)

    def extend_to(self, layout: DaemonLayout) -> "HierarchicalTaskSet":
        """Re-embed this label into a superset ``layout`` (zero-fill).

        Needed when sibling subtrees contribute different edge sets: an edge
        present only under child A must still be expressed over the merged
        layout of A+B.
        """
        out = HierarchicalTaskSet.empty(layout)
        pos = {d: i for i, d in enumerate(layout.daemon_ids)}
        for i, daemon_id in enumerate(self.layout.daemon_ids):
            j = pos.get(daemon_id)
            if j is None:
                raise ValueError(f"daemon {daemon_id} missing from target layout")
            if layout.widths[j] != self.layout.widths[i]:
                raise ValueError(f"chunk width mismatch for daemon {daemon_id}")
            out.data[layout.chunk_slice(j)] = self.data[self.layout.chunk_slice(i)]
        return out

    # -- queries ---------------------------------------------------------
    def count(self) -> int:
        """Number of tasks present (padding bits are always zero)."""
        return _popcount(self.data)

    def is_empty(self) -> bool:
        """True when no task is set."""
        return not self.data.any()

    def chunk_bits(self, index: int) -> np.ndarray:
        """Boolean array of the local slots set in chunk ``index``."""
        sl = self.layout.chunk_slice(index)
        return _unpack(self.data[sl], self.layout.widths[index])

    def local_slots(self) -> Dict[int, np.ndarray]:
        """Map daemon id -> local slot indices set."""
        return {
            d: np.nonzero(self.chunk_bits(i))[0]
            for i, d in enumerate(self.layout.daemon_ids)
        }

    def to_global_ranks(self, task_map: TaskMap) -> np.ndarray:
        """Sorted global ranks represented, resolved through the task map."""
        parts = []
        for i, daemon_id in enumerate(self.layout.daemon_ids):
            bits = self.chunk_bits(i)
            if bits.any():
                parts.append(task_map.ranks_of(daemon_id)[np.nonzero(bits)[0]])
        if not parts:
            return np.zeros(0, dtype=np.int64)
        return np.sort(np.concatenate(parts))

    def serialized_bits(self) -> int:
        """Wire size: subtree tasks + per-chunk headers — NOT the job width."""
        return self.layout.total_tasks + CHUNK_HEADER_BITS * len(self.layout)

    def serialized_bytes(self) -> int:
        """Wire size in bytes."""
        return _packed_nbytes(self.serialized_bits())

    def copy(self) -> "HierarchicalTaskSet":
        """Deep copy (shares the immutable layout)."""
        return HierarchicalTaskSet(self.layout, self.data.copy())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HierarchicalTaskSet):
            return NotImplemented
        return self.layout == other.layout and np.array_equal(self.data, other.data)

    def __hash__(self) -> int:
        return hash((self.layout, self.data.tobytes()))

    def __repr__(self) -> str:
        return (f"HierarchicalTaskSet(chunks={len(self.layout)}, "
                f"tasks={self.layout.total_tasks}, count={self.count()})")


class RankRemapper:
    """Front-end remap of concatenated subtree bits into MPI rank order.

    Built once per attach from the root layout and the gathered
    :class:`TaskMap` (paper: "we first collect the map information once
    during the setup phase and then perform a local remap during the final
    result rendering"); thereafter :meth:`remap_rows` converts a whole
    matrix of root-level label rows into rank-ordered job-width rows, and
    :meth:`remap` one :class:`HierarchicalTaskSet` into a
    :class:`DenseBitVector`.

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

    def remap(self, tset: HierarchicalTaskSet) -> DenseBitVector:
        """Produce the rank-ordered full-width vector for one edge label."""
        if tset.layout != self.layout:
            raise ValueError("task set layout does not match remapper layout")
        return DenseBitVector(self.total_tasks,
                              self.remap_rows(tset.data[None, :])[0])

    def __repr__(self) -> str:
        return (f"RankRemapper(chunks={len(self.layout)}, "
                f"tasks={self.total_tasks})")
