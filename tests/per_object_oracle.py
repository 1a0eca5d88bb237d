"""Frozen per-object oracles for the sampler and the merge kernels.

These are the implementations the package shipped before its array
kernels, moved here verbatim:

* :class:`DenseBitVector` / :class:`HierarchicalTaskSet` — the label
  objects on an object tree's edges, one per edge-label row format of
  :mod:`repro.core.taskset`, with :func:`daemon_label` /
  :func:`leaf_span` (a daemon's leaf label and its dense byte span) and
  :func:`label_object` (the object over one node's row of a
  :class:`~repro.core.treearrays.TreeArrays`);
* :class:`StackWalker` — one ``StackModel.trace_for`` call per
  (process, thread), reading each walk's keyed word
  (:func:`repro.core.sampling.walk_words`) one walk at a time;
* :class:`ObjectTree` — the linked prefix tree (one object per node,
  children keyed by frame in insertion order) that the oracles below
  build and merge, with :meth:`ObjectTree.to_arrays` and
  :func:`object_tree` to cross to and from
  :class:`~repro.core.treearrays.TreeArrays`;
* :class:`STATDaemon` — a daemon that walks its slots into slot-set
  object trees and materializes labels per node;
  :func:`reference_daemon_trees` drives one;
* :func:`reference_dense_merge` / :func:`reference_hierarchical_merge`
  — the recursive pairwise-union merges.

They live under ``tests/`` — not in the package — and exist only so
``test_build_equivalence.py`` and ``test_merge_equivalence.py`` can
demand bit-identical trees from :func:`repro.core.forest.build_forest`
and ``LabelScheme.merge``, so the label tests can pin the row formats
against object set algebra, and so ``benchmarks/kernels/run.py`` can
time the kernels against them.  Do not optimise them.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, Iterable, List, Optional,
                    Sequence, Set, Tuple)

import numpy as np

from repro.core.frames import ROOT_FRAME, Frame, StackTrace
from repro.core.merge import DenseLabelScheme, LabelScheme
from repro.core.ranklist import normalize_ranks
from repro.core.sampling import walk_words
from repro.core.taskset import (
    CHUNK_HEADER_BITS,
    DaemonLayout,
    TaskMap,
    _pack_indices,
    _packed_nbytes,
)
from repro.core.treearrays import KIND_DENSE, KIND_HIER, TreeArrays
from repro.lint.contracts import exempt
from repro.mpi.runtime import RankState
from repro.mpi.stacks import StackModel
from repro.sim.random import SeedStream

__all__ = [
    "DenseBitVector",
    "HierarchicalTaskSet",
    "daemon_label",
    "leaf_span",
    "label_object",
    "ObjectNode",
    "ObjectTree",
    "object_tree",
    "StackWalker",
    "STATDaemon",
    "reference_dense_merge",
    "reference_hierarchical_merge",
    "reference_merge",
    "reference_daemon_trees",
]


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


def daemon_label(scheme: LabelScheme, daemon_id: int, local_width: int,
                 slots: Sequence[int], task_map: TaskMap) -> Any:
    """The scheme's label object for a leaf (daemon-level) edge covering
    ``slots``: a job-width vector with the slots' ranks set (dense), or
    a subtree-local set over the daemon's own slots (hierarchical)."""
    if scheme.kind == KIND_HIER:
        return HierarchicalTaskSet.for_daemon(daemon_id, local_width, slots)
    ranks = task_map.ranks_of(daemon_id)[np.asarray(list(slots), dtype=np.int64)] \
        if len(slots) else np.zeros(0, dtype=np.int64)
    return DenseBitVector.from_ranks(ranks, scheme.total_tasks)


def leaf_span(daemon_id: int, slots: Sequence[int],
              task_map: TaskMap) -> Tuple[int, int]:
    """Byte range of a dense leaf label's set bits within the job width."""
    if not len(slots):
        return (0, 0)
    ranks = task_map.ranks_of(daemon_id)[np.asarray(list(slots),
                                                    dtype=np.int64)]
    return (int(ranks.min()) >> 3, (int(ranks.max()) >> 3) + 1)


def label_object(tree: TreeArrays, node: int) -> Any:
    """The label object over the edge label row into ``node`` (shares
    the row's storage)."""
    row = tree.labels[tree.label_refs[node]]
    if tree.kind == KIND_DENSE:
        width = tree.width if tree.width is not None \
            else tree.labels.shape[1] * 8
        return DenseBitVector(width, row)
    return HierarchicalTaskSet(tree.layout, row)


def _label_union(a: Any, b: Any) -> Any:
    """In-place union for the built-in label types (module-level: must
    pickle)."""
    return a.union_inplace(b)


def _label_copy(a: Any) -> Any:
    return a.copy()


class ObjectNode:
    """One call-path node; ``tasks`` is the edge label from its parent
    (None on the root).  Children keep insertion order."""

    __slots__ = ("frame", "tasks", "children")

    def __init__(self, frame: Frame, tasks: Any = None) -> None:
        self.frame = frame
        self.tasks = tasks
        self.children: Dict[Frame, "ObjectNode"] = {}


class ObjectTree:
    """A linked prefix tree: every trace inserted root-first, each edge
    labelled with the union of the labels of the traces through it."""

    def __init__(self, label_union: Callable[[Any, Any], Any] = _label_union,
                 label_copy: Callable[[Any], Any] = _label_copy) -> None:
        self.root = ObjectNode(ROOT_FRAME)
        self._label_union = label_union
        self._label_copy = label_copy

    def insert(self, trace: StackTrace, label: Any) -> None:
        """Union ``label`` into every edge along ``trace`` (copied on
        first placement, so callers may reuse it)."""
        node = self.root
        for frame in trace:
            child = node.children.get(frame)
            if child is None:
                child = ObjectNode(frame, self._label_copy(label))
                node.children[frame] = child
            else:
                child.tasks = self._label_union(child.tasks, label)
            node = child

    def to_arrays(self, kind: Optional[str] = None,
                  width: Optional[int] = None,
                  layout: Optional[DaemonLayout] = None) -> TreeArrays:
        """Flatten to BFS arrays, one label row per distinct label
        object (the kind, width and layout default to the labels')."""
        frame_ids: List[int] = []
        parents: List[int] = []
        label_refs: List[int] = []
        level_offsets = [0]
        rows: List[np.ndarray] = []
        row_of: Dict[int, int] = {}
        labels: List[Any] = []
        level = [(-1, child) for child in self.root.children.values()]
        while level:
            nxt = []
            for parent, node in level:
                gid = len(frame_ids)
                frame_ids.append(node.frame.id)
                parents.append(parent)
                ref = row_of.setdefault(id(node.tasks), len(rows))
                if ref == len(rows):
                    rows.append(node.tasks.data)
                    labels.append(node.tasks)
                label_refs.append(ref)
                nxt.extend((gid, child) for child in node.children.values())
            level_offsets.append(len(frame_ids))
            level = nxt
        first = labels[0] if labels else None
        if kind is None:
            kind = KIND_HIER if isinstance(first, HierarchicalTaskSet) \
                else KIND_DENSE
        if kind == KIND_DENSE and width is None and first is not None:
            width = first.width
        if kind == KIND_HIER and layout is None:
            if first is None:
                raise ValueError("cannot determine layout of an empty tree")
            layout = first.layout
        nbytes = layout.nbytes if kind == KIND_HIER \
            else ((width or 0) + 7) // 8
        return TreeArrays(
            kind, np.asarray(frame_ids, dtype=np.int64),
            np.asarray(parents, dtype=np.int64),
            np.asarray(label_refs, dtype=np.int64),
            np.asarray(level_offsets, dtype=np.int64),
            np.stack(rows) if rows else np.zeros((0, nbytes), np.uint8),
            width=width, layout=layout)


def object_tree(tree: TreeArrays) -> ObjectTree:
    """The object tree with ``tree``'s nodes, labels and child order.

    Inserting every node's own path and label in index (BFS) order
    rebuilds it exactly: an edge label already contains the labels of
    the edges below it, so the unions into ancestors change nothing.
    """
    out = ObjectTree()
    for node, path in enumerate(tree.paths()):
        out.insert(path, label_object(tree, node))
    return out


class StackWalker:
    """One daemon's walker over its co-located processes.

    Walk ``(instant, slot, thread)`` draws from
    ``walk_words(key, daemon_id, instant, slot, thread)``, computed for
    that walk alone.
    """

    def __init__(self, stack_model: StackModel, key: int = 0,
                 daemon_id: int = 0) -> None:
        self.stack_model = stack_model
        self.key = key
        self.daemon_id = daemon_id
        self.walks_performed = 0

    def walk(self, state: RankState, instant: int = 0, slot: int = 0,
             thread_id: int = 0) -> StackTrace:
        """Acquire one trace from one (process, thread)."""
        self.walks_performed += 1
        word = walk_words(self.key, self.daemon_id, instant, slot,
                          thread_id)[0]
        return self.stack_model.trace_for(state, word, thread_id=thread_id)

    def walk_all(self, states: Iterable[RankState], instant: int = 0,
                 threads_per_process: int = 1) -> List[StackTrace]:
        """One sampling instant over every local process (and thread).

        Per Section VII's plan, thread traces stay associated with their
        *process*: the returned traces carry thread ids but the caller
        labels them all with the owning process's task slot.
        """
        traces: List[StackTrace] = []
        for slot, state in enumerate(states):
            for tid in range(threads_per_process):
                traces.append(self.walk(state, instant, slot, tid))
        return traces


def _slot_union(a: set, b: set) -> set:
    """In-place union for slot-set labels (module-level: must pickle)."""
    a.update(b)
    return a


def _slot_tree() -> ObjectTree:
    """A prefix tree whose labels are mutable slot sets."""
    return ObjectTree(
        label_union=_slot_union,
        label_copy=set,
    )


class STATDaemon:
    """One back-end daemon bound to a slice of the application."""

    def __init__(self, daemon_id: int, task_map: TaskMap,
                 scheme: LabelScheme, stack_model: StackModel,
                 key: int = 0, threads_per_process: int = 1) -> None:
        self.daemon_id = daemon_id
        self.task_map = task_map
        self.scheme = scheme
        self.stack_model = stack_model
        self.walker = StackWalker(stack_model, key, daemon_id)
        self.threads_per_process = threads_per_process
        self.local_ranks = task_map.ranks_of(daemon_id)
        self.width = int(self.local_ranks.size)
        self._tree_3d = _slot_tree()
        self._tree_2d: Optional[ObjectTree] = None
        self.samples_taken = 0

    def sample_once(self, state_of: Callable[[int], RankState]) -> int:
        """Walk every local process (and thread) once; merge locally.

        Traces identical across slots share one insertion with a combined
        label — the daemon-side half of STAT's "intelligent implementation
        of the filter routines".  Returns the number of traces gathered.
        """
        groups: Dict[StackTrace, Set[int]] = {}
        traces = 0
        for slot in range(self.width):
            state = state_of(int(self.local_ranks[slot]))
            for tid in range(self.threads_per_process):
                trace = self.walker.walk(state, self.samples_taken, slot,
                                         tid)
                traces += 1
                groups.setdefault(trace, set()).add(slot)

        tree_2d = _slot_tree()
        for trace, slots in groups.items():
            tree_2d.insert(trace, slots)
            self._tree_3d.insert(trace, slots)
        self._tree_2d = tree_2d
        self.samples_taken += 1
        return traces

    def collect_samples(self, state_of: Callable[[int], RankState],
                        num_samples: int) -> None:
        """Gather ``num_samples`` instants (the paper's runs use ten)
        without materializing labels."""
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        for _ in range(num_samples):
            self.sample_once(state_of)

    # -- label materialization ------------------------------------------------
    def _label_for(self, slots: Set[int], cache: Dict[frozenset, Any]) -> Any:
        """The scheme label for a slot set, shared across equal sets.

        Long call chains carry the same task set on every edge; building
        (and later merging/transmitting the in-memory form of) one label
        per *distinct* set instead of per node is what keeps full-machine
        emulation affordable.  Labels are treated as immutable once
        placed on a materialized tree.
        """
        key = frozenset(slots)
        label = cache.get(key)
        if label is None:
            label = cache[key] = daemon_label(
                self.scheme, self.daemon_id, self.width, sorted(slots),
                self.task_map)
        return label

    def _materialize_arrays(self, slot_tree: ObjectTree,
                            cache: Dict[frozenset, Any]) -> TreeArrays:
        """Convert a slot-set tree into the scheme's array-backed tree.

        Nodes flatten to BFS arrays, labels deduplicate by slot set into
        one packed matrix, and (for the dense scheme) each distinct row
        records the byte span that actually carries bits, so the k-way
        merge kernels can skip the job-width zero fringe.
        """
        scheme = self.scheme
        dense = isinstance(scheme, DenseLabelScheme)
        frame_ids: List[int] = []
        parents: List[int] = []
        label_refs: List[int] = []
        level_offsets = [0]
        rows: List[np.ndarray] = []
        spans: List[Tuple[int, int]] = []
        row_of: Dict[frozenset, int] = {}
        first_label: Any = None

        level = [(-1, child) for child in slot_tree.root.children.values()]
        while level:
            nxt = []
            for parent_gid, node in level:
                gid = len(frame_ids)
                frame_ids.append(node.frame.id)
                parents.append(parent_gid)
                key = frozenset(node.tasks)
                row = row_of.get(key)
                if row is None:
                    label = self._label_for(node.tasks, cache)
                    if first_label is None:
                        first_label = label
                    row = row_of[key] = len(rows)
                    rows.append(label.data)
                    if dense:
                        spans.append(leaf_span(
                            self.daemon_id, sorted(node.tasks),
                            self.task_map))
                label_refs.append(row)
                for child in node.children.values():
                    nxt.append((gid, child))
            level_offsets.append(len(frame_ids))
            level = nxt

        if dense:
            kind, width, layout = KIND_DENSE, scheme.total_tasks, None
            nbytes = (width + 7) // 8
        else:
            kind, width = KIND_HIER, None
            layout = first_label.layout if first_label is not None \
                else DaemonLayout.for_daemon(self.daemon_id, self.width)
            nbytes = layout.nbytes
        labels = np.stack(rows) if rows \
            else np.zeros((0, nbytes), dtype=np.uint8)
        return TreeArrays(
            kind,
            np.asarray(frame_ids, dtype=np.int64),
            np.asarray(parents, dtype=np.int64),
            np.asarray(label_refs, dtype=np.int64),
            np.asarray(level_offsets, dtype=np.int64),
            labels,
            spans=np.asarray(spans, dtype=np.int64).reshape(-1, 2)
            if dense else None,
            width=width, layout=layout)

    def trees_arrays(self) -> Tuple[TreeArrays, TreeArrays]:
        """The labelled ``(last instant's 2D, accumulated 3D)`` trees,
        sharing one label cache."""
        if self._tree_2d is None:
            raise RuntimeError("no samples taken yet")
        cache: Dict[frozenset, Any] = {}
        return (self._materialize_arrays(self._tree_2d, cache),
                self._materialize_arrays(self._tree_3d, cache))

    def reset(self) -> None:
        """Drop accumulated trees (a fresh STAT session)."""
        self._tree_3d = _slot_tree()
        self._tree_2d = None
        self.samples_taken = 0

    def __repr__(self) -> str:
        return (f"<STATDaemon {self.daemon_id} tasks={self.width} "
                f"samples={self.samples_taken}>")


def _ordered_frame_union(nodes: Sequence[ObjectNode]) -> List[Frame]:
    """Union of children frames, preserving first-seen order."""
    seen: Dict[Frame, None] = {}
    for node in nodes:
        for frame in node.children:
            if frame not in seen:
                seen[frame] = None
    return list(seen)


@exempt
def reference_dense_merge(trees: Sequence[ObjectTree]) -> ObjectTree:
    """Recursive structure merge; label merge is pairwise bitwise OR."""
    out = ObjectTree()

    def rec(dst: ObjectNode, srcs: List[ObjectNode]) -> None:
        for frame in _ordered_frame_union(srcs):
            contributors = [n.children[frame] for n in srcs
                            if frame in n.children]
            label = contributors[0].tasks.copy()
            for other in contributors[1:]:
                label.union_inplace(other.tasks)
            node = ObjectNode(frame, label)
            dst.children[frame] = node
            rec(node, contributors)

    rec(out.root, [t.root for t in trees])
    return out


def _tree_layout(tree: ObjectTree) -> DaemonLayout:
    for node in tree.root.children.values():
        if not isinstance(node.tasks, HierarchicalTaskSet):
            raise TypeError("tree does not carry hierarchical labels")
        return node.tasks.layout
    raise ValueError("cannot determine layout of an empty tree")


@exempt
def reference_hierarchical_merge(trees: Sequence[ObjectTree]) -> ObjectTree:
    """Recursive concatenation merge: per-node zero-fill plus pastes."""
    if not trees:
        raise ValueError("merge of zero trees")
    layouts = [_tree_layout(t) for t in trees]
    merged_layout = DaemonLayout.concat(layouts)
    offsets = np.concatenate(
        ([0], np.cumsum([lay.nbytes for lay in layouts])))[:-1]

    out = ObjectTree()

    def rec(dst: ObjectNode,
            srcs: List[Tuple[int, ObjectNode]]) -> None:
        for frame in _ordered_frame_union([n for _, n in srcs]):
            contributors = [(i, n.children[frame]) for i, n in srcs
                            if frame in n.children]
            data = np.zeros(merged_layout.nbytes, dtype=np.uint8)
            for i, node in contributors:
                off = int(offsets[i])
                data[off:off + layouts[i].nbytes] = node.tasks.data
            child = ObjectNode(
                frame, HierarchicalTaskSet(merged_layout, data))
            dst.children[frame] = child
            rec(child, contributors)

    rec(out.root, list(enumerate(t.root for t in trees)))
    return out


@exempt
def reference_merge(scheme_name: str,
                    trees: Sequence[ObjectTree]) -> ObjectTree:
    """Dispatch by scheme name ("original" / "optimized")."""
    if scheme_name == "original":
        return reference_dense_merge(trees)
    if scheme_name == "optimized":
        return reference_hierarchical_merge(trees)
    raise ValueError(f"unknown scheme name {scheme_name!r}")


@exempt
def reference_daemon_trees(daemon_id: int, task_map, scheme, stack_model,
                           state_of: Callable, num_samples: int = 10,
                           threads_per_process: int = 1,
                           seed: int = 208_000):
    """Build one daemon's ``(2D, 3D)`` trees through the per-object path.

    This is the frozen pre-vectorization emulator hot path: scalar walks
    (one keyed word per slot/thread) into slot-set prefix trees, then
    object-level label materialization.  The root key is derived
    exactly as :class:`~repro.statbench.emulator.STATBenchEmulator`
    derives it (``SeedStream(seed).child("walks").root_seed``), so for
    any state provider the forest kernel's result
    (:func:`repro.core.forest.build_forest`) must be bit-identical to
    this one for the same arguments.  ``state_of`` is always consumed through its
    scalar ``__call__`` — a provider's batch API is deliberately ignored.
    """
    daemon = STATDaemon(
        daemon_id, task_map, scheme, stack_model,
        key=SeedStream(seed).child("walks").root_seed,
        threads_per_process=threads_per_process)
    daemon.collect_samples(state_of, num_samples)
    return daemon.trees_arrays()
