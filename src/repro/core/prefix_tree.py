"""The call graph prefix tree — STAT's 2D/3D behaviour-class structure.

Every sampled stack trace is inserted root-first; traces sharing a prefix
share nodes, and each edge carries a task-set label naming the MPI ranks
whose traces traverse it.  Merging the trees of two analysis nodes is the
TBO̅N filter operation (:mod:`repro.core.merge`).

The tree is *representation-agnostic*: labels may be
:class:`~repro.core.taskset.DenseBitVector` (the original global-width
scheme) or :class:`~repro.core.taskset.HierarchicalTaskSet` (the optimized
subtree scheme).  All label manipulation is delegated to the label objects
themselves plus the merge strategies, so the same tree code exercises both
representations in the Figure 5 / Figure 7 benchmarks.

Dimensionality, in the paper's terms:

* **2D trace-space**: one tree per sampling instant — a task appears on
  exactly one root→leaf path.
* **3D trace-space-time**: union over sampling instants — a task may appear
  on several paths (see Figure 1, where the progress-engine recursion depth
  varies over time).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.frames import Frame, ROOT_FRAME, StackTrace
from repro.core.ranklist import format_edge_label


def _default_label_union(a: Any, b: Any) -> Any:
    """In-place union for the built-in label types (picklable default)."""
    return a.union_inplace(b)


def _default_label_copy(a: Any) -> Any:
    """Label deep-copy for the built-in label types (picklable default)."""
    return a.copy()

__all__ = ["PrefixTreeNode", "PrefixTree"]


class PrefixTreeNode:
    """One function-call node; the edge label from its parent is ``tasks``.

    ``tasks`` is None only on the artificial root (the root edge does not
    exist).  Children are keyed by :class:`Frame`, preserving insertion
    order, which keeps renders deterministic.
    """

    __slots__ = ("frame", "tasks", "children")

    def __init__(self, frame: Frame, tasks: Any = None) -> None:
        self.frame = frame
        self.tasks = tasks
        self.children: Dict[Frame, "PrefixTreeNode"] = {}

    def child(self, frame: Frame) -> Optional["PrefixTreeNode"]:
        """Child node for ``frame``, or None."""
        return self.children.get(frame)

    def is_leaf(self) -> bool:
        """True when no trace extends past this frame."""
        return not self.children

    def __repr__(self) -> str:
        return (f"<PrefixTreeNode {self.frame.function!r} "
                f"children={len(self.children)}>")


class PrefixTree:
    """A call graph prefix tree with task-set edge labels.

    Parameters
    ----------
    label_union:
        In-place union ``(existing_label, new_label) -> merged_label`` used
        when a trace (or a merged subtree) revisits an existing edge.  For
        both built-in label types this is ``lambda a, b: a.union_inplace(b)``.
    label_copy:
        Deep-copy for labels, used by :meth:`copy`.
    """

    def __init__(self,
                 label_union: Optional[Callable[[Any, Any], Any]] = None,
                 label_copy: Optional[Callable[[Any], Any]] = None) -> None:
        self.root = PrefixTreeNode(ROOT_FRAME)
        self._label_union = label_union or _default_label_union
        self._label_copy = label_copy or _default_label_copy
        self._node_count: Optional[int] = None
        self._serialized_bytes: Optional[int] = None

    def invalidate_caches(self) -> None:
        """Drop cached statistics after direct structural mutation.

        :meth:`insert` calls this automatically; code that builds trees
        by assigning into ``node.children`` (the merge kernels, the codec)
        must call it once done — or simply never query statistics before
        construction finishes.
        """
        self._node_count = None
        self._serialized_bytes = None

    # -- construction ------------------------------------------------------
    def insert(self, trace: StackTrace, label: Any) -> None:
        """Insert one trace; ``label`` names the tasks that produced it.

        The label is unioned into every edge along the path.  The label
        object is copied on first placement so callers may reuse it.
        """
        self.invalidate_caches()
        node = self.root
        for frame in trace:
            child = node.children.get(frame)
            if child is None:
                child = PrefixTreeNode(frame, self._label_copy(label))
                node.children[frame] = child
            else:
                child.tasks = self._label_union(child.tasks, label)
            node = child

    # -- traversal -------------------------------------------------------
    def walk(self) -> Iterator[Tuple[StackTrace, PrefixTreeNode]]:
        """Preorder traversal yielding ``(path, node)`` below the root.

        Traversal keeps one shared mutable path and a stack of child-dict
        iterators — no per-node list/tuple copies (the per-yield
        :class:`StackTrace` is the only allocation, and it is part of the
        return contract).
        """
        path: List[Frame] = []
        iters = [iter(self.root.children.values())]
        while iters:
            node = next(iters[-1], None)
            if node is None:
                iters.pop()
                if path:
                    path.pop()
                continue
            path.append(node.frame)
            yield StackTrace(tuple(path)), node
            iters.append(iter(node.children.values()))

    def _nodes(self) -> Iterator[PrefixTreeNode]:
        """Path-free preorder node traversal (statistics hot path)."""
        iters = [iter(self.root.children.values())]
        while iters:
            node = next(iters[-1], None)
            if node is None:
                iters.pop()
                continue
            yield node
            iters.append(iter(node.children.values()))

    def edges(self) -> Iterator[Tuple[StackTrace, Any]]:
        """All ``(path, edge label)`` pairs."""
        for path, node in self.walk():
            yield path, node.tasks

    def leaf_paths(self) -> List[Tuple[StackTrace, Any]]:
        """``(path, label)`` for every leaf — the behaviour classes."""
        return [(path, node.tasks) for path, node in self.walk()
                if node.is_leaf()]

    def find(self, path: StackTrace) -> Optional[PrefixTreeNode]:
        """Node at exactly ``path``, or None."""
        node = self.root
        for frame in path:
            node = node.children.get(frame)
            if node is None:
                return None
        return node

    # -- statistics -------------------------------------------------------
    def node_count(self) -> int:
        """Number of non-root nodes (cached; insert invalidates)."""
        count = self._node_count
        if count is None:
            count = self._node_count = sum(1 for _ in self._nodes())
        return count

    def depth(self) -> int:
        """Longest path length (root excluded)."""
        best = 0
        depth = 0
        iters = [iter(self.root.children.values())]
        while iters:
            node = next(iters[-1], None)
            if node is None:
                iters.pop()
                depth -= 1
                continue
            depth += 1
            if depth > best:
                best = depth
            iters.append(iter(node.children.values()))
        return best

    def serialized_bytes(self) -> int:
        """Wire-size model: frames + structure + every edge label.

        This is the quantity the TBO̅N timing model charges to links; it is
        what actually differs between the two label representations.
        Cached; insert invalidates.
        """
        total = self._serialized_bytes
        if total is None:
            total = 8  # tree header
            for node in self._nodes():
                total += node.frame.serialized_bytes() + 8  # child count + id
                total += node.tasks.serialized_bytes()
            self._serialized_bytes = total
        return total

    # -- truncation --------------------------------------------------------
    def truncated(self, stop: Callable[[StackTrace, Frame], bool]) -> "PrefixTree":
        """A copy with subtrees below matching frames cut off.

        ``stop(path, frame)`` returning True makes the node at ``path``
        (whose frame is ``frame``) a leaf.  Labels stay correct without
        recomputation: an edge label is by construction the union of all
        traces passing through it, so dropping children loses no tasks.

        This is how a user views classes at a chosen altitude — e.g. cut
        at the MPI API boundary to see Figure 1's three-way split instead
        of the per-progress-depth sub-classes deeper down.
        """
        clone = PrefixTree(self._label_union, self._label_copy)

        def rec(src: PrefixTreeNode, dst: PrefixTreeNode,
                path: Tuple[Frame, ...]) -> None:
            for frame, child in src.children.items():
                child_path = path + (frame,)
                new = PrefixTreeNode(frame, self._label_copy(child.tasks))
                dst.children[frame] = new
                if not stop(StackTrace(child_path), frame):
                    rec(child, new, child_path)

        rec(self.root, clone.root, ())
        return clone

    def truncated_at_depth(self, max_depth: int) -> "PrefixTree":
        """A copy keeping only the first ``max_depth`` frame levels."""
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        return self.truncated(lambda path, frame: len(path) >= max_depth)

    # -- copying / equality -----------------------------------------------
    def copy(self) -> "PrefixTree":
        """Deep copy (labels copied with ``label_copy``)."""
        clone = PrefixTree(self._label_union, self._label_copy)

        def rec(src: PrefixTreeNode, dst: PrefixTreeNode) -> None:
            for frame, child in src.children.items():
                new = PrefixTreeNode(frame, self._label_copy(child.tasks))
                dst.children[frame] = new
                rec(child, new)

        rec(self.root, clone.root)
        return clone

    def structurally_equal(self, other: "PrefixTree") -> bool:
        """Same shape and equal labels everywhere (order-insensitive)."""

        def rec(a: PrefixTreeNode, b: PrefixTreeNode) -> bool:
            if set(a.children) != set(b.children):
                return False
            for frame, ca in a.children.items():
                cb = b.children[frame]
                if ca.tasks != cb.tasks:
                    return False
                if not rec(ca, cb):
                    return False
            return True

        return rec(self.root, other.root)

    # -- rendering --------------------------------------------------------
    def render_text(self, task_ranks: Optional[Callable[[Any], Any]] = None,
                    max_runs: int = 4) -> str:
        """Indented text rendering with ``count:[ranks]`` edge labels.

        ``task_ranks`` converts an edge label to a rank list; defaults to
        ``label.to_ranks()`` (dense labels).  Pass
        ``lambda t: t.to_global_ranks(task_map)`` for hierarchical labels.
        """
        resolve = task_ranks or (lambda t: t.to_ranks())
        lines: List[str] = [self.root.frame.function]

        def rec(node: PrefixTreeNode, indent: int) -> None:
            for frame, child in node.children.items():
                label = format_edge_label(resolve(child.tasks), max_runs=max_runs)
                lines.append("  " * indent + f"{frame.function}  {label}")
                rec(child, indent + 1)

        rec(self.root, 1)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<PrefixTree nodes={self.node_count()}>"
