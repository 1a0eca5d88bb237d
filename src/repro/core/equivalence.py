"""Process equivalence classes — STAT's end product.

STAT's purpose is search-space reduction: group the job's tasks into
classes that "exhibit similar behavior" so a heavyweight debugger can be
aimed at one representative per class instead of at 200K tasks.

For a **2D trace-space** tree each task lies on exactly one root→leaf path,
so classes are simply the leaf paths.  For a **3D trace-space-time** tree a
task may traverse several paths (its behaviour over the sampling window);
tasks are then equivalent iff they visited the *same set* of paths.
Both cases are handled by :func:`equivalence_classes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.frames import StackTrace
from repro.core.prefix_tree import PrefixTree
from repro.core.ranklist import format_edge_label, normalize_ranks
from repro.lint.contracts import contract

__all__ = ["EquivalenceClass", "equivalence_classes", "representatives"]


@dataclass(frozen=True)
class EquivalenceClass:
    """A set of tasks exhibiting identical sampled behaviour.

    ``paths`` is the set of leaf call paths the class's tasks visited
    (singleton for 2D trees).  ``ranks`` is the sorted member ranks.
    """

    paths: Tuple[StackTrace, ...]
    ranks: Tuple[int, ...]

    @property
    def size(self) -> int:
        """Number of member tasks."""
        return len(self.ranks)

    @property
    def representative(self) -> int:
        """Lowest member rank — the task to hand to a heavyweight debugger."""
        return self.ranks[0]

    def label(self, max_runs: int = 4) -> str:
        """``count:[ranks]`` display form."""
        return format_edge_label(self.ranks, max_runs=max_runs)

    def describe(self) -> str:
        """Multi-line human-readable description."""
        lines = [f"class {self.label()}  (representative rank {self.representative})"]
        for path in self.paths:
            lines.append(f"  {path}")
        return "\n".join(lines)


@contract("ranks:(n):int64, children:[int64], mask:(t):bool "
          "-> terminal:(k):int64")
def _terminal_ranks(ranks: np.ndarray, children: Sequence[np.ndarray],
                    mask: np.ndarray) -> np.ndarray:
    """``ranks`` minus the union of ``children``: one node's terminal set.

    ``mask`` is an all-False scratch array longer than the largest rank
    involved; it is all-False again on return, so one allocation serves
    every node of a tree.
    """
    mask[ranks] = True
    for child in children:
        mask[child] = False
    terminal = ranks[mask[ranks]]
    mask[ranks] = False
    return terminal


@contract("ranks:(m):int64, nodes:(m):int64 -> *")
def _group_pairs(ranks: np.ndarray, nodes: np.ndarray,
                 ) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Group ``(rank, node)`` pairs by each rank's whole set of nodes.

    There must be at least one pair, and ``nodes`` must ascend along the
    pair list (preorder node ids, pairs emitted node by node).  Returns
    one ``(node ids, member ranks)`` pair of ascending arrays per distinct
    node set, in no particular order.
    """
    order = np.argsort(ranks, kind="stable")  # a rank's nodes stay ascending
    ranks, nodes = ranks[order], nodes[order]
    first = np.flatnonzero(np.concatenate(([True], ranks[1:] != ranks[:-1])))
    count = np.diff(first, append=ranks.size)
    # Partition refinement: after step j two ranks share an id iff their
    # first j+1 nodes agree (0 stands for "has no j-th node").  A 2D tree
    # never enters the loop: a rank's only node is its class.
    base = int(nodes.max()) + 2
    sig = nodes[first]
    for j in range(1, int(count.max())):
        nth = np.where(count > j,
                       nodes[np.minimum(first + j, nodes.size - 1)] + 1, 0)
        sig = np.unique(sig * base + nth, return_inverse=True)[1]
    by_class = np.argsort(sig, kind="stable")  # members stay ascending
    sig, first, count = sig[by_class], first[by_class], count[by_class]
    starts = np.flatnonzero(np.concatenate(([True], sig[1:] != sig[:-1])))
    members = np.split(ranks[first], starts[1:])
    return [(nodes[f:f + k], m) for f, k, m
            in zip(first[starts].tolist(), count[starts].tolist(), members)]


def equivalence_classes(tree: PrefixTree) -> List[EquivalenceClass]:
    """Extract equivalence classes from a merged, finalized prefix tree.

    Parameters
    ----------
    tree:
        The front end's finalized tree: its (dense) edge labels resolve
        to global ranks with ``label.to_ranks()``.

    Returns
    -------
    list of :class:`EquivalenceClass`, largest class first (ties broken by
    lowest representative rank) — the order a user triages in.

    Notes
    -----
    A task's trace may *terminate* at an internal node (e.g. a shallower
    progress-engine recursion than a sibling's), so classes are built from
    **terminal ranks** — a node's ranks minus the union of its children's
    ranks — not from leaf paths alone.

    Rank sets stay ``int64`` arrays throughout: terminal sets come from
    one reused scratch mask (:func:`_terminal_ranks`), classes from one
    stable sort of the ``(rank, preorder node)`` pairs split where a
    rank's node set changes (:func:`_group_pairs`), and only the finished
    classes become tuples of Python ``int``.  Memory is proportional to
    the summed terminal-set sizes, never to ``nodes x tasks``.
    """
    paths: List[StackTrace] = []
    terminals: List[np.ndarray] = []
    mask = np.zeros(0, dtype=bool)
    for path, node in tree.walk():
        ranks = normalize_ranks(node.tasks.to_ranks())
        if node.children:
            children = [normalize_ranks(child.tasks.to_ranks())
                        for child in node.children.values()]
            top = max((int(a[-1]) for a in (ranks, *children) if a.size),
                      default=-1)
            if top >= mask.size:
                mask = np.zeros(top + 1, dtype=bool)
            ranks = _terminal_ranks(ranks, children, mask)
        paths.append(path)
        terminals.append(ranks)
    sizes = [ranks.size for ranks in terminals]
    if not any(sizes):
        return []

    nodes = np.repeat(np.arange(len(terminals)), sizes)
    classes = [
        EquivalenceClass(
            paths=tuple(sorted((paths[i] for i in node_ids.tolist()),
                               key=lambda p: tuple(f.function for f in p))),
            ranks=tuple(members.tolist()),
        )
        for node_ids, members in _group_pairs(np.concatenate(terminals), nodes)
    ]
    classes.sort(key=lambda c: (-c.size, c.representative))
    return classes


def mpi_api_boundary(path: StackTrace, frame) -> bool:
    """Truncation predicate: stop at the first MPI API entry frame.

    Cutting the tree here groups tasks by *which MPI call they are in*
    rather than by transient progress-engine recursion depth — the
    altitude at which Figure 1's population reads ``1022 / 1 / 1``.
    """
    return frame.function.startswith(("PMPI_", "MPI_"))


def triage_classes(tree: PrefixTree) -> List[EquivalenceClass]:
    """Equivalence classes at the MPI API boundary (the triage view)."""
    return equivalence_classes(tree.truncated(mpi_api_boundary))


def representatives(classes: Sequence[EquivalenceClass],
                    per_class: int = 1) -> List[int]:
    """Pick ``per_class`` representative ranks from each class.

    This is the "manageable subset of tasks" the paper's debugging strategy
    attaches a full-featured debugger to.
    """
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    picked: List[int] = []
    for cls in classes:
        picked.extend(cls.ranks[:per_class])
    return picked
