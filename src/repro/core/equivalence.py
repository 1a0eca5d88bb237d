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
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from repro.core.frames import StackTrace
from repro.core.prefix_tree import PrefixTree
from repro.core.ranklist import format_edge_label

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
    """
    membership: Dict[int, List[StackTrace]] = {}
    for path, node in tree.walk():
        ranks = node.tasks.to_ranks()
        if node.children:
            child_ranks = np.unique(np.concatenate(
                [c.tasks.to_ranks() for c in node.children.values()]))
            terminal = np.setdiff1d(ranks, child_ranks)
        else:
            terminal = ranks
        for rank in terminal:
            membership.setdefault(int(rank), []).append(path)

    groups: Dict[FrozenSet[StackTrace], List[int]] = {}
    for rank, paths in membership.items():
        groups.setdefault(frozenset(paths), []).append(rank)

    classes = [
        EquivalenceClass(
            paths=tuple(sorted(key, key=lambda p: tuple(f.function for f in p))),
            ranks=tuple(sorted(ranks)),
        )
        for key, ranks in groups.items()
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
