"""Triage queries over a finalized (dense-labelled) prefix tree.

Once the front end holds the rank-ordered tree, users triage with set
questions: *which tasks are inside MPI_Barrier? which ever touched the
progress engine but never reached the barrier? which single task differs
from its class?*  These compose from the dense label rows (one
``bitwise_or`` per union) and sorted-array set algebra on the ranks they
read as; this module packages the common ones.

All queries run on the front end only — consistent with the Section V
rule that "tools must avoid global views of all tasks" anywhere else.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.equivalence import (
    EquivalenceClass,
    _terminal_sets,
    equivalence_classes,
)
from repro.core.frames import StackTrace
from repro.core.interning import FRAMES
from repro.core.treearrays import KIND_DENSE, TreeArrays

__all__ = ["TreeQuery"]

_NO_RANKS = np.zeros(0, dtype=np.int64)


class TreeQuery:
    """Set-algebra queries over one finalized tree.

    Every selector returns the selected ranks as a sorted ``int64``
    array.
    """

    def __init__(self, tree: TreeArrays) -> None:
        if tree.kind != KIND_DENSE or not tree.node_count():
            raise ValueError(
                "TreeQuery needs a finalized tree with dense labels "
                "(run scheme.finalize first)")
        self.tree = tree
        self.total_tasks = tree.width
        self._paths = tree.paths()
        self._classes: Optional[List[EquivalenceClass]] = None

    def _union(self, nodes) -> np.ndarray:
        """The union of the edge labels into ``nodes``."""
        rows = self.tree.labels[self.tree.label_refs[nodes]]
        return self.tree.row_ranks(np.bitwise_or.reduce(rows, axis=0))

    # -- basic selectors ------------------------------------------------------
    def all_tasks(self) -> np.ndarray:
        """Every task observed anywhere in the tree."""
        return self._union(self.tree.children()[-1])

    def tasks_at(self, path: StackTrace) -> np.ndarray:
        """Tasks whose traces pass through exactly this call path."""
        node = self.tree.node_at(path)
        return _NO_RANKS.copy() if node is None else self.tree.label_of(node)

    def tasks_in_function(self, function: str,
                          module: Optional[str] = None) -> np.ndarray:
        """Tasks with ``function`` anywhere on their sampled stacks."""
        nodes = [node for node, frame in
                 enumerate(FRAMES.frames_of(self.tree.frame_ids))
                 if frame.function == function
                 and (module is None or frame.module == module)]
        return self._union(nodes)

    # -- composite triage questions ---------------------------------------------
    def reached_but_not(self, reached: str, not_reached: str) -> np.ndarray:
        """Tasks that entered ``reached`` but never ``not_reached``.

        The classic hang question: ``reached_but_not("main",
        "PMPI_Barrier")`` names the tasks holding everyone else up.
        """
        return np.setdiff1d(self.tasks_in_function(reached),
                            self.tasks_in_function(not_reached),
                            assume_unique=True)

    def absent_tasks(self) -> np.ndarray:
        """Tasks never observed at all (dead daemons / lost traces)."""
        return np.setdiff1d(np.arange(self.total_tasks, dtype=np.int64),
                            self.all_tasks(), assume_unique=True)

    def outliers(self, max_class_size: int = 1) -> List[Tuple[StackTrace, List[int]]]:
        """Call paths terminal for at most ``max_class_size`` tasks.

        Small terminal sets are where bugs hide (Figure 1's ``1:[1]``):
        returns ``(path, ranks)`` sorted by set size then path.
        """
        found: List[Tuple[StackTrace, List[int]]] = []
        for node, terminal in self._terminals():
            if 0 < terminal.size <= max_class_size:
                found.append((self._paths[node], terminal.tolist()))
        found.sort(key=lambda item: (len(item[1]),
                                     tuple(f.function for f in item[0])))
        return found

    def where_is(self, rank: int) -> List[StackTrace]:
        """Every call path a specific rank was observed on.

        The question a user asks right before attaching the heavyweight
        debugger: "what was rank 1 actually doing?"  (Where its traces
        end: a leaf, or an internal node no child of which carries it.)
        """
        paths = [self._paths[node] for node, terminal in self._terminals()
                 if rank in terminal]
        return sorted(paths, key=lambda p: tuple(f.function for f in p))

    def class_of(self, rank: int) -> np.ndarray:
        """All tasks behaviourally identical to ``rank`` (same paths).

        That is the member of :func:`equivalence_classes` holding
        ``rank``, or no task if ``rank`` was never observed.
        """
        if self._classes is None:
            self._classes = equivalence_classes(self.tree)
        for cls in self._classes:
            if rank in cls.ranks:
                return np.asarray(cls.ranks, np.int64)
        return _NO_RANKS.copy()

    def _terminals(self) -> Iterator[Tuple[int, np.ndarray]]:
        """``(node, tasks whose traces end there)`` in preorder."""
        return zip(*_terminal_sets(self.tree))
