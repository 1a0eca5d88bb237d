"""Triage queries over a finalized (dense-labelled) prefix tree.

Once the front end holds the rank-ordered tree, users triage with set
questions: *which tasks are inside MPI_Barrier? which ever touched the
progress engine but never reached the barrier? which single task differs
from its class?*  These compose from the dense label algebra; this module
packages the common ones.

All queries run on the front end only — consistent with the Section V
rule that "tools must avoid global views of all tasks" anywhere else.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.frames import StackTrace
from repro.core.prefix_tree import PrefixTree
from repro.core.taskset import DenseBitVector

__all__ = ["TreeQuery"]


class TreeQuery:
    """Set-algebra queries over one finalized tree."""

    def __init__(self, tree: PrefixTree) -> None:
        self.tree = tree
        widths = {label.width for _, label in tree.edges()
                  if isinstance(label, DenseBitVector)}
        if not widths:
            raise ValueError(
                "TreeQuery needs a finalized tree with dense labels "
                "(run scheme.finalize first)")
        if len(widths) != 1:
            raise ValueError(f"inconsistent label widths: {widths}")
        self.total_tasks = widths.pop()

    # -- basic selectors ------------------------------------------------------
    def all_tasks(self) -> DenseBitVector:
        """Every task observed anywhere in the tree."""
        out = DenseBitVector.empty(self.total_tasks)
        for child in self.tree.root.children.values():
            out.union_inplace(child.tasks)
        return out

    def tasks_at(self, path: StackTrace) -> DenseBitVector:
        """Tasks whose traces pass through exactly this call path."""
        node = self.tree.find(path)
        if node is None:
            return DenseBitVector.empty(self.total_tasks)
        return node.tasks.copy()

    def tasks_in_function(self, function: str,
                          module: Optional[str] = None) -> DenseBitVector:
        """Tasks with ``function`` anywhere on their sampled stacks."""
        out = DenseBitVector.empty(self.total_tasks)
        for path, node in self.tree.walk():
            frame = path.leaf
            if frame.function == function and \
                    (module is None or frame.module == module):
                out.union_inplace(node.tasks)
        return out

    # -- composite triage questions ---------------------------------------------
    def reached_but_not(self, reached: str, not_reached: str) -> DenseBitVector:
        """Tasks that entered ``reached`` but never ``not_reached``.

        The classic hang question: ``reached_but_not("main",
        "PMPI_Barrier")`` names the tasks holding everyone else up.
        """
        return self.tasks_in_function(reached) - \
            self.tasks_in_function(not_reached)

    def absent_tasks(self) -> DenseBitVector:
        """Tasks never observed at all (dead daemons / lost traces)."""
        return self.all_tasks().complement()

    def outliers(self, max_class_size: int = 1) -> List[Tuple[StackTrace, List[int]]]:
        """Call paths terminal for at most ``max_class_size`` tasks.

        Small terminal sets are where bugs hide (Figure 1's ``1:[1]``):
        returns ``(path, ranks)`` sorted by set size then path.
        """
        found: List[Tuple[StackTrace, List[int]]] = []
        for path, node in self.tree.walk():
            terminal = node.tasks.copy()
            for child in node.children.values():
                terminal = terminal - child.tasks
            count = terminal.count()
            if 0 < count <= max_class_size:
                found.append((path, terminal.to_ranks().tolist()))
        found.sort(key=lambda item: (len(item[1]),
                                     tuple(f.function for f in item[0])))
        return found

    def where_is(self, rank: int) -> List[StackTrace]:
        """Every call path a specific rank was observed on.

        The question a user asks right before attaching the heavyweight
        debugger: "what was rank 1 actually doing?"
        """
        paths = [path for path, node in self.tree.walk()
                 if rank in node.tasks and node.is_leaf()]
        # include internal terminal positions
        for path, node in self.tree.walk():
            if node.is_leaf() or rank not in node.tasks:
                continue
            if not any(rank in child.tasks
                       for child in node.children.values()):
                paths.append(path)
        return sorted(paths, key=lambda p: tuple(f.function for f in p))

    def class_of(self, rank: int) -> DenseBitVector:
        """All tasks behaviourally identical to ``rank`` (same paths)."""
        mine = {str(p) for p in self.where_is(rank)}
        out = DenseBitVector.empty(self.total_tasks)
        if not mine:
            return out
        candidates = self.all_tasks().to_ranks()
        members = [int(r) for r in candidates
                   if {str(p) for p in self.where_is(int(r))} == mine]
        return DenseBitVector.from_ranks(members, self.total_tasks)
