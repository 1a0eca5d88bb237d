"""Frozen per-rank oracles for the end product (classes and edge labels).

These are the bodies ``repro.core.equivalence.equivalence_classes``,
``repro.core.ranklist.compress_ranks`` / ``format_rank_list`` /
``format_edge_label``, the object tree's ``truncated`` and
``TreeQuery.class_of`` had before they became array code, moved here
nearly verbatim: the tree ones walk the linked
:class:`~per_object_oracle.ObjectTree`.  They live under ``tests/`` —
not in the package — and exist only so the tests can demand
bit-identical output from the production code.  Do not optimise them.
"""

from __future__ import annotations

from typing import (Callable, Dict, FrozenSet, Iterable, Iterator, List,
                    Sequence, Tuple)

import numpy as np

from per_object_oracle import ObjectNode, ObjectTree
from repro.core.equivalence import EquivalenceClass, mpi_api_boundary
from repro.core.frames import Frame, StackTrace
from repro.core.queries import TreeQuery

__all__ = [
    "oracle_compress_ranks",
    "oracle_format_rank_list",
    "oracle_format_edge_label",
    "oracle_equivalence_classes",
    "oracle_triage_classes",
    "oracle_truncated",
    "oracle_class_of",
]


def oracle_compress_ranks(ranks: Iterable[int]) -> List[Tuple[int, int]]:
    arr = np.asarray(sorted(set(int(r) for r in ranks)), dtype=np.int64)
    if arr.size == 0:
        return []
    breaks = np.nonzero(np.diff(arr) > 1)[0]
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [arr.size - 1]))
    return [(int(arr[s]), int(arr[e])) for s, e in zip(starts, ends)]


def oracle_format_rank_list(ranks: Iterable[int],
                            max_runs: int | None = None) -> str:
    runs = oracle_compress_ranks(ranks)
    truncated = False
    if max_runs is not None and len(runs) > max_runs:
        runs = runs[:max_runs]
        truncated = True
    parts = [f"{a}" if a == b else f"{a}-{b}" for a, b in runs]
    if truncated:
        parts.append("...")
    return "[" + ",".join(parts) + "]"


def oracle_format_edge_label(ranks: Sequence[int],
                             max_runs: int | None = 4) -> str:
    ranks = sorted(set(int(r) for r in ranks))
    return f"{len(ranks)}:{oracle_format_rank_list(ranks, max_runs=max_runs)}"


def _walk(tree: ObjectTree) -> Iterator[Tuple[StackTrace, ObjectNode]]:
    """Preorder ``(path, node)`` below the root, children in insertion
    order."""
    def rec(node: ObjectNode, path: Tuple[Frame, ...]):
        for frame, child in node.children.items():
            yield StackTrace(path + (frame,)), child
            yield from rec(child, path + (frame,))
    return rec(tree.root, ())


def oracle_truncated(tree: ObjectTree,
                     stop: Callable[[StackTrace, Frame], bool]) -> ObjectTree:
    clone = ObjectTree()

    def rec(src: ObjectNode, dst: ObjectNode,
            path: Tuple[Frame, ...]) -> None:
        for frame, child in src.children.items():
            child_path = path + (frame,)
            new = ObjectNode(frame, child.tasks.copy())
            dst.children[frame] = new
            if not stop(StackTrace(child_path), frame):
                rec(child, new, child_path)

    rec(tree.root, clone.root, ())
    return clone


def oracle_equivalence_classes(tree: ObjectTree) -> List[EquivalenceClass]:
    membership: Dict[int, List[StackTrace]] = {}
    for path, node in _walk(tree):
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


def oracle_triage_classes(tree: ObjectTree) -> List[EquivalenceClass]:
    return oracle_equivalence_classes(
        oracle_truncated(tree, mpi_api_boundary))


def oracle_class_of(query: TreeQuery, rank: int) -> np.ndarray:
    """All tasks whose ``where_is`` paths equal ``rank``'s: one scan of
    the tree per observed rank."""
    mine = {str(p) for p in query.where_is(rank)}
    if not mine:
        return np.zeros(0, dtype=np.int64)
    candidates = query.all_tasks()
    members = [int(r) for r in candidates
               if {str(p) for p in query.where_is(int(r))} == mine]
    return np.asarray(members, dtype=np.int64)
