"""Frozen per-rank oracles for the end product (classes and edge labels).

These are the bodies ``repro.core.equivalence.equivalence_classes`` and
``repro.core.ranklist.compress_ranks`` / ``format_rank_list`` /
``format_edge_label`` had before they became array kernels, moved here
verbatim.  They live under ``tests/`` — not in the package — and exist
only so ``test_end_product.py`` can demand bit-identical output from
the production code.  Do not optimise them.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

import numpy as np

from repro.core.equivalence import EquivalenceClass, mpi_api_boundary
from repro.core.frames import StackTrace
from repro.core.prefix_tree import PrefixTree

__all__ = [
    "oracle_compress_ranks",
    "oracle_format_rank_list",
    "oracle_format_edge_label",
    "oracle_equivalence_classes",
    "oracle_triage_classes",
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


def oracle_equivalence_classes(tree: PrefixTree) -> List[EquivalenceClass]:
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


def oracle_triage_classes(tree: PrefixTree) -> List[EquivalenceClass]:
    return oracle_equivalence_classes(tree.truncated(mpi_api_boundary))
