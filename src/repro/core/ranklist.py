"""Compressed rank-list rendering for edge labels.

STAT's call-prefix-tree output labels every edge with ``count:[ranks]``
where the rank list collapses runs into ranges, e.g. Figure 1's
``1022:[0,3-1023]`` or, when truncated for display, ``275:[8,11-12,17,...]``.

This module provides the formatter, its inverse (used by property tests to
verify losslessness of the untruncated form), and the composite edge-label
helper.  A rank set is an ``int64`` array throughout: every entry point
normalises its input once with :func:`normalize_ranks` and runs are the
``np.diff`` boundaries of that array — no per-rank Python loop, whatever
the job size.
"""

from __future__ import annotations

import re
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.lint.contracts import contract

__all__ = [
    "normalize_ranks",
    "compress_ranks",
    "format_rank_list",
    "format_edge_label",
    "parse_rank_list",
]


@contract("-> ranks:(n):int64")
def normalize_ranks(ranks: Iterable[int]) -> np.ndarray:
    """``ranks`` as a strictly increasing ``int64`` array.

    Accepts any iterable of integers (lists, tuples, sets, generators,
    numpy scalars) or an integer array of any width; every rank-set
    consumer — the label constructors in :mod:`repro.core.taskset`, the
    formatters below, :func:`~repro.core.equivalence.equivalence_classes`
    — normalises through here.  An ``int64`` array that is already
    strictly increasing (what ``label.to_ranks()`` returns) comes back
    as is, not copied; anything else is sorted and deduplicated once.
    """
    if isinstance(ranks, np.ndarray):
        if ranks.ndim != 1:
            raise ValueError(
                f"ranks must be one-dimensional, got shape {ranks.shape}")
        # Widen before any arithmetic: np.diff on uint8 wraps.
        arr = ranks.astype(np.int64, copy=False)
    else:
        arr = np.fromiter(ranks, dtype=np.int64)
    if arr.size > 1 and not (arr[1:] > arr[:-1]).all():
        arr = np.unique(arr)
    return arr


@contract("arr:(n):int64 -> *")
def _runs(arr: np.ndarray) -> List[Tuple[int, int]]:
    """Inclusive ``(start, end)`` runs of a normalised rank array."""
    if arr.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(arr) > 1)
    if breaks.size == 0:  # one run: most labels of a many-class tree
        return [(int(arr[0]), int(arr[-1]))]
    starts = arr[np.concatenate(([0], breaks + 1))]
    ends = arr[np.concatenate((breaks, [arr.size - 1]))]
    return list(zip(starts.tolist(), ends.tolist()))


def _format_runs(arr: np.ndarray, max_runs: Optional[int]) -> str:
    """``[0,3-1023]`` rendering of a normalised rank array."""
    runs = _runs(arr)
    truncated = max_runs is not None and len(runs) > max_runs
    if truncated:
        runs = runs[:max_runs]
    parts = [f"{a}" if a == b else f"{a}-{b}" for a, b in runs]
    if truncated:
        parts.append("...")
    return "[" + ",".join(parts) + "]"


def compress_ranks(ranks: Iterable[int]) -> List[Tuple[int, int]]:
    """Collapse a set of ranks into sorted, inclusive ``(start, end)`` runs.

    Run boundaries are the gaps (``np.diff > 1``) of the normalised rank
    array; the result is a list of Python ``int`` pairs.

    >>> compress_ranks([0, 3, 4, 5, 1023])
    [(0, 0), (3, 5), (1023, 1023)]
    """
    return _runs(normalize_ranks(ranks))


def format_rank_list(ranks: Iterable[int], max_runs: int | None = None) -> str:
    """Render ranks as ``[0,3-1023]``; truncate to ``max_runs`` runs with ``...``.

    A single-element run renders as the bare rank; longer runs as
    ``start-end``.  With ``max_runs`` set and exceeded, the list ends in
    ``...`` exactly as in the paper's Figure 1 labels.

    >>> format_rank_list([0] + list(range(3, 1024)))
    '[0,3-1023]'
    >>> format_rank_list([8, 11, 12, 17, 40], max_runs=3)
    '[8,11-12,17,...]'
    """
    return _format_runs(normalize_ranks(ranks), max_runs)


def format_edge_label(ranks: Iterable[int], max_runs: int | None = 4) -> str:
    """Full STAT edge label ``count:[ranks]`` (count is never truncated).

    >>> format_edge_label([1])
    '1:[1]'
    """
    arr = normalize_ranks(ranks)
    return f"{arr.size}:{_format_runs(arr, max_runs)}"


_RUN_RE = re.compile(r"^(\d+)(?:-(\d+))?$")


def parse_rank_list(text: str) -> List[int]:
    """Inverse of :func:`format_rank_list` for untruncated lists.

    Raises ``ValueError`` on malformed input or on a truncated (``...``)
    list, which is inherently lossy.
    """
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"rank list must be bracketed: {text!r}")
    body = text[1:-1]
    if not body:
        return []
    ranks: List[int] = []
    for token in body.split(","):
        token = token.strip()
        if token == "...":
            raise ValueError("cannot parse a truncated rank list")
        m = _RUN_RE.match(token)
        if not m:
            raise ValueError(f"malformed run {token!r} in {text!r}")
        start = int(m.group(1))
        end = int(m.group(2)) if m.group(2) is not None else start
        if end < start:
            raise ValueError(f"descending run {token!r}")
        ranks.extend(range(start, end + 1))
    return ranks
