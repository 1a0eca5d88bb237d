"""Rendering of call graph prefix trees (Figure 1).

Produces Graphviz DOT (what real STAT emits for its GUI) and a compact
ASCII rendering for terminals, both of a finalized (dense-labelled)
tree.  Node boxes show the function name; edges carry ``count:[ranks]``
labels, truncated with ``...`` past ``max_runs`` runs just like the
paper's figure (``275:[8,11-12,17,...]``).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.frames import ROOT_FRAME
from repro.core.interning import FRAMES
from repro.core.ranklist import format_edge_label
from repro.core.treearrays import TreeArrays

__all__ = ["to_dot", "to_ascii"]


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _edge_labels(tree: TreeArrays, max_runs: int) -> List[str]:
    """``count:[ranks]`` per node, formatted once per distinct label row."""
    rows = {ref: format_edge_label(tree.row_ranks(tree.labels[ref]),
                                   max_runs=max_runs)
            for ref in np.unique(tree.label_refs).tolist()}
    return [rows[ref] for ref in tree.label_refs.tolist()]


def to_dot(tree: TreeArrays,
           max_runs: int = 4,
           graph_name: str = "stat_prefix_tree") -> str:
    """Render the tree as a Graphviz DOT digraph.

    Every node gets a stable integer id (preorder); edges are labelled with
    the compressed rank lists.  The output is valid input for ``dot -Tpng``
    and matches the visual structure of the paper's Figure 1.
    """
    labels = _edge_labels(tree, max_runs)
    frames = FRAMES.frames_of(tree.frame_ids)
    lines: List[str] = [
        f'digraph "{_escape(graph_name)}" {{',
        '  node [shape=box, fontname="Helvetica"];',
        '  edge [fontname="Helvetica", fontsize=10];',
        f'  n0 [label="{_escape(ROOT_FRAME.function)}"];',
    ]
    dot_id = {-1: 0}
    for node in tree.preorder():
        dot_id[node] = len(dot_id)
        parent = int(tree.parents[node])
        lines.append(f'  n{dot_id[node]} '
                     f'[label="{_escape(frames[node].function)}"];')
        lines.append(f'  n{dot_id[parent]} -> n{dot_id[node]} '
                     f'[label="{_escape(labels[node])}"];')
    lines.append("}")
    return "\n".join(lines)


def to_ascii(tree: TreeArrays, max_runs: int = 4) -> str:
    """Render the tree with box-drawing characters for terminals.

    Example output for the ring-test hang::

        /
        └── _start  1024:[0-1023]
            └── main  1024:[0-1023]
                ├── PMPI_Barrier  1022:[0,3-1023]
                ├── do_SendOrStall  1:[1]
                └── PMPI_Waitall  1:[2]
    """
    labels = _edge_labels(tree, max_runs)
    frames = FRAMES.frames_of(tree.frame_ids)
    kids = tree.children()
    last = {siblings[-1] for siblings in kids if siblings}
    indent = {-1: ""}  # prefix of each node's children's lines
    lines: List[str] = [ROOT_FRAME.function]
    for node in tree.preorder(kids):
        prefix = indent[int(tree.parents[node])]
        connector = "└── " if node in last else "├── "
        lines.append(f"{prefix}{connector}{frames[node].function}  "
                     f"{labels[node]}")
        indent[node] = prefix + ("    " if node in last else "│   ")
    return "\n".join(lines)
