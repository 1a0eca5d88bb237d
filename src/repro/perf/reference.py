"""Retained reference kernels (pre-vectorization).

These are the per-object implementations the repo shipped before the
vectorized rewrites landed — the recursive pairwise-union *merge*
kernels, and the scalar-walk *build* path (one ``StackWalker.walk`` per
slot/thread into ``PrefixTree`` slot trees).  They are kept for two
jobs:

* the equivalence property tests (``tests/test_merge_equivalence.py``,
  ``tests/test_build_equivalence.py``) assert that the vectorized
  kernels produce bit-identical trees on randomized inputs;
* ``stat-repro bench`` measures the vectorized kernels *against* them
  and records the speedups in ``BENCH_merge.json`` /
  ``BENCH_build.json``.

Do not "improve" these: their value is being the frozen baseline.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.frames import Frame
from repro.lint.contracts import exempt
from repro.core.prefix_tree import PrefixTree, PrefixTreeNode
from repro.core.taskset import DaemonLayout, HierarchicalTaskSet

__all__ = [
    "reference_dense_merge",
    "reference_hierarchical_merge",
    "reference_merge",
    "reference_daemon_trees",
]


def _ordered_frame_union(nodes: Sequence[PrefixTreeNode]) -> List[Frame]:
    """Union of children frames, preserving first-seen order."""
    seen: Dict[Frame, None] = {}
    for node in nodes:
        for frame in node.children:
            if frame not in seen:
                seen[frame] = None
    return list(seen)


@exempt
def reference_dense_merge(trees: Sequence[PrefixTree]) -> PrefixTree:
    """Recursive structure merge; label merge is pairwise bitwise OR."""
    out = PrefixTree()

    def rec(dst: PrefixTreeNode, srcs: List[PrefixTreeNode]) -> None:
        for frame in _ordered_frame_union(srcs):
            contributors = [n.children[frame] for n in srcs
                            if frame in n.children]
            label = contributors[0].tasks.copy()
            for other in contributors[1:]:
                label.union_inplace(other.tasks)
            node = PrefixTreeNode(frame, label)
            dst.children[frame] = node
            rec(node, contributors)

    rec(out.root, [t.root for t in trees])
    return out


def _tree_layout(tree: PrefixTree) -> DaemonLayout:
    for _, label in tree.edges():
        if not isinstance(label, HierarchicalTaskSet):
            raise TypeError("tree does not carry hierarchical labels")
        return label.layout
    raise ValueError("cannot determine layout of an empty tree")


@exempt
def reference_hierarchical_merge(trees: Sequence[PrefixTree]) -> PrefixTree:
    """Recursive concatenation merge: per-node zero-fill plus pastes."""
    if not trees:
        raise ValueError("merge of zero trees")
    layouts = [_tree_layout(t) for t in trees]
    merged_layout = DaemonLayout.concat(layouts)
    offsets = np.concatenate(
        ([0], np.cumsum([lay.nbytes for lay in layouts])))[:-1]

    out = PrefixTree()

    def rec(dst: PrefixTreeNode,
            srcs: List[Tuple[int, PrefixTreeNode]]) -> None:
        for frame in _ordered_frame_union([n for _, n in srcs]):
            contributors = [(i, n.children[frame]) for i, n in srcs
                            if frame in n.children]
            data = np.zeros(merged_layout.nbytes, dtype=np.uint8)
            for i, node in contributors:
                off = int(offsets[i])
                data[off:off + layouts[i].nbytes] = node.tasks.data
            child = PrefixTreeNode(
                frame, HierarchicalTaskSet(merged_layout, data))
            dst.children[frame] = child
            rec(child, contributors)

    rec(out.root, list(enumerate(t.root for t in trees)))
    return out


@exempt
def reference_merge(scheme_name: str,
                    trees: Sequence[PrefixTree]) -> PrefixTree:
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
    (one RNG draw sequence per slot/thread) into slot-set prefix trees,
    then object-level label materialization.  The per-daemon RNG is
    derived exactly as :class:`~repro.statbench.emulator.STATBenchEmulator`
    derives it (``SeedStream(seed).rng(f"daemon-{id}")``), so for any
    state provider the forest kernel's result
    (:func:`repro.core.forest.build_forest`) must be bit-identical to
    this one for the same arguments.  ``state_of`` is always consumed through its
    scalar ``__call__`` — a provider's batch API is deliberately ignored.
    """
    from repro.core.daemon import STATDaemon
    from repro.sim.random import SeedStream

    daemon = STATDaemon(
        daemon_id, task_map, scheme, stack_model,
        rng=SeedStream(seed).rng(f"daemon-{daemon_id}"),
        threads_per_process=threads_per_process)
    daemon.collect_samples(state_of, num_samples)
    return daemon.trees_arrays()
