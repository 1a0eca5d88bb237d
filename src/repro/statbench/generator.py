"""Synthetic rank-state populations.

Each generator returns ``state_of(rank) -> RankState`` — the same callable
the live MPI runtime exposes — so daemons and benchmarks are agnostic to
whether an application actually ran.

Every provider additionally implements the **batch API**
``states_array(ranks) -> int64[n]`` returning interned state ids
(:data:`repro.mpi.runtime.STATES`) for a whole rank array at once,
which is what the forest build kernel (:mod:`repro.core.forest`)
consumes; for anything else — e.g. a live runtime's ``state_of`` bound
method — the emulator interns the scalar answers rank by rank and feeds
the same kernel.  The two APIs must describe the same population:
``STATES.key_of(states_array([r])[0]) == (state_of(r).kind,
state_of(r).where)`` for every rank (pinned by
``tests/test_build_equivalence.py``).  State ids are process-local, so
providers intern on every call instead of caching id arrays — that keeps
them trivially picklable across :class:`~repro.api.suite.ScenarioSuite`
process pools.

The providers are module-level callable classes, not closures: workload
objects carry their provider, and anything a workload object touches can
ride a :class:`~repro.api.suite.ScenarioSuite` spec across a
``ProcessPoolExecutor`` — closures don't pickle, classes do (the
``pickle-safety`` lint rule enforces this).
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from repro.mpi.runtime import STATES, RankState

__all__ = ["ring_hang_states", "uniform_class_states", "distinct_leaf_states",
           "RingHangStates", "UniformClassStates", "DistinctLeafStates"]

StateProvider = Callable[[int], RankState]


class RingHangStates:
    """The Figure 1 population for the ring test's injected hang.

    ``hang_rank`` stalls in ``do_SendOrStall``; its ring successor blocks
    in ``Waitall``; every other rank blocks in ``Barrier``.
    """

    def __init__(self, total_tasks: int, hang_rank: int = 1) -> None:
        if total_tasks < 3:
            raise ValueError("ring hang needs at least 3 tasks")
        if not 0 <= hang_rank < total_tasks:
            raise ValueError(f"hang_rank out of range: {hang_rank}")
        self.total_tasks = total_tasks
        self.hang_rank = hang_rank
        self.blocked_rank = (hang_rank + 1) % total_tasks

    def __call__(self, rank: int) -> RankState:
        if rank == self.hang_rank:
            return RankState("stall", "do_SendOrStall")
        if rank == self.blocked_rank:
            return RankState("waitall")
        return RankState("barrier")

    def states_array(self, ranks: np.ndarray) -> np.ndarray:
        """Interned state ids for a rank array (batch twin of ``__call__``)."""
        r = np.asarray(ranks, dtype=np.int64)
        out = np.full(r.size, STATES.intern("barrier"), dtype=np.int64)
        out[r == self.hang_rank] = STATES.intern("stall", "do_SendOrStall")
        out[r == self.blocked_rank] = STATES.intern("waitall")
        return out


def ring_hang_states(total_tasks: int, hang_rank: int = 1) -> StateProvider:
    """The Figure 1 population (see :class:`RingHangStates`)."""
    return RingHangStates(total_tasks, hang_rank=hang_rank)


#: state kinds a synthetic class may occupy (all samplable).
_CLASS_KINDS: Tuple[Tuple[str, str], ...] = (
    ("barrier", "main"),
    ("waitall", "main"),
    ("recv_wait", "main"),
    ("compute", "do_compute_step"),
    ("compute", "do_work_item"),
    ("stall", "do_SendOrStall"),
    ("isend", "main"),
    ("compute", "do_setup"),
)


class UniformClassStates:
    """Ranks randomly assigned to ``num_classes`` behaviour classes.

    Classes draw (with wraparound) from a fixed palette of plausible
    states; assignment is a seeded permutation so every class is populated
    and scattered across daemons — stressing both the merge (more distinct
    paths) and the remap (non-contiguous rank sets).
    """

    def __init__(self, total_tasks: int, num_classes: int,
                 seed: int = 0) -> None:
        if num_classes < 1:
            raise ValueError("num_classes must be >= 1")
        if num_classes > total_tasks:
            raise ValueError("more classes than tasks")
        rng = np.random.default_rng(seed)
        assignment = rng.integers(0, num_classes, size=total_tasks)
        # Guarantee every class is non-empty.
        assignment[rng.permutation(total_tasks)[:num_classes]] = \
            np.arange(num_classes)
        states = [RankState(kind, where)
                  for kind, where in (_CLASS_KINDS[i % len(_CLASS_KINDS)]
                                      for i in range(num_classes))]
        # Distinguish same-palette classes by the user-frame name.
        for i, st in enumerate(states):
            if i >= len(_CLASS_KINDS):
                states[i] = RankState(st.kind, f"{st.where}_{i}")
        self.total_tasks = total_tasks
        self.num_classes = num_classes
        self.seed = seed
        self.assignment = assignment
        self.states = states

    def __call__(self, rank: int) -> RankState:
        return self.states[int(self.assignment[rank])]

    def states_array(self, ranks: np.ndarray) -> np.ndarray:
        """Interned state ids for a rank array (batch twin of ``__call__``)."""
        class_sids = np.asarray(
            [STATES.intern(st.kind, st.where) for st in self.states],
            dtype=np.int64)
        return class_sids[self.assignment[np.asarray(ranks, dtype=np.int64)]]


def uniform_class_states(total_tasks: int, num_classes: int,
                         seed: int = 0) -> StateProvider:
    """A seeded k-class mix (see :class:`UniformClassStates`)."""
    return UniformClassStates(total_tasks, num_classes, seed=seed)


class DistinctLeafStates:
    """Worst case: every rank in its own user function → no sharing.

    An upper bound for tree width; useful for stress tests of label memory
    and of the "threads as unbounded multiplier" concern in Section VII.
    """

    def __init__(self, total_tasks: int) -> None:
        self.total_tasks = total_tasks

    def __call__(self, rank: int) -> RankState:
        return RankState("compute", f"do_phase_{rank}")

    def states_array(self, ranks: np.ndarray) -> np.ndarray:
        """Interned state ids for a rank array (batch twin of ``__call__``)."""
        return np.asarray(
            [STATES.intern("compute", f"do_phase_{int(r)}")
             for r in np.asarray(ranks, dtype=np.int64)],
            dtype=np.int64)


def distinct_leaf_states(total_tasks: int) -> StateProvider:
    """One class per rank (see :class:`DistinctLeafStates`)."""
    return DistinctLeafStates(total_tasks)
