"""Platform stack models: rank state -> realistic call paths.

A stack model plays the role of the symbol tables + unwinder: given a
rank's :class:`~repro.mpi.runtime.RankState`, it produces the
:class:`~repro.core.frames.StackTrace` a StackWalker would report on that
platform.  Two models reproduce the paper's environments:

* :class:`BGLStackModel` — the frames visible in Figure 1:
  ``_start_blrts > main > PMPI_Barrier > MPIDI_BGLGI_Barrier >
  BGLMP_GIBarrier`` with the ``BGLML_pollfcn / BGLML_Messager_advance /
  BGLML_Messager_CMadvance`` progress-engine recursion whose depth varies
  from sample to sample (that variation is what widens the 3D
  trace-space-time tree over the 2D one).
* :class:`LinuxStackModel` — an MPICH-on-Linux shape for Atlas
  (``_start > __libc_start_main > main > PMPI_* > MPIDI_CH3I_Progress >
  MPID_nem_ib_poll``).

Determinism: depth variation draws from a caller-provided RNG, so sampled
3D trees are reproducible given a seed.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.frames import Frame, StackTrace
from repro.core.interning import PATHS
from repro.mpi.runtime import STATES, RankState

__all__ = ["StackModel", "BGLStackModel", "LinuxStackModel",
           "SIG_NONE", "SIG_DEPTH", "SIG_DEPTH_TOD"]

#: draw signatures — which RNG values one ``trace_for`` call consumes
SIG_NONE = 0        # no draws
SIG_DEPTH = 1       # one ``integers`` draw (progress-engine depth)
SIG_DEPTH_TOD = 2   # one ``integers`` then one ``random`` draw


class StackModel:
    """Interface: produce the current stack trace for a rank state."""

    #: module name carrying the application's own symbols
    app_module = "app"
    #: module name of the MPI library (drives symbol-table staging)
    mpi_module = "libmpi"

    #: state kinds whose ``trace_for`` consumes one depth draw
    DEPTH_KINDS: frozenset = frozenset()
    #: kinds that consume one depth draw *then* one timing-leaf draw
    TOD_KINDS: frozenset = frozenset()
    #: inclusive ``(low, high)`` range of the depth draw
    DEPTH_RANGE: Tuple[int, int] = (0, 0)
    #: probability of catching the timing leaf (``TOD_KINDS`` only)
    TOD_THRESHOLD: float = 0.0

    def __init__(self) -> None:
        # Distinct traces are few (state kinds x depth draws); memoizing
        # them makes full-machine emulation (millions of walks) cheap and
        # lets identical traces share one immutable StackTrace instance.
        self._trace_cache: dict = {}
        # Batch-path registries: dense trace ids over (state id, drawn
        # values), their interned path-id rows, and memoized tree
        # structures keyed by ordered distinct-trace tuples
        # (core/buildarrays.py).
        self._trace_paths: List[np.ndarray] = []
        self._trace_ids: dict = {}
        self._sig_cache: Optional[np.ndarray] = None
        self._paths_matrix: Optional[np.ndarray] = None
        self.struct_cache: dict = {}
        # Dense composite-key -> trace-id table for the forest kernel
        # (core/forest.py): grown lazily, -1 marks unmapped keys.
        self.ukey_lut: Optional[np.ndarray] = None

    def _cached(self, key: tuple, builder) -> StackTrace:
        trace = self._trace_cache.get(key)
        if trace is None:
            trace = builder()
            self._trace_cache[key] = trace
        return trace

    def trace_for(self, state: RankState,
                  rng: Optional[np.random.Generator] = None,
                  thread_id: int = 0) -> StackTrace:
        """Stack trace for one sampled instant."""
        raise NotImplementedError

    def trace_from_parts(self, kind: str, where: str, depth: int,
                         tod: bool, thread_id: int) -> StackTrace:
        """The trace ``trace_for`` would return for already-drawn values.

        Shares ``_trace_cache`` with the scalar path (same key tuples), so
        batch and scalar sampling hand out the *same* memoized
        :class:`StackTrace` instances.
        """
        raise NotImplementedError

    # -- batch sampling support (core/sampling.py) -------------------------
    def state_signatures(self) -> np.ndarray:
        """Per interned state id: the draw signature of one walk.

        Grown lazily as :data:`~repro.mpi.runtime.STATES` grows; the batch
        walk sampler indexes this with state-id arrays to replicate the
        scalar RNG consumption exactly.
        """
        n = len(STATES)
        sigs = self._sig_cache
        if sigs is None or sigs.size < n:
            out = np.zeros(n, dtype=np.int8)
            for sid in range(n):
                kind = STATES.key_of(sid)[0]
                if kind in self.TOD_KINDS:
                    out[sid] = SIG_DEPTH_TOD
                elif kind in self.DEPTH_KINDS:
                    out[sid] = SIG_DEPTH
            self._sig_cache = sigs = out
        return sigs

    def trace_id(self, sid: int, depth: int, tod: bool,
                 thread_id: int) -> int:
        """Dense id of the trace for one (state id, drawn values) tuple."""
        key = (sid, depth, tod, thread_id)
        tid = self._trace_ids.get(key)
        if tid is None:
            kind, where = STATES.key_of(sid)
            trace = self.trace_from_parts(kind, where, depth, tod, thread_id)
            tid = self._trace_ids[key] = len(self._trace_paths)
            frames = np.asarray(trace.frame_ids(), dtype=np.int64)
            self._trace_paths.append(PATHS.ids_of(
                frames, np.arange(-1, frames.size - 1, dtype=np.int64)))
            self._paths_matrix = None
        return tid

    def trace_paths(self) -> np.ndarray:
        """Padded path-id matrix over registered trace ids.

        Row ``t`` holds the interned path id of every prefix of trace
        ``t`` — ``row[l]`` names the tree node its first ``l + 1``
        frames reach — ``-1``-padded to the deepest registered trace;
        rebuilt lazily when new traces register.
        """
        m = self._paths_matrix
        if m is None:
            width = max((p.size for p in self._trace_paths), default=0)
            m = self._paths_matrix = np.full(
                (len(self._trace_paths), width), -1, dtype=np.int64)
            for t, path in enumerate(self._trace_paths):
                m[t, :path.size] = path
        return m

    def mean_depth(self) -> float:
        """Expected frame count (used by sampling cost models)."""
        raise NotImplementedError


def _draw_depth(rng: Optional[np.random.Generator], low: int, high: int) -> int:
    """Progress-engine recursion depth for this instant."""
    if rng is None or high <= low:
        return low
    return int(rng.integers(low, high + 1))


class BGLStackModel(StackModel):
    """BlueGene/L frames (matches the paper's Figure 1)."""

    app_module = "ring_test_bgl"
    mpi_module = "ring_test_bgl"  # statically linked: one module

    DEPTH_KINDS = frozenset({"barrier", "allreduce", "bcast"})
    TOD_KINDS = frozenset({"waitall", "recv_wait"})
    DEPTH_RANGE = (1, 3)
    TOD_THRESHOLD = 0.15

    BASE = ("_start_blrts", "main")

    def _progress_engine(self, depth: int) -> List[str]:
        """The BGLML messager polling recursion, ``depth`` rounds deep."""
        frames: List[str] = ["BGLML_pollfcn", "BGLML_Messager_advance"]
        for _ in range(depth - 1):
            frames += ["BGLML_Messager_CMadvance", "BGLML_Messager_advance"]
        frames.append("BGLML_Messager_CMadvance")
        return frames

    def trace_for(self, state: RankState,
                  rng: Optional[np.random.Generator] = None,
                  thread_id: int = 0) -> StackTrace:
        kind = state.kind
        depth = 0
        tod = False
        if kind in self.DEPTH_KINDS:
            depth = _draw_depth(rng, *self.DEPTH_RANGE)
        elif kind in self.TOD_KINDS:
            depth = _draw_depth(rng, *self.DEPTH_RANGE)
            # Occasionally the walker catches the timing call instead of
            # the messager (the __gettimeofday leaf in Figure 1).
            tod = rng is not None and rng.random() < self.TOD_THRESHOLD
        key = (kind, state.where, depth, tod, thread_id)
        return self._cached(key, lambda: self._build(kind, state.where,
                                                     depth, tod, thread_id))

    def trace_from_parts(self, kind: str, where: str, depth: int,
                         tod: bool, thread_id: int) -> StackTrace:
        key = (kind, where, depth, tod, thread_id)
        return self._cached(key, lambda: self._build(kind, where, depth,
                                                     tod, thread_id))

    def _build(self, kind: str, where: str, depth: int, tod: bool,
               thread_id: int) -> StackTrace:
        names: List[str]
        if thread_id > 0:
            # Worker threads (Section VII): a compute-team loop, not MPI.
            names = ["_start_blrts", "_pthread_body", "omp_worker_loop",
                     "do_team_chunk"]
        elif kind in ("compute", "init"):
            names = list(self.BASE) + ([where] if where != "main" else [])
        elif kind == "stall":
            names = list(self.BASE) + [where]
        elif kind == "barrier":
            names = list(self.BASE) + [
                "PMPI_Barrier", "MPIDI_BGLGI_Barrier", "BGLMP_GIBarrier",
            ] + self._progress_engine(depth)
        elif kind == "allreduce":
            names = list(self.BASE) + [
                "PMPI_Allreduce", "MPIDO_Allreduce", "BGLMP_TreeAllreduce",
            ] + self._progress_engine(depth)
        elif kind == "bcast":
            names = list(self.BASE) + [
                "PMPI_Bcast", "MPIDO_Bcast",
            ] + self._progress_engine(depth)
        elif kind in ("waitall", "recv_wait"):
            head = list(self.BASE) + ["PMPI_Waitall", "MPID_Progress_wait"]
            names = head + (["__gettimeofday"] if tod
                            else self._progress_engine(depth))
        elif kind == "isend":
            names = list(self.BASE) + ["PMPI_Isend", "BGLML_Messager_advance"]
        elif kind == "done":
            names = ["_start_blrts"]
        else:
            names = list(self.BASE)
        return StackTrace(tuple(Frame(n, self.app_module) for n in names),
                          thread_id=thread_id)

    def mean_depth(self) -> float:
        return 9.0


class LinuxStackModel(StackModel):
    """Atlas (Linux/MPICH-flavoured) frames; app and MPI in separate modules."""

    app_module = "ring_test"
    mpi_module = "libmpi.so"

    DEPTH_KINDS = frozenset({"barrier", "waitall", "recv_wait",
                             "allreduce", "bcast"})
    DEPTH_RANGE = (1, 2)

    BASE = ("_start", "__libc_start_main", "main")

    def _progress(self, depth: int) -> List[str]:
        frames = ["MPIDI_CH3I_Progress"]
        for _ in range(depth):
            frames.append("MPID_nem_ib_poll")
        return frames

    def _frames(self, names: List[str], n_app: int,
                thread_id: int) -> StackTrace:
        frames = tuple(
            Frame(n, self.app_module if i < n_app else self.mpi_module)
            for i, n in enumerate(names))
        return StackTrace(frames, thread_id=thread_id)

    def trace_for(self, state: RankState,
                  rng: Optional[np.random.Generator] = None,
                  thread_id: int = 0) -> StackTrace:
        kind = state.kind
        depth = 0
        if kind in self.DEPTH_KINDS:
            depth = _draw_depth(rng, *self.DEPTH_RANGE)
        key = (kind, state.where, depth, False, thread_id)
        return self._cached(key, lambda: self._build(kind, state.where,
                                                     depth, thread_id))

    def trace_from_parts(self, kind: str, where: str, depth: int,
                         tod: bool, thread_id: int) -> StackTrace:
        key = (kind, where, depth, False, thread_id)
        return self._cached(key, lambda: self._build(kind, where, depth,
                                                     thread_id))

    def _build(self, kind: str, where: str, depth: int,
               thread_id: int) -> StackTrace:
        base = list(self.BASE)
        if thread_id > 0:
            # Worker threads (Section VII): a compute-team loop, not MPI.
            names = ["clone", "start_thread", "omp_worker_loop",
                     "do_team_chunk"]
            return self._frames(names, len(names), thread_id)
        if kind in ("compute", "init"):
            names = base + ([where] if where != "main" else [])
            return self._frames(names, len(names), thread_id)
        if kind == "stall":
            names = base + [where]
            return self._frames(names, len(names), thread_id)
        if kind == "barrier":
            names = base + ["PMPI_Barrier", "MPIR_Barrier_intra"] \
                + self._progress(depth)
            return self._frames(names, len(base), thread_id)
        if kind == "allreduce":
            names = base + ["PMPI_Allreduce", "MPIR_Allreduce_intra"] \
                + self._progress(depth)
            return self._frames(names, len(base), thread_id)
        if kind == "bcast":
            names = base + ["PMPI_Bcast", "MPIR_Bcast_intra"] \
                + self._progress(depth)
            return self._frames(names, len(base), thread_id)
        if kind in ("waitall", "recv_wait"):
            entry = "PMPI_Waitall" if kind == "waitall" else "PMPI_Recv"
            names = base + [entry, "MPIR_Waitall_impl"] + self._progress(depth)
            return self._frames(names, len(base), thread_id)
        if kind == "isend":
            names = base + ["PMPI_Isend", "MPID_nem_ib_iSendContig"]
            return self._frames(names, len(base), thread_id)
        if kind == "done":
            return self._frames(["_start"], 1, thread_id)
        return self._frames(base, len(base), thread_id)

    def mean_depth(self) -> float:
        return 7.0
