"""The daemon sampling phase: batch trace acquisition and its timing model.

Two things live here.  :class:`BatchWalkSampler` is the *data* side's
array kernel — it turns one daemon's interned state ids into interned
trace ids for a whole sampling instant at once, consuming the daemon's
RNG bit-for-bit like the scalar :class:`~repro.core.stackwalk.StackWalker`
loop it replaces (:mod:`repro.core.forest` builds trees from its output
without instantiating a single ``StackTrace``).  The rest of the
module computes how long the phase takes on the simulated platform.  Per
daemon the cost has three parts:

1. **Symbol tables** — before a walk, the daemon reads the symbol table
   of the executable and each shared library from wherever it is staged.
   Shared mounts route through the queueing file server on the simulation
   engine, so D simultaneous daemons genuinely contend; local mounts
   (post-SBRS RAM disk) are constant time.  The 2008-era prototype
   re-parsed the tables on **every** sample (``symtab_cached=False``, the
   configuration of the Figure 8/9/10 measurements); later tool versions
   cache them after the first walk (``symtab_cached=True``, the default).
2. **Walks** — ``processes x threads x samples x frames`` at the
   platform's per-frame cost, dilated by CPU contention with spin-waiting
   ranks (Atlas; removed under SIGSTOP).
3. **Local merge** — a small per-trace cost for the daemon-side 2D/3D
   insertion.

A per-daemon lognormal jitter (seeded, run-addressable) models the
load-dependent variance the paper observed — "this operation occasionally
suffers performance variations larger than 20%" (Section VI-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.stackwalk import StackWalker, cpu_dilation
from repro.lint.contracts import contract
from repro.fs.binary import StagedFile
from repro.fs.cache import PageCache
from repro.fs.mtab import MountTable
from repro.fs.server import FileServer, LocalDisk
from repro.machine.base import MachineModel
from repro.mpi.stacks import SIG_DEPTH, SIG_DEPTH_TOD, SIG_NONE, StackModel
from repro.sim.engine import Engine
from repro.sim.process import Process
from repro.sim.random import SeedStream

__all__ = ["BatchWalkSampler", "SamplingConfig", "SamplingTimeReport",
           "time_sampling_phase"]


class BatchWalkSampler:
    """Array-level twin of a :class:`~repro.core.stackwalk.StackWalker` loop.

    One :meth:`trace_ids` call covers what the scalar path does with
    ``width x threads_per_process`` individual ``walk`` calls: drawing
    each walk's progress-engine depth (and timing-leaf coin) from the
    daemon's RNG and resolving the resulting trace.  The RNG is consumed
    **bit-for-bit identically** to the scalar loop — batched
    ``Generator.integers(size=n)`` advances the bit generator exactly as
    ``n`` scalar calls do — so array-built and object-built trees match
    exactly.  States whose walks interleave two draw kinds per element
    (``SIG_DEPTH_TOD``) cannot batch across elements and fall back to a
    scalar loop over just those elements; in the paper's populations they
    are rare (one ``Waitall`` rank per hang).
    """

    __slots__ = ("stack_model", "rng", "threads_per_process")

    def __init__(self, stack_model: StackModel,
                 rng: Optional[np.random.Generator] = None,
                 threads_per_process: int = 1) -> None:
        self.stack_model = stack_model
        self.rng = rng
        self.threads_per_process = threads_per_process

    @contract("state_ids:(m) -> ids:(e):int64")
    def trace_ids(self, state_ids: np.ndarray) -> np.ndarray:
        """Interned trace ids for one sampling instant.

        ``state_ids[slot]`` is the interned state of the daemon-local
        slot; the result has one entry per ``(slot, thread)`` element,
        slot-major — the exact walk order of
        :meth:`~repro.core.daemon.STATDaemon.sample_once`.
        """
        model = self.stack_model
        sig_slot = model.state_signatures()[state_ids]
        threads = self.threads_per_process
        if threads > 1:
            sids = np.repeat(state_ids, threads)
            sigs = np.repeat(sig_slot, threads)
            tids = np.tile(np.arange(threads, dtype=np.int64),
                           state_ids.size)
        else:
            sids, sigs, tids = state_ids, sig_slot, None
        n = sids.size
        low, high = model.DEPTH_RANGE
        depths = np.zeros(n, dtype=np.int64)
        tods = np.zeros(n, dtype=bool)
        rng = self.rng
        if rng is None or high <= low:
            depths[sigs != SIG_NONE] = low
        elif n and sigs[0] == sigs[-1] and (sigs == sigs[0]).all():
            # Uniform population (the common case at scale): one run.
            sig = sigs[0]
            if sig == SIG_DEPTH:
                depths[:] = rng.integers(low, high + 1, size=n)
            elif sig == SIG_DEPTH_TOD:
                for j in range(n):
                    depths[j] = int(rng.integers(low, high + 1))
                    tods[j] = rng.random() < model.TOD_THRESHOLD
        else:
            # Maximal same-signature runs, in element order: each run
            # consumes the RNG exactly as its scalar walks would.
            cuts = np.flatnonzero(np.diff(sigs)) + 1
            starts = np.concatenate(([0], cuts))
            ends = np.concatenate((cuts, [n]))
            for lo, hi in zip(starts, ends):
                sig = sigs[lo]
                if sig == SIG_NONE:
                    continue
                if sig == SIG_DEPTH:
                    depths[lo:hi] = rng.integers(low, high + 1,
                                                 size=hi - lo)
                else:  # SIG_DEPTH_TOD: two interleaved draws per element
                    for j in range(lo, hi):
                        depths[j] = int(rng.integers(low, high + 1))
                        tods[j] = rng.random() < model.TOD_THRESHOLD
        # Map (state, depth, tod, thread) tuples to dense trace ids via
        # one composite integer key; only the few distinct tuples pay the
        # per-trace registry lookup.
        depth_base = high + 1
        ukeys = (sids * depth_base + depths) * 2 + tods
        if threads > 1:
            ukeys = ukeys * threads + tids
        uniq = np.unique(ukeys)
        lut = np.empty(uniq.size, dtype=np.int64)
        for i, packed in enumerate(uniq):
            packed = int(packed)
            packed, tid = divmod(packed, threads) if threads > 1 \
                else (packed, 0)
            packed, tod = divmod(packed, 2)
            sid, depth = divmod(packed, depth_base)
            lut[i] = model.trace_id(sid, depth, bool(tod), tid)
        return lut[np.searchsorted(uniq, ukeys)]


@dataclass(frozen=True)
class SamplingConfig:
    """Knobs of one sampling-phase timing run.

    Frozen: configs are embedded in frozen :class:`SessionSpec` objects,
    shared as defaults, and shipped across process pools — never mutate
    one, ``dataclasses.replace`` it.
    """

    num_samples: int = 10
    threads_per_process: int = 1
    #: application SIGSTOPped first (SBRS behaviour) — kills CPU dilation
    application_stopped: bool = False
    #: False = re-parse symbol tables on every sample (2008 prototype)
    symtab_cached: bool = True
    #: lognormal sigma of per-daemon jitter (0 disables)
    jitter_sigma: float = 0.08
    #: per-trace local-merge cost (seconds)
    merge_seconds_per_trace: float = 8.0e-6
    #: run identifier: different ids draw different jitter/FS-load samples
    run_id: int = 0


@dataclass
class SamplingTimeReport:
    """Per-daemon and aggregate simulated sampling times."""

    per_daemon_seconds: np.ndarray
    symtab_seconds: np.ndarray
    walk_seconds: float
    merge_seconds: float
    config: SamplingConfig
    extra_seconds: float = 0.0

    @property
    def max_seconds(self) -> float:
        """The phase ends when the slowest daemon finishes."""
        return float(self.per_daemon_seconds.max()) + self.extra_seconds

    @property
    def mean_seconds(self) -> float:
        """Mean across daemons (plus any phase-wide extra)."""
        return float(self.per_daemon_seconds.mean()) + self.extra_seconds

    def describe(self) -> str:
        """One benchmark row."""
        return (f"sampling: max={self.max_seconds:.3f}s "
                f"mean={self.mean_seconds:.3f}s "
                f"(symtab max={self.symtab_seconds.max():.3f}s, "
                f"walks={self.walk_seconds:.3f}s)")


def time_sampling_phase(machine: MachineModel,
                        mtab: MountTable,
                        staged_files: Sequence[StagedFile],
                        stack_model: StackModel,
                        config: SamplingConfig = SamplingConfig(),
                        engine: Optional[Engine] = None,
                        num_daemons: Optional[int] = None,
                        seed: int = 208_000,
                        ) -> SamplingTimeReport:
    """Compute the simulated duration of one sampling phase.

    All daemons begin simultaneously (the front end broadcasts a SAMPLE
    request); each opens its binaries **sequentially** — as a real dynamic
    loader / symbol parser does — while the daemon population contends in
    parallel on shared servers.
    """
    engine = engine or Engine()
    daemons = num_daemons if num_daemons is not None else machine.num_daemons
    if daemons < 1:
        raise ValueError("need at least one daemon")

    # --- phase 1: symbol-table reads through the (possibly shared) FS ----
    # Every sample walks the binaries; whether a walk pays for I/O depends
    # on the node's page cache, which the 2008 prototype did not consult
    # for symbol tables (symtab_cached=False).
    finish = np.zeros(daemons, dtype=float)
    caches = [PageCache(name=f"daemon{d}") if config.symtab_cached else None
              for d in range(daemons)]

    def daemon_io(daemon_id: int):
        t0 = engine.now
        cache = caches[daemon_id]
        for _ in range(config.num_samples):
            for f in staged_files:
                if cache is not None and cache.lookup(f.name):
                    continue  # parsed tables already resident
                fs = mtab.resolve(f.name, f.mount)
                if isinstance(fs, FileServer):
                    yield fs.request_read(f.symtab_bytes)
                elif isinstance(fs, LocalDisk):
                    yield engine.timeout(fs.read_seconds(f.symtab_bytes))
                else:  # pragma: no cover - mtab enforces the union
                    raise TypeError(f"unknown file system {fs!r}")
                if cache is not None:
                    cache.insert(f.name, f.symtab_bytes)
        finish[daemon_id] = engine.now - t0

    for d in range(daemons):
        Process(engine, daemon_io(d), name=f"symtab-daemon{d}")
    engine.run()
    symtab_seconds = finish.copy()

    # --- phase 2: stack walks (analytic) ------------------------------------
    dilation = cpu_dilation(machine, config.application_stopped)
    walks = (machine.tasks_per_daemon * config.threads_per_process
             * config.num_samples)
    walk_seconds = walks * StackWalker.walk_seconds(
        machine, stack_model.mean_depth(), dilation)

    # --- phase 3: local merge (analytic, small) -----------------------------
    merge_seconds = walks * config.merge_seconds_per_trace

    per_daemon = symtab_seconds + walk_seconds + merge_seconds

    # --- jitter ---------------------------------------------------------------
    if config.jitter_sigma > 0:
        stream = SeedStream(seed).child(f"run{config.run_id}")
        rng = stream.rng("sampling-jitter")
        per_daemon = per_daemon * rng.lognormal(
            mean=0.0, sigma=config.jitter_sigma, size=daemons)

    return SamplingTimeReport(
        per_daemon_seconds=per_daemon,
        symtab_seconds=symtab_seconds,
        walk_seconds=walk_seconds,
        merge_seconds=merge_seconds,
        config=config,
    )
