"""The daemon sampling phase: batch trace acquisition and its timing model.

STAT daemons use "the StackWalker API, a lightweight API that lets each
back-end daemon take stack traces of the co-located processes on a node"
(Section VI-A).  Two things live here.  The *data* side is one keyed
draw: :func:`walk_words` gives every walk ``(daemon, instant, slot,
thread)`` of a session its own 64-bit word, a pure function of the
walk and the session's root key, and ``StackModel.walk_draws`` turns
words into progress-engine depths and timing-leaf coins.
:mod:`repro.core.forest` draws a whole block of daemons with one call
of each, and the per-object oracle draws the same words one walk at a
time, so neither the order in which daemons are built nor which of
them share a block can change a trace.  The rest of the module
computes how long the phase takes on the simulated platform.  Per
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
   platform's per-frame cost (:func:`walk_seconds`), dilated by CPU
   contention with spin-waiting ranks (:func:`cpu_dilation`; Atlas,
   removed under SIGSTOP).
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

from repro.fs.binary import StagedFile
from repro.fs.cache import PageCache
from repro.fs.mtab import MountTable
from repro.fs.server import FileServer, LocalDisk
from repro.machine.base import MachineModel
from repro.mpi.stacks import StackModel
from repro.sim.engine import Engine
from repro.sim.process import Process
from repro.sim.random import SeedStream

__all__ = ["SamplingConfig", "SamplingTimeReport", "cpu_dilation",
           "time_sampling_phase", "walk_seconds", "walk_words"]


def cpu_dilation(machine: MachineModel, application_stopped: bool) -> float:
    """CPU-contention multiplier for daemon-side work.

    On Atlas "the default behavior of an MPI task waiting for a message
    arrival is to spin-wait on a CPU core. When a node is fully loaded,
    this behavior causes CPU contention with the daemon."  On BG/L the
    daemon owns its I/O node.  SIGSTOPping the application (as SBRS does)
    removes the contention entirely.
    """
    if application_stopped or not machine.daemon_shares_host_with_app:
        return 1.0
    cores = machine.extras.get("cores_per_node", machine.tasks_per_daemon)
    spin = machine.extras.get("spin_wait_fraction", 1.0)
    # tasks_per_daemon spinning ranks plus the daemon compete for `cores`.
    return 1.0 + spin * machine.tasks_per_daemon / cores


def walk_seconds(machine: MachineModel, trace_depth: float,
                 dilation: float = 1.0) -> float:
    """Simulated cost of one walk of ``trace_depth`` frames."""
    return machine.stackwalk_seconds_per_frame * trace_depth * dilation


#: SplitMix64's increment (2**64 over the golden ratio) and finaliser
#: multipliers; numpy ``uint64`` scalars, so that no operand of the
#: mixer ever promotes it to ``float64`` (numpy 1 does for ``int64``)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _next(key, counters) -> np.ndarray:
    """Output ``counter + 1`` of a SplitMix64 generator seeded ``key``."""
    z = key + (np.array(counters, dtype=np.uint64, ndmin=1)
               + np.uint64(1)) * _GAMMA
    z ^= z >> np.uint64(30)  # the finaliser, in place
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def walk_words(key: int, daemons, instants, slots, threads) -> np.ndarray:
    """The 64-bit word of every walk ``(daemon, instant, slot, thread)``.

    A pure function of the walk and the session's root ``key``
    (counter-based generation, Salmon et al., SC 2011): each coordinate
    picks an output of a SplitMix64 generator seeded with the key of
    the coordinates before it, modulo 2**64,

        k_d = mix(key + (daemon + 1) * G)
        k_i = mix(k_d + (instant + 1) * G)
        w   = mix(k_i + ((slot | thread << 32) + 1) * G).

    There is no generator state, so a walk's word does not depend on
    which walks are drawn with it.  The arguments broadcast, each level
    at its own shape: a block's ``(rows, 1, 1)`` daemons and ``(1,
    samples, 1)`` instants cost one mix per row and per row instant
    before the one per walk.  Slots and threads are below 2**32.
    """
    walk = np.array(slots, dtype=np.uint64, ndmin=1) \
        | (np.array(threads, dtype=np.uint64, ndmin=1) << np.uint64(32))
    return _next(_next(_next(np.uint64(key), daemons), instants), walk)


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
    walks_seconds = walks * walk_seconds(
        machine, stack_model.mean_depth(), dilation)

    # --- phase 3: local merge (analytic, small) -----------------------------
    merge_seconds = walks * config.merge_seconds_per_trace

    per_daemon = symtab_seconds + walks_seconds + merge_seconds

    # --- jitter ---------------------------------------------------------------
    if config.jitter_sigma > 0:
        stream = SeedStream(seed).child(f"run{config.run_id}")
        rng = stream.rng("sampling-jitter")
        per_daemon = per_daemon * rng.lognormal(
            mean=0.0, sigma=config.jitter_sigma, size=daemons)

    return SamplingTimeReport(
        per_daemon_seconds=per_daemon,
        symtab_seconds=symtab_seconds,
        walk_seconds=walks_seconds,
        merge_seconds=merge_seconds,
        config=config,
    )
