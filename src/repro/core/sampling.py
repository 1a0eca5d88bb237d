"""The daemon sampling phase: batch trace acquisition and its timing model.

STAT daemons use "the StackWalker API, a lightweight API that lets each
back-end daemon take stack traces of the co-located processes on a node"
(Section VI-A).  Two things live here.  The *data* side's array
kernels: :func:`draw_walks` draws every walk's progress-engine depth
and timing-leaf coin for a whole daemon row at once, consuming the
daemon's RNG bit-for-bit like one ``StackModel.trace_for`` call per
(process, thread) would — for numpy's default ``PCG64`` generator it
decodes the interleaved ``integers``/``random`` draws from one block of
raw words — and :class:`BatchWalkSampler` turns one daemon's interned
state ids into interned trace ids through it
(:mod:`repro.core.forest` builds trees from their output without
instantiating a single ``StackTrace``).  The rest of the module
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
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.lint.contracts import contract
from repro.fs.binary import StagedFile
from repro.fs.cache import PageCache
from repro.fs.mtab import MountTable
from repro.fs.server import FileServer, LocalDisk
from repro.machine.base import MachineModel
from repro.mpi.stacks import SIG_DEPTH_TOD, SIG_NONE, StackModel
from repro.sim.engine import Engine
from repro.sim.process import Process
from repro.sim.random import SeedStream

__all__ = ["BatchWalkSampler", "SamplingConfig", "SamplingTimeReport",
           "cpu_dilation", "draw_walks", "time_sampling_phase",
           "walk_seconds"]


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


_MASK32 = np.uint64(0xFFFFFFFF)


def _decode_pcg64(bit_generator: np.random.PCG64, tod_after: np.ndarray,
                  range_excl: int
                  ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Replay bounded draws, each optionally followed by one ``random()``.

    Draw ``i`` is ``Generator.integers(0, range_excl)``, with
    ``2 <= range_excl <= 2**32`` and at least one draw; when
    ``tod_after[i]`` a ``Generator.random()`` follows it.  Returns the
    draws and the ``random()`` values of the flagged draws, and leaves
    ``bit_generator`` in the state the scalar calls would — or returns
    ``None`` with the state untouched if any draw would hit Lemire
    rejection (probability ``~range_excl / 2**32`` per draw), which only
    the scalar calls replay exactly.

    This mirrors numpy's C routines: a bounded draw takes 32 bits
    through the generator's one-word buffer (``has_uint32`` /
    ``uinteger``) — the low half of a fresh 64-bit word, buffering the
    high half for the next bounded draw — and maps them by Lemire's
    multiply-shift; ``random()`` takes a whole word of its own and leaves
    the buffer alone.
    """
    k = tod_after.size
    saved = bit_generator.state
    carry = saved["has_uint32"]
    fresh = ((carry + np.arange(k)) & 1) == 0
    # Words consumed through draw i; a fresh draw's word is the last of
    # them, or the one before its ``random()`` word.
    ends = np.cumsum(fresh.astype(np.int64) + tod_after)
    words = bit_generator.random_raw(int(ends[-1]))
    lo_words = words[(ends - tod_after - 1)[fresh]]
    highs = lo_words >> np.uint64(32)
    if carry:
        highs = np.concatenate(([np.uint64(saved["uinteger"])], highs))
    u32 = np.empty(k, dtype=np.uint64)
    u32[fresh] = lo_words & _MASK32
    u32[~fresh] = highs[:k - lo_words.size]
    m = u32 * np.uint64(range_excl)
    if ((m & _MASK32) < (2**32 - range_excl) % range_excl).any():
        bit_generator.state = saved
        return None
    state = bit_generator.state
    state["has_uint32"] = (carry + k) & 1
    if lo_words.size:
        state["uinteger"] = int(highs[-1])
    bit_generator.state = state
    coins = (words[ends[tod_after] - 1] >> np.uint64(11)) * 2.0**-53
    return (m >> np.uint64(32)).astype(np.int64), coins


def draw_walks(model: StackModel, rng: Optional[np.random.Generator],
               sigs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each walk's progress-engine depth and timing-leaf coin, in order.

    ``sigs`` holds one draw signature per walk; the draws consume ``rng``
    exactly as one ``StackModel.trace_for`` call per walk would.  A
    ``PCG64`` generator decodes them all from one block of raw words;
    any other bit generator, or a rejected bounded draw, replays the
    scalar calls.
    """
    low, high = model.DEPTH_RANGE
    depths = np.zeros(sigs.size, dtype=np.int64)
    tods = np.zeros(sigs.size, dtype=bool)
    drawing = np.flatnonzero(sigs != SIG_NONE)
    if rng is None or high <= low or not drawing.size:
        depths[drawing] = low
        return depths, tods
    tod_after = sigs[drawing] == SIG_DEPTH_TOD
    decoded = None
    if type(rng.bit_generator) is np.random.PCG64:
        decoded = _decode_pcg64(rng.bit_generator, tod_after, high - low + 1)
    if decoded is None:
        for j in range(drawing.size):  # per walk: the exact scalar sequence
            depths[drawing[j]] = rng.integers(low, high + 1)
            if tod_after[j]:
                tods[drawing[j]] = rng.random() < model.TOD_THRESHOLD
        return depths, tods
    offsets, coins = decoded
    depths[drawing] = low + offsets
    tods[drawing[tod_after]] = coins < model.TOD_THRESHOLD
    return depths, tods


class BatchWalkSampler:
    """One daemon's walks over its processes for one sampling instant.

    One :meth:`trace_ids` call covers ``width x threads_per_process``
    scalar ``StackModel.trace_for`` calls: drawing each walk's
    progress-engine depth (and timing-leaf coin) from the daemon's RNG
    through :func:`draw_walks` and resolving the resulting trace.  The
    RNG is consumed **bit-for-bit identically** to the scalar loop, so
    array-built and object-built trees match exactly.  The build kernel
    keys single-threaded walks through its own table and uses this class
    for threaded populations, whose trace ids also depend on the thread.
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
        slot-major — the walk order of a daemon that visits each process
        and then each of its threads.
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
        depths, tods = draw_walks(model, self.rng, sigs)
        # Map (state, depth, tod, thread) tuples to dense trace ids via
        # one composite integer key; only the few distinct tuples pay the
        # per-trace registry lookup.
        depth_base = model.DEPTH_RANGE[1] + 1
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
