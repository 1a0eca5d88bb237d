"""``stat-repro bench {merge,build,stream}`` — kernel benchmarks with a
JSON trail.

Every kind regenerates the paper's Figure 7 workload (ring-hang
population, BG/L trees, VN mode) at full machine scale — 1,664 daemons,
both label schemes — runs one layer two ways on bit-identical inputs,
and asserts the two outputs equal before reporting a ratio:

* ``merge`` — the k-way merge of the whole daemon forest: the
  **retained reference kernels** (:mod:`repro.perf.reference`, the
  recursive, per-node, pairwise implementations this repo shipped
  before the vectorized rewrite) over the object-tree view, against the
  **vectorized kernels** (:meth:`LabelScheme.merge`) over the
  array-backed trees; ``structurally_equal``.
* ``build`` — tree construction: the forest kernel against the
  per-object oracle (:func:`~repro.perf.reference
  .reference_daemon_trees`); ``arrays_equal`` on every daemon's trees.
* ``stream`` — the TBO̅N reduction over one forest and one cost model:
  :class:`~repro.tbon.network.TBONetwork` lockstep rounds against
  :class:`~repro.tbon.streaming.StreamingTBON` (asynchronous daemon
  emissions, incremental folds); ``arrays_equal``.  It records the
  simulated **time-to-first-tree** (the earliest instant a best-effort
  front-end snapshot is non-empty — the paper-motivated payoff of
  streaming: a tree while the machine is still misbehaving) and
  **time-to-final**.

Each run is one :class:`BenchReport`, written to ``BENCH_<kind>.json``
so the perf trajectory is tracked across PRs; ``--baseline`` gates it
against a checked-in report (:func:`check_baseline`).

``--scale million`` extends ``merge`` and ``build`` with the
million-task point (8,192 daemons x 128 tasks = 1,048,576 tasks,
hierarchical scheme) — the ROADMAP's "towards millions of cores"
demonstration; ``--scale ten-million`` adds the 10,485,760-task
construction point to ``build``.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.merge import (
    DenseLabelScheme,
    HierarchicalLabelScheme,
    LabelScheme,
)
from repro.core.taskset import TaskMap
from repro.faults.plan import DaemonCrash, DaemonStall, FaultPlan, \
    LinkFault
from repro.machine.bgl import BGLMachine
from repro.mpi.stacks import BGLStackModel
from repro.perf.counters import FAULTS_INJECTED, PERF, \
    TBON_CORRUPT_DETECTED, TBON_RETRIES
from repro.perf.reference import reference_daemon_trees, reference_merge
from repro.statbench import ring_hang_states, uniform_class_states
from repro.statbench.emulator import DaemonTrees, STATBenchEmulator
from repro.tbon.network import TBONetwork
from repro.tbon.streaming import StreamConfig, StreamingTBON
from repro.tbon.topology import Topology

__all__ = ["BenchEntry", "StreamBenchEntry", "BenchReport", "run_bench",
           "check_baseline", "FULL_DAEMONS", "MILLION_DAEMONS",
           "TEN_MILLION_DAEMONS", "TTFT_GATE", "BENCH_VERSION"]

BENCH_VERSION = 1
#: fig07 full scale: 1,664 I/O nodes; VN mode: 128 tasks per daemon.
FULL_DAEMONS = 1664
VN_TASKS_PER_DAEMON = 128
#: the million-task sweep point: 8,192 x 128 = 1,048,576 tasks.
MILLION_DAEMONS = 8192
#: the ten-million-task sweep point: 81,920 x 128 = 10,485,760 tasks.
TEN_MILLION_DAEMONS = 81920
#: daemons spot-checked (and extrapolated from) when the full per-daemon
#: reference build would dominate the bench wall clock.
BUILD_REFERENCE_SAMPLE = 32
#: classes of the low-sharing build entry (``uniform:64``: daemons share
#: no trace mix, so every daemon builds its own tree structure).
BUILD_UNIFORM_CLASSES = 64
REGRESSION_FACTOR = 2.0
#: acceptance gate: time-to-first-tree under 20% of time-to-final
TTFT_GATE = 0.20
#: relative tolerance when pinning deterministic simulated times
SIM_TOLERANCE = 1e-6


@dataclass
class BenchEntry:
    """One (scheme, scale) reference-vs-vectorized measurement."""

    name: str
    scheme: str
    daemons: int
    tasks: int
    samples: int
    repeats: int
    #: merged-tree node counts; ``None`` on build entries, which merge
    #: nothing (and omitted from their JSON).
    nodes_out_2d: Optional[int] = None
    nodes_out_3d: Optional[int] = None
    build_seconds: float = 0.0
    reference_seconds: float = 0.0
    vectorized_seconds: float = 0.0
    speedup: float = 0.0
    equal: bool = False
    #: True when reference_seconds was extrapolated from a daemon sample
    #: (and equality spot-checked on that sample) instead of a full run.
    reference_skipped: bool = False
    counters: Dict[str, float] = field(default_factory=dict)


@dataclass
class StreamBenchEntry:
    """One (scheme, scale) streamed-vs-batch measurement."""

    name: str
    scheme: str
    daemons: int
    tasks: int
    samples: int
    repeats: int
    #: simulated seconds until the first best-effort tree exists
    ttft: float = 0.0
    #: simulated seconds until the final tree commits at the front end
    ttfinal: float = 0.0
    #: ttft / ttfinal — gated below :data:`TTFT_GATE`
    ttft_ratio: float = 0.0
    #: the batch reduction's simulated completion, for context
    batch_sim_time: float = 0.0
    partial_merges: int = 0
    messages: int = 0
    bytes_total: int = 0
    stream_wall_seconds: float = 0.0
    batch_wall_seconds: float = 0.0
    #: streamed wall / batch wall on the same hardware (ratio transfers)
    wall_ratio: float = 0.0
    #: streamed final tree ``arrays_equal`` to the batch tree (2D + 3D)
    equal: bool = False


@dataclass
class BenchReport:
    """Everything one bench run measured (→ ``BENCH_<kind>.json``)."""

    kind: str
    seed: int = 208_000
    version: int = BENCH_VERSION
    entries: List = field(default_factory=list)
    wall_seconds: float = 0.0
    #: ``stream`` only: fault-path visibility (``faults.injected``,
    #: ``tbon.retries``, ``tbon.corrupt_detected``) from the seeded fault
    #: demo — shown in the table and recorded in the JSON, never gated
    #: against the baseline (entries without a baseline match fail the
    #: strict gate, so fault visibility rides as an extra report field
    #: instead).
    fault_counters: Optional[Dict[str, float]] = None

    def failures(self) -> List[str]:
        """What failed without consulting any baseline: an output that
        is not bit-identical to its reference, a missed ttft gate."""
        found = (_own_failure(self.kind, e) for e in self.entries)
        return [message for message in found if message]

    @property
    def ok(self) -> bool:
        return not self.failures()

    def to_dict(self) -> Dict:
        data = {"version": self.version,
                "workload": _KINDS[self.kind].workload,
                "seed": self.seed, "wall_seconds": self.wall_seconds,
                "entries": [{k: v for k, v in asdict(e).items()
                             if v is not None} for e in self.entries]}
        if self.fault_counters is not None:
            data["fault_counters"] = dict(self.fault_counters)
        return data

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def table(self) -> str:
        """Printable table, one row per entry, in the kind's columns."""
        columns = _KINDS[self.kind].columns
        wide = max([24] + [len(e.name) for e in self.entries])
        header = " ".join([f"{'entry':<{wide}}"]
                          + [f"{title:>{w}}" for title, w, _ in columns])
        lines = [header, "-" * len(header)]
        for e in self.entries:
            lines.append(" ".join(
                [f"{e.name:<{wide}}"]
                + [f"{cell(e)!s:>{w}}" for _, w, cell in columns]))
        if self.fault_counters:
            pairs = ", ".join(f"{name}={value:g}" for name, value
                              in sorted(self.fault_counters.items()))
            lines.append(f"fault demo: {pairs}")
        lines.append(f"({len(self.entries)} entries in "
                     f"{self.wall_seconds:.1f} wall s)")
        return "\n".join(lines)


def _best(fn, repeats: int, before=None):
    """Best-of-``repeats`` timing; returns ``(seconds, last_result)``.

    The runs are deterministic, so reusing the last result for
    verification avoids re-running the kernels after timing.  ``before``
    (e.g. ``PERF.reset``) runs ahead of every repeat, leaving the
    counters scoped to exactly one pass.
    """
    best = float("inf")
    result = None
    for _ in range(repeats):
        if before is not None:
            before()
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else float("inf")


def _schemes(daemons: int) -> Tuple[LabelScheme, LabelScheme]:
    return (DenseLabelScheme(daemons * VN_TASKS_PER_DAEMON),
            HierarchicalLabelScheme())


def _emulator(scheme: LabelScheme, daemons: int, samples: int, seed: int,
              classes: int = 0) -> STATBenchEmulator:
    """The bench workload: ``daemons`` x 128 block-mapped VN-mode tasks
    on a fresh BG/L stack model — ring-hang, or a seeded
    ``uniform:<classes>`` mix when ``classes`` is given."""
    tasks = daemons * VN_TASKS_PER_DAEMON
    states = uniform_class_states(tasks, classes, seed=seed) if classes \
        else ring_hang_states(tasks)
    return STATBenchEmulator(
        TaskMap.block(daemons, VN_TASKS_PER_DAEMON), scheme,
        BGLStackModel(), states, num_samples=samples, seed=seed)


def _bench_merge(scheme: LabelScheme, daemons: int, samples: int,
                 repeats: int, seed: int, suffix: str = "") -> BenchEntry:
    """Build the daemon forest once, then time reference vs vectorized."""
    start = time.perf_counter()
    pairs = _emulator(scheme, daemons, samples, seed).build_forest()
    build_seconds = time.perf_counter() - start
    arrays_2d = [p.tree_2d for p in pairs]
    arrays_3d = [p.tree_3d for p in pairs]
    objects_2d = [a.to_prefix_tree() for a in arrays_2d]
    objects_3d = [a.to_prefix_tree() for a in arrays_3d]

    reference_seconds, (ref_2d, ref_3d) = _best(
        lambda: (reference_merge(scheme.name, objects_2d),
                 reference_merge(scheme.name, objects_3d)), repeats)
    # PERF.reset before each repeat scopes the counters snapshot to
    # exactly one 2D+3D merge pass, so BENCH_merge.json values don't
    # scale with --repeats.
    vectorized_seconds, (merged_2d, merged_3d) = _best(
        lambda: (scheme.merge(arrays_2d), scheme.merge(arrays_3d)),
        repeats, before=PERF.reset)
    counters = dict(PERF.snapshot()["counts"])
    return BenchEntry(
        name=f"{scheme.name}-vn-{daemons}{suffix}",
        scheme=scheme.name,
        daemons=daemons,
        tasks=daemons * VN_TASKS_PER_DAEMON,
        samples=samples,
        repeats=repeats,
        nodes_out_2d=merged_2d.node_count(),
        nodes_out_3d=merged_3d.node_count(),
        build_seconds=build_seconds,
        reference_seconds=reference_seconds,
        vectorized_seconds=vectorized_seconds,
        speedup=_ratio(reference_seconds, vectorized_seconds),
        equal=(merged_2d.structurally_equal(ref_2d)
               and merged_3d.structurally_equal(ref_3d)),
        counters=counters,
    )


def _bench_build(scheme: LabelScheme, daemons: int, samples: int,
                 repeats: int, seed: int, suffix: str = "",
                 sample_reference: bool = False,
                 classes: int = 0) -> BenchEntry:
    """Time the forest kernel against the per-object oracle for one scale.

    Both are bit-exact reproductions of the same population, so
    ``equal`` asserts ``arrays_equal`` on every daemon's 2D and 3D tree
    (on a :data:`BUILD_REFERENCE_SAMPLE`-daemon spot check when
    ``sample_reference`` extrapolates the reference timing instead of
    running all daemons through the oracle).
    """
    emulator = _emulator(scheme, daemons, samples, seed, classes)

    def build():
        # A fresh stack model inside each timed repeat: a session builds
        # on one, and a model warmed by the previous repeat would serve
        # every tree structure from its cache — a path no session takes
        # (the low-sharing workload's hit ratio is 0).
        emulator.stack_model = BGLStackModel()
        return emulator.build_forest()

    vectorized_seconds, pairs = _best(build, repeats)

    model = BGLStackModel()
    ref_ids = list(range(daemons)) if not sample_reference else \
        list(range(0, daemons, max(1, daemons // BUILD_REFERENCE_SAMPLE))
             )[:BUILD_REFERENCE_SAMPLE]
    start = time.perf_counter()
    ref_pairs = [reference_daemon_trees(
        d, emulator.task_map, scheme, model, emulator.state_of,
        num_samples=samples, seed=seed) for d in ref_ids]
    reference_seconds = time.perf_counter() - start
    if sample_reference:
        reference_seconds *= daemons / len(ref_ids)

    return BenchEntry(
        name=f"build-{scheme.name}-vn-{daemons}"
        + (f"-uniform{classes}" if classes else "") + suffix,
        scheme=scheme.name,
        daemons=daemons,
        tasks=daemons * VN_TASKS_PER_DAEMON,
        samples=samples,
        repeats=repeats,
        build_seconds=vectorized_seconds,
        reference_seconds=reference_seconds,
        vectorized_seconds=vectorized_seconds,
        speedup=_ratio(reference_seconds, vectorized_seconds),
        equal=all(pairs[d].tree_2d.arrays_equal(ref_2d)
                  and pairs[d].tree_3d.arrays_equal(ref_3d)
                  for d, (ref_2d, ref_3d) in zip(ref_ids, ref_pairs)),
        reference_skipped=sample_reference,
    )


def _reduction(scheme: LabelScheme, daemons: int, samples: int, seed: int):
    """``(topology, machine, reduce kwargs)`` for one TBO̅N reduction of
    the bench forest, in the paper's shape at each scale: 3-deep for the
    full machine, 2-deep (``min(sqrt(D), 28)`` CPs) below it."""
    emulator = _emulator(scheme, daemons, samples, seed)
    forest = emulator.build_forest()
    topology = Topology.bgl_three_deep(daemons) if daemons >= 1024 \
        else Topology.bgl_two_deep(daemons)
    return topology, BGLMachine.with_io_nodes(daemons, "vn"), dict(
        leaf_payload_fn=forest.__getitem__,
        merge_fn=emulator.merge_filter(),
        payload_nbytes=DaemonTrees.serialized_bytes,
        payload_nodes=DaemonTrees.node_count,
    )


def _bench_stream(scheme: LabelScheme, daemons: int, samples: int,
                  repeats: int, seed: int) -> StreamBenchEntry:
    """Build the forest once, then time batch vs streamed reductions."""
    topology, machine, kwargs = _reduction(scheme, daemons, samples, seed)
    batch_net = TBONetwork(topology, machine)
    batch_wall, batch = _best(lambda: batch_net.reduce(**kwargs), repeats)
    stream_net = StreamingTBON(topology, machine)
    config = StreamConfig(seed=seed)
    stream_wall, streamed = _best(
        lambda: stream_net.reduce(**kwargs, config=config), repeats)
    return StreamBenchEntry(
        name=f"stream-{scheme.name}-vn-{daemons}",
        scheme=scheme.name,
        daemons=daemons,
        tasks=daemons * VN_TASKS_PER_DAEMON,
        samples=samples,
        repeats=repeats,
        ttft=streamed.first_tree_time,
        ttfinal=streamed.sim_time,
        ttft_ratio=_ratio(streamed.first_tree_time, streamed.sim_time),
        batch_sim_time=batch.sim_time,
        partial_merges=streamed.partial_merges,
        messages=streamed.messages,
        bytes_total=streamed.bytes_total,
        stream_wall_seconds=stream_wall,
        batch_wall_seconds=batch_wall,
        wall_ratio=_ratio(stream_wall, batch_wall),
        equal=(streamed.payload.tree_2d.arrays_equal(batch.payload.tree_2d)
               and streamed.payload.tree_3d.arrays_equal(
                   batch.payload.tree_3d)),
    )


def _fault_demo(seed: int, daemons: int = 16,
                samples: int = 2) -> Dict[str, float]:
    """One small seeded faulted streamed reduction; PERF deltas.

    Exercises every fault counter on a fixed plan — a crashed daemon,
    a stalled daemon absorbed by retries, and a mildly corrupting
    ingress link — so ``bench stream`` output shows the fault path
    is alive.  Deterministic for a given ``seed``.
    """
    topology, machine, kwargs = _reduction(
        HierarchicalLabelScheme(), daemons, samples, seed)
    plan = FaultPlan(
        seed=seed,
        crashes=(DaemonCrash(rank=daemons - 1),),
        stalls=(DaemonStall(rank=1, duration=4.0),),
        links=(LinkFault(corrupt_p=0.12),),
    )
    before = {name: PERF.get(name) for name in
              (FAULTS_INJECTED, TBON_RETRIES, TBON_CORRUPT_DETECTED)}
    StreamingTBON(topology, machine).reduce(
        **kwargs, on_daemon_failure="skip",
        config=StreamConfig(seed=seed), faults=plan.bind(daemons))
    return {name: PERF.get(name) - start
            for name, start in before.items()}


# -- gates --------------------------------------------------------------------
# An entry's own gates return the failure text or ``None``; they need no
# baseline, so ``BenchReport.ok`` runs them too.  A baseline gate takes
# the entry and its baseline twin and returns ``(passed, verdict)``.

def _equal_gate(diverged: str):
    """Bit-identity is the contract, not a statistic."""
    def gate(entry) -> Optional[str]:
        return None if entry.equal else diverged
    return gate


def _ttft_gate(entry: StreamBenchEntry) -> Optional[str]:
    """The acceptance criterion that streaming delivers a first tree in
    under :data:`TTFT_GATE` of the full merge."""
    if entry.ttft_ratio < TTFT_GATE:
        return None
    return (f"TTFT GATE — first tree at {entry.ttft_ratio:.1%} of "
            f"time-to-final (gate {TTFT_GATE:.0%})")


def _speedup_gate(entry: BenchEntry, base: Dict) -> Tuple[bool, str]:
    """Both runs measure reference and vectorized kernels on the *same*
    machine, so the **speedup ratio** transfers across machines where
    absolute milliseconds (reported for context) do not."""
    floor = base["speedup"] / REGRESSION_FACTOR
    if entry.speedup < floor:
        return False, (
            f"REGRESSION — speedup {entry.speedup:.2f}x "
            f"< baseline {base['speedup']:.2f}x / {REGRESSION_FACTOR:.0f} "
            f"(vectorized {entry.vectorized_seconds * 1e3:.1f}ms vs "
            f"baseline {base['vectorized_seconds'] * 1e3:.1f}ms)")
    return True, (
        f"ok (speedup {entry.speedup:.2f}x vs "
        f"baseline {base['speedup']:.2f}x, floor {floor:.2f}x; "
        f"vectorized {entry.vectorized_seconds * 1e3:.1f}ms)")


def _stream_gate(entry: StreamBenchEntry, base: Dict) -> Tuple[bool, str]:
    """Simulated ttft/ttfinal are deterministic, so they must match the
    baseline to float precision; the streamed/batch wall ratio (both
    sides measured on the same machine, so it transfers across
    hardware) must stay under the baseline's times the factor."""
    drift = [name for name in ("ttft", "ttfinal")
             if abs(getattr(entry, name) - base[name])
             > SIM_TOLERANCE * max(abs(base[name]), 1e-12)]
    if drift:
        return False, (
            f"simulated {'/'.join(drift)} drifted from the baseline — "
            f"the timing model changed; regenerate the baseline if "
            f"intentional")
    ceiling = base["wall_ratio"] * REGRESSION_FACTOR
    if entry.wall_ratio > ceiling:
        return False, (
            f"REGRESSION — streamed/batch wall ratio "
            f"{entry.wall_ratio:.2f} > baseline "
            f"{base['wall_ratio']:.2f} x {REGRESSION_FACTOR:.0f} "
            f"(streamed {entry.stream_wall_seconds * 1e3:.1f}ms)")
    return True, (
        f"ok (ttft {entry.ttft * 1e3:.2f}ms = "
        f"{entry.ttft_ratio:.1%} of final {entry.ttfinal:.3f}s; "
        f"wall ratio {entry.wall_ratio:.2f} vs ceiling {ceiling:.2f})")


@dataclass(frozen=True)
class _Kind:
    """Everything that differs between the bench kinds."""

    workload: str
    scales: Tuple[str, ...]
    #: times one sweep point: (scheme, daemons, samples, repeats, seed)
    bench: Callable
    #: table columns after the entry name: (title, width, cell text)
    columns: Tuple[Tuple[str, int, Callable], ...]
    own_gates: Tuple[Callable, ...]
    baseline_gate: Callable


_TASKS = ("tasks", 9, lambda e: e.tasks)
_EQUAL = ("equal", 6, lambda e: e.equal)
_KERNEL_COLUMNS = (
    _TASKS,
    ("nodes", 6, lambda e: "-" if e.nodes_out_2d is None
     else e.nodes_out_2d + e.nodes_out_3d),
    ("reference", 11, lambda e: f"{e.reference_seconds * 1e3:.1f}ms"),
    ("vectorized", 11, lambda e: f"{e.vectorized_seconds * 1e3:.1f}ms"),
    ("speedup", 8, lambda e: f"{e.speedup:.1f}x"),
    _EQUAL,
)
_KINDS: Dict[str, _Kind] = {
    "merge": _Kind(
        "fig07-ring-hang-bgl", ("fig07", "million"), _bench_merge,
        _KERNEL_COLUMNS,
        (_equal_gate("vectorized output diverged from the reference "
                     "kernels"),),
        _speedup_gate),
    "build": _Kind(
        "fig07-ring-hang-bgl-build", ("fig07", "million", "ten-million"),
        _bench_build, _KERNEL_COLUMNS,
        (_equal_gate("forest construction diverged from the per-object "
                     "oracle"),),
        _speedup_gate),
    "stream": _Kind(
        "fig07-ring-hang-bgl-stream", ("fig07",), _bench_stream,
        (_TASKS,
         ("ttft", 9, lambda e: f"{e.ttft * 1e3:.2f}ms"),
         ("ttfinal", 9, lambda e: f"{e.ttfinal:.3f}s"),
         ("ratio", 7, lambda e: f"{e.ttft_ratio:.1%}"),
         ("folds", 6, lambda e: e.partial_merges),
         _EQUAL),
        (_equal_gate("streamed output diverged from the batch merge"),
         _ttft_gate),
        _stream_gate),
}


def _own_failure(kind: str, entry) -> Optional[str]:
    """The first of the entry's own gates to fail, if any."""
    for gate in _KINDS[kind].own_gates:
        message = gate(entry)
        if message:
            return f"{entry.name}: {message}"
    return None


def run_bench(kind: str,
              daemons: Optional[int] = None,
              samples: Optional[int] = None,
              repeats: Optional[int] = None,
              quick: bool = False,
              scale: str = "fig07",
              seed: int = 208_000,
              progress=print) -> BenchReport:
    """Run one bench kind (``merge``, ``build`` or ``stream``).

    ``quick`` shrinks the *defaults* to a CI-speed smoke scale
    (64 daemons, 4 samples, 3 repeats); explicitly passed values always
    win.  ``scale`` appends the kind's larger sweep points: ``million``
    (``merge`` and ``build``) and ``ten-million`` (``build`` only; it
    includes the million point, and its oracle timing is extrapolated
    from a daemon sample).
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown bench kind {kind!r} "
                         f"(choose from {', '.join(_KINDS)})")
    if scale not in _KINDS[kind].scales:
        raise ValueError(f"bench {kind} has no scale {scale!r} "
                         f"(choose from {', '.join(_KINDS[kind].scales)})")
    daemons = daemons if daemons is not None else (64 if quick
                                                   else FULL_DAEMONS)
    samples = samples if samples is not None else (4 if quick else 10)
    repeats = repeats if repeats is not None else (3 if quick else 5)
    if daemons < 1 or samples < 1 or repeats < 1:
        raise ValueError("daemons, samples, and repeats must be >= 1")
    report = BenchReport(kind=kind, seed=seed)
    start = time.perf_counter()
    hierarchical = HierarchicalLabelScheme()
    points = [(scheme, daemons, samples, repeats, {})
              for scheme in _schemes(daemons)]
    if kind == "build":  # the low-sharing population, at the same scale
        points.append((hierarchical, daemons, samples, repeats,
                       {"classes": BUILD_UNIFORM_CLASSES}))
    if scale != "fig07":
        points.append((hierarchical, MILLION_DAEMONS, 2,
                       max(2, repeats // 2), {"suffix": "-million"}))
    if scale == "ten-million":
        points.append((hierarchical, TEN_MILLION_DAEMONS, 2, 2,
                       {"suffix": "-ten-million",
                        "sample_reference": True}))
    for scheme, at_daemons, at_samples, at_repeats, extra in points:
        progress(f"bench {kind}: {scheme.name} scheme, {at_daemons} "
                 f"daemons ({at_daemons * VN_TASKS_PER_DAEMON} tasks)"
                 + "".join(f", {k}={v}" for k, v in extra.items())
                 + " ...")
        report.entries.append(_KINDS[kind].bench(
            scheme, at_daemons, at_samples, at_repeats, seed, **extra))
    if kind == "stream":
        progress("bench stream: seeded fault demo (crash + stall + "
                 "corrupt) ...")
        report.fault_counters = _fault_demo(seed)
    report.wall_seconds = time.perf_counter() - start
    return report


def check_baseline(report: BenchReport, baseline_path: str
                   ) -> Tuple[bool, List[str]]:
    """Gate a report against a checked-in baseline JSON of its kind.

    Per entry, strictest first: the entry's own gates (bit-identity
    with its reference; for ``stream``, the :data:`TTFT_GATE`
    criterion); a matching baseline entry must exist; then the kind's
    hardware-normalized regression gate (:func:`_speedup_gate` or
    :func:`_stream_gate`) against it.
    """
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    base_entries = {e["name"]: e for e in baseline.get("entries", [])}
    messages: List[str] = []
    ok = True
    for entry in report.entries:
        passed = False
        message = _own_failure(report.kind, entry)
        base = base_entries.get(entry.name)
        if message is None and base is None:
            # Strict: a rename or scale change must not silently disarm
            # the gate — refresh the baseline file instead.
            message = (f"{entry.name}: no matching baseline entry — "
                       f"regenerate the baseline "
                       f"({sorted(base_entries) or 'empty'})")
        elif message is None:
            passed, verdict = _KINDS[report.kind].baseline_gate(entry, base)
            message = f"{entry.name}: {verdict}"
        ok = ok and passed
        messages.append(message)
    return ok, messages
