"""``stat-repro bench`` — merge-kernel microbenchmarks with a JSON trail.

The harness regenerates the paper's Figure 7 merge workload (ring-hang
population, BG/L trees) at full machine scale — 1,664 daemons, both label
schemes — builds every daemon's locally merged 2D+3D trees once, and then
times the k-way merge of the whole forest two ways:

* the **retained reference kernels** (:mod:`repro.perf.reference`) — the
  recursive, per-node, pairwise implementations this repo shipped before
  the vectorized rewrite — run over the object-tree view;
* the **vectorized kernels** (:meth:`LabelScheme.merge`) over the
  array-backed trees.

Both run on bit-identical inputs and the harness asserts the outputs are
``structurally_equal`` before reporting a speedup.  Results are written
to ``BENCH_merge.json`` so the perf trajectory is tracked across PRs;
``--baseline`` compares against a checked-in file and fails on >2×
regression of any matching entry.

``--scale million`` extends the sweep with the million-task point
(8,192 daemons x 128 tasks = 1,048,576 tasks, hierarchical scheme) —
the ROADMAP's "towards millions of cores" demonstration.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.merge import (
    DenseLabelScheme,
    HierarchicalLabelScheme,
    LabelScheme,
)
from repro.core.taskset import TaskMap
from repro.core.treearrays import TreeArrays
from repro.mpi.stacks import BGLStackModel
from repro.perf.counters import PERF
from repro.perf.reference import reference_daemon_trees, reference_merge
from repro.statbench import ring_hang_states, uniform_class_states
from repro.statbench.emulator import STATBenchEmulator

__all__ = ["BenchEntry", "BenchReport", "run_bench", "check_baseline",
           "FULL_DAEMONS", "MILLION_DAEMONS", "TEN_MILLION_DAEMONS",
           "BENCH_VERSION"]

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


@dataclass
class BenchEntry:
    """One (scheme, scale) measurement."""

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
class BenchReport:
    """Everything one bench run measured (serialized to BENCH_merge.json)."""

    version: int = BENCH_VERSION
    workload: str = "fig07-ring-hang-bgl"
    seed: int = 208_000
    entries: List[BenchEntry] = field(default_factory=list)
    wall_seconds: float = 0.0
    #: construction benchmark piggybacked by ``run_bench(build=True)``;
    #: written separately (BENCH_build.json), never serialized inline.
    build: Optional["BenchReport"] = None

    @property
    def ok(self) -> bool:
        """True when every entry's outputs matched the reference."""
        return all(e.equal for e in self.entries)

    def to_dict(self) -> Dict:
        return {"version": self.version, "workload": self.workload,
                "seed": self.seed, "wall_seconds": self.wall_seconds,
                "entries": [{k: v for k, v in asdict(e).items()
                             if v is not None} for e in self.entries]}

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def table(self) -> str:
        """Printable before/after table."""
        wide = max([24] + [len(e.name) for e in self.entries])
        header = (f"{'entry':<{wide}} {'tasks':>9} {'nodes':>6} "
                  f"{'reference':>11} {'vectorized':>11} {'speedup':>8} "
                  f"{'equal':>6}")
        lines = [header, "-" * len(header)]
        for e in self.entries:
            nodes = "-" if e.nodes_out_2d is None \
                else e.nodes_out_2d + e.nodes_out_3d
            lines.append(
                f"{e.name:<{wide}} {e.tasks:>9} {nodes:>6} "
                f"{e.reference_seconds * 1e3:>9.1f}ms "
                f"{e.vectorized_seconds * 1e3:>9.1f}ms "
                f"{e.speedup:>7.1f}x {str(e.equal):>6}")
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


def _bench_scheme(scheme: LabelScheme, daemons: int, samples: int,
                  repeats: int, seed: int) -> BenchEntry:
    """Build the daemon forest once, then time reference vs vectorized."""
    tasks = daemons * VN_TASKS_PER_DAEMON
    task_map = TaskMap.block(daemons, VN_TASKS_PER_DAEMON)
    emulator = STATBenchEmulator(
        task_map, scheme, BGLStackModel(),
        ring_hang_states(tasks), num_samples=samples, seed=seed)

    start = time.perf_counter()
    pairs = emulator.build_forest()
    build_seconds = time.perf_counter() - start
    arrays_2d: List[TreeArrays] = [p.tree_2d for p in pairs]
    arrays_3d: List[TreeArrays] = [p.tree_3d for p in pairs]
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
    counters = PERF.snapshot()["counts"]
    equal = (merged_2d.structurally_equal(ref_2d)
             and merged_3d.structurally_equal(ref_3d))
    return BenchEntry(
        name=f"{scheme.name}-vn-{daemons}",
        scheme=scheme.name,
        daemons=daemons,
        tasks=tasks,
        samples=samples,
        repeats=repeats,
        nodes_out_2d=merged_2d.node_count(),
        nodes_out_3d=merged_3d.node_count(),
        build_seconds=build_seconds,
        reference_seconds=reference_seconds,
        vectorized_seconds=vectorized_seconds,
        speedup=reference_seconds / vectorized_seconds
        if vectorized_seconds else float("inf"),
        equal=equal,
        counters={k: v for k, v in counters.items()},
    )


def _bench_build(scheme: LabelScheme, daemons: int, samples: int,
                 repeats: int, seed: int,
                 sample_reference: bool = False,
                 classes: int = 0) -> BenchEntry:
    """Time the forest kernel against the per-object oracle for one scale.

    Both are bit-exact reproductions of the same population — ring-hang,
    or a seeded ``uniform:<classes>`` mix when ``classes`` is given — so
    ``equal`` asserts ``arrays_equal`` on every daemon's 2D and 3D tree
    (on a :data:`BUILD_REFERENCE_SAMPLE`-daemon spot check when
    ``sample_reference`` extrapolates the reference timing instead of
    running all daemons through
    :func:`~repro.perf.reference.reference_daemon_trees`).
    """
    tasks = daemons * VN_TASKS_PER_DAEMON
    task_map = TaskMap.block(daemons, VN_TASKS_PER_DAEMON)
    states = uniform_class_states(tasks, classes, seed=seed) if classes \
        else ring_hang_states(tasks)

    # A fresh stack model inside each timed repeat: a session builds on
    # one, and a model warmed by the previous repeat would serve every
    # tree structure from its cache — a path no session takes (the
    # low-sharing workload's hit ratio is 0).
    vectorized_seconds, pairs = _best(
        lambda: STATBenchEmulator(
            task_map, scheme, BGLStackModel(), states, num_samples=samples,
            seed=seed).build_forest(), repeats)

    model = BGLStackModel()
    ref_ids = list(range(daemons)) if not sample_reference else \
        list(range(0, daemons, max(1, daemons // BUILD_REFERENCE_SAMPLE))
             )[:BUILD_REFERENCE_SAMPLE]
    start = time.perf_counter()
    ref_pairs = [reference_daemon_trees(d, task_map, scheme, model, states,
                                        num_samples=samples, seed=seed)
                 for d in ref_ids]
    reference_seconds = time.perf_counter() - start
    if sample_reference:
        reference_seconds *= daemons / len(ref_ids)

    equal = all(
        pairs[d].tree_2d.arrays_equal(ref_2d)
        and pairs[d].tree_3d.arrays_equal(ref_3d)
        for d, (ref_2d, ref_3d) in zip(ref_ids, ref_pairs))
    return BenchEntry(
        name=f"build-{scheme.name}-vn-{daemons}"
        + (f"-uniform{classes}" if classes else ""),
        scheme=scheme.name,
        daemons=daemons,
        tasks=tasks,
        samples=samples,
        repeats=repeats,
        build_seconds=vectorized_seconds,
        reference_seconds=reference_seconds,
        vectorized_seconds=vectorized_seconds,
        speedup=reference_seconds / vectorized_seconds
        if vectorized_seconds else float("inf"),
        equal=equal,
        reference_skipped=sample_reference,
    )


def run_bench(daemons: Optional[int] = None,
              samples: Optional[int] = None,
              repeats: Optional[int] = None,
              quick: bool = False,
              million: bool = False,
              seed: int = 208_000,
              build: bool = False,
              ten_million: bool = False,
              progress=print) -> BenchReport:
    """Run the merge-kernel benchmark suite.

    ``quick`` shrinks the *defaults* to a CI-speed smoke scale
    (64 daemons, 4 samples, 3 repeats); explicitly passed values always
    win.  ``million`` appends the 1,048,576-task hierarchical sweep
    point.  ``build`` additionally benchmarks tree *construction*
    (forest kernel vs per-object oracle) and attaches the result as
    ``report.build`` — a second :class:`BenchReport` the CLI writes to
    ``BENCH_build.json``.  ``ten_million`` (implies ``build``) appends
    the 10,485,760-task construction point, whose oracle timing is
    extrapolated from a daemon sample.
    """
    daemons = daemons if daemons is not None else (64 if quick
                                                   else FULL_DAEMONS)
    samples = samples if samples is not None else (4 if quick else 10)
    repeats = repeats if repeats is not None else (3 if quick else 5)
    if daemons < 1 or samples < 1 or repeats < 1:
        raise ValueError("daemons, samples, and repeats must be >= 1")
    report = BenchReport(seed=seed)
    start = time.perf_counter()
    for scheme in (DenseLabelScheme(daemons * VN_TASKS_PER_DAEMON),
                   HierarchicalLabelScheme()):
        progress(f"bench: {scheme.name} scheme, {daemons} daemons "
                 f"({daemons * VN_TASKS_PER_DAEMON} tasks) ...")
        report.entries.append(
            _bench_scheme(scheme, daemons, samples, repeats, seed))
    if million:
        tasks = MILLION_DAEMONS * VN_TASKS_PER_DAEMON
        progress(f"bench: million-task point — optimized scheme, "
                 f"{MILLION_DAEMONS} daemons ({tasks} tasks) ...")
        entry = _bench_scheme(HierarchicalLabelScheme(), MILLION_DAEMONS,
                              samples=2, repeats=max(2, repeats // 2),
                              seed=seed)
        entry.name = f"optimized-vn-{MILLION_DAEMONS}-million"
        report.entries.append(entry)
    if build or ten_million:
        build_start = time.perf_counter()
        build_report = BenchReport(seed=seed,
                                   workload="fig07-ring-hang-bgl-build")
        for scheme in (DenseLabelScheme(daemons * VN_TASKS_PER_DAEMON),
                       HierarchicalLabelScheme()):
            progress(f"bench: build path — {scheme.name} scheme, "
                     f"{daemons} daemons ...")
            build_report.entries.append(
                _bench_build(scheme, daemons, samples, repeats, seed))
        progress(f"bench: build path — optimized scheme, "
                 f"uniform:{BUILD_UNIFORM_CLASSES} population, "
                 f"{daemons} daemons ...")
        build_report.entries.append(
            _bench_build(HierarchicalLabelScheme(), daemons, samples,
                         repeats, seed, classes=BUILD_UNIFORM_CLASSES))
        if million:
            progress(f"bench: build path — million-task point, "
                     f"{MILLION_DAEMONS} daemons ...")
            entry = _bench_build(HierarchicalLabelScheme(),
                                 MILLION_DAEMONS, samples=2,
                                 repeats=max(2, repeats // 2), seed=seed)
            entry.name = f"build-optimized-vn-{MILLION_DAEMONS}-million"
            build_report.entries.append(entry)
        if ten_million:
            tasks = TEN_MILLION_DAEMONS * VN_TASKS_PER_DAEMON
            progress(f"bench: build path — ten-million-task point, "
                     f"{TEN_MILLION_DAEMONS} daemons ({tasks} tasks; "
                     f"reference extrapolated from a daemon sample) ...")
            entry = _bench_build(HierarchicalLabelScheme(),
                                 TEN_MILLION_DAEMONS, samples=2,
                                 repeats=2, seed=seed,
                                 sample_reference=True)
            entry.name = (f"build-optimized-vn-{TEN_MILLION_DAEMONS}"
                          "-ten-million")
            build_report.entries.append(entry)
        build_report.wall_seconds = time.perf_counter() - build_start
        report.build = build_report
    report.wall_seconds = time.perf_counter() - start
    return report


def check_baseline(report: BenchReport, baseline_path: str,
                   factor: float = REGRESSION_FACTOR
                   ) -> Tuple[bool, List[str]]:
    """Compare a report against a checked-in baseline JSON.

    The gate is hardware-normalized: both runs measure reference and
    vectorized kernels on the *same* machine, so the **speedup ratio**
    transfers across machines where absolute milliseconds do not.  An
    entry fails when its measured speedup collapses below the baseline's
    speedup divided by ``factor`` (a >2x relative regression of the
    vectorized kernels), or when it no longer matches the reference
    kernels bit for bit.  Absolute times are reported for context.
    """
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    base_entries = {e["name"]: e for e in baseline.get("entries", [])}
    messages: List[str] = []
    ok = True
    for entry in report.entries:
        if not entry.equal:
            ok = False
            messages.append(f"{entry.name}: vectorized output diverged "
                            "from the reference kernels")
            continue
        base = base_entries.get(entry.name)
        if base is None:
            # Strict: a rename or scale change must not silently disarm
            # the gate — refresh the baseline file instead.
            ok = False
            messages.append(
                f"{entry.name}: no matching baseline entry — regenerate "
                f"the baseline ({sorted(base_entries) or 'empty'})")
            continue
        floor = base["speedup"] / factor
        if entry.speedup < floor:
            ok = False
            messages.append(
                f"{entry.name}: REGRESSION — speedup {entry.speedup:.2f}x "
                f"< baseline {base['speedup']:.2f}x / {factor:.0f} "
                f"(vectorized {entry.vectorized_seconds * 1e3:.1f}ms vs "
                f"baseline {base['vectorized_seconds'] * 1e3:.1f}ms)")
        else:
            messages.append(
                f"{entry.name}: ok (speedup {entry.speedup:.2f}x vs "
                f"baseline {base['speedup']:.2f}x, floor {floor:.2f}x; "
                f"vectorized {entry.vectorized_seconds * 1e3:.1f}ms)")
    return ok, messages
