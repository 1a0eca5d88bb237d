"""Chaos harness: hundreds of randomized seeded fault campaigns.

``stat-repro chaos`` sweeps randomized :class:`~repro.faults.plan
.FaultPlan`s across topology × scheme × batch/stream reductions over a
real STATBench forest, asserting the robustness invariants the paper's
Section V demands of a 208K-core debugger:

* **never hangs** — every case completes inside the sweep's wall budget;
* **never raises outside declared policy** — a case either returns a
  (possibly degraded) result or raises ``AllDaemonsFailed`` for the
  declared every-daemon-lost condition;
* **deterministic per seed** — every case is run twice and must
  reproduce its merged payload (``arrays_equal``), timing, missing
  list, and fault counters bit-identically;
* **degradation is honest** — missing ranks are unique, in range, and
  consistent with the coverage fraction;
* **empty plans are no-ops** — per combination, a run with an empty
  plan bound is bit-identical to a plan-free run;
* **streamed coverage is monotone** — for plans without link faults,
  front-end coverage never decreases in simulated time.

The quick sweep (hundreds of plans at small scale) runs in CI with a
``--max-seconds`` budget; the nightly workflow runs the full sweep and
uploads the report JSON.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.merge import DenseLabelScheme, HierarchicalLabelScheme
from repro.core.taskset import TaskMap
from repro.faults.plan import FaultPlan
from repro.machine.bgl import BGLMachine
from repro.mpi.stacks import BGLStackModel
from repro.sim.random import SeedStream
from repro.statbench import ring_hang_states
from repro.statbench.emulator import DaemonTrees, STATBenchEmulator
from repro.tbon.network import TBONetwork
from repro.tbon.retry import AllDaemonsFailed, DaemonFailure
from repro.tbon.streaming import StreamConfig, StreamingTBON
from repro.tbon.topology import Topology

__all__ = ["ChaosCase", "ChaosReport", "run_chaos", "CHAOS_VERSION"]

CHAOS_VERSION = 1

#: simulated probe times for the streamed-coverage monotonicity check
_COVERAGE_PROBES = (0.05, 0.2, 1.0, 5.0, 30.0)


@dataclass
class ChaosCase:
    """One randomized plan run (twice) against one combination."""

    index: int
    topology: str
    scheme: str
    mode: str
    plan_seed: int
    ok: bool = True
    error: Optional[str] = None
    #: declared every-daemon-lost outcome (AllDaemonsFailed) — not a bug
    all_dead: bool = False
    sim_time: float = 0.0
    coverage: float = 1.0
    missing: int = 0
    retries: int = 0
    dropped: int = 0
    corrupt: int = 0
    injected: int = 0
    absorbed: int = 0


@dataclass
class ChaosReport:
    """Everything one chaos sweep established (→ CHAOS.json)."""

    version: int = CHAOS_VERSION
    seed: int = 208_000
    daemons: int = 8
    samples: int = 2
    plans_requested: int = 0
    cases: List[ChaosCase] = field(default_factory=list)
    #: invariant violations, one message each (empty = sweep passed)
    failures: List[str] = field(default_factory=list)
    #: True when --max-seconds stopped the sweep before all plans ran
    budget_exceeded: bool = False
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True when every invariant held and the sweep completed."""
        return not self.failures and not self.budget_exceeded

    @property
    def survived(self) -> int:
        """Cases that returned a full-coverage answer despite faults."""
        return sum(1 for c in self.cases
                   if c.ok and not c.all_dead and c.missing == 0)

    @property
    def degraded(self) -> int:
        """Cases that returned a partial (but honest) answer."""
        return sum(1 for c in self.cases
                   if c.ok and (c.all_dead or c.missing > 0))

    def to_dict(self) -> Dict:
        return {
            "version": self.version, "seed": self.seed,
            "daemons": self.daemons, "samples": self.samples,
            "plans_requested": self.plans_requested,
            "plans_run": len(self.cases),
            "survived": self.survived, "degraded": self.degraded,
            "failures": list(self.failures),
            "budget_exceeded": self.budget_exceeded,
            "wall_seconds": self.wall_seconds,
            "cases": [asdict(c) for c in self.cases],
        }

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    def table(self) -> str:
        """Printable sweep summary."""
        lines = [
            f"chaos sweep: {len(self.cases)}/{self.plans_requested} plans "
            f"at {self.daemons} daemons (seed {self.seed})",
            f"  full-coverage answers : {self.survived}",
            f"  degraded answers      : {self.degraded}",
            f"  faults injected       : "
            f"{sum(c.injected for c in self.cases)}",
            f"  faults absorbed       : "
            f"{sum(c.absorbed for c in self.cases)}",
            f"  retries spent         : "
            f"{sum(c.retries for c in self.cases)}",
            f"  invariant failures    : {len(self.failures)}",
        ]
        for message in self.failures[:20]:
            lines.append(f"    FAIL {message}")
        if self.budget_exceeded:
            lines.append("  BUDGET EXCEEDED — sweep stopped early")
        lines.append(f"({self.wall_seconds:.1f} wall s; "
                     f"{'OK' if self.ok else 'FAILED'})")
        return "\n".join(lines)


def _case_outcome(mode: str, topology: Topology, machine,
                  plan: Optional[FaultPlan], scheme_seed: int, forest,
                  merge_fn, daemons: int):
    """Run one plan once; returns (result_or_None, injector, all_dead).

    ``plan=None`` runs entirely fault-free (no injector bound) — the
    reference side of the empty-plan no-op gate.
    """
    injector = None if plan is None else plan.bind(daemons)
    kwargs = dict(
        leaf_payload_fn=lambda rank: forest[rank],
        merge_fn=merge_fn,
        payload_nbytes=DaemonTrees.serialized_bytes,
        payload_nodes=DaemonTrees.node_count,
        on_daemon_failure="skip",
        faults=injector,
    )
    try:
        if mode == "batch":
            result = TBONetwork(topology, machine).reduce(**kwargs)
        else:
            result = StreamingTBON(topology, machine).reduce(
                **kwargs, config=StreamConfig(seed=scheme_seed))
    except AllDaemonsFailed:
        return None, injector, True
    return result, injector, False


def _fingerprint(result, injector) -> Tuple:
    """Everything a deterministic replay must reproduce exactly."""
    if result is None:
        return ("all-dead", tuple(sorted(injector.counts.items())))
    return (
        result.sim_time,
        tuple(sorted(result.missing_daemons)),
        result.messages,
        result.retries,
        result.dropped_messages,
        result.corrupt_detected,
        result.missing_subtrees,
        tuple(sorted(injector.counts.items())),
        injector.absorbed,
    )


def _check_stream_monotone(topology: Topology, machine, plan: FaultPlan,
                           scheme_seed: int, forest, merge_fn,
                           daemons: int) -> Optional[str]:
    """Probe a link-fault-free streamed run for monotone coverage."""
    reduction = StreamingTBON(topology, machine).stream(
        leaf_payload_fn=lambda rank: forest[rank],
        merge_fn=merge_fn,
        payload_nbytes=DaemonTrees.serialized_bytes,
        payload_nodes=DaemonTrees.node_count,
        on_daemon_failure="skip",
        config=StreamConfig(seed=scheme_seed),
        faults=plan.bind(daemons),
    )
    last = -1
    try:
        for probe in _COVERAGE_PROBES:
            reduction.run_until(probe)
            covered = reduction.coverage()
            if covered < last:
                return (f"coverage decreased {last} -> {covered} "
                        f"at t={probe}")
            last = covered
        reduction.run()
    except AllDaemonsFailed:
        pass
    except DaemonFailure as err:
        return f"undeclared {type(err).__name__}: {err}"
    return None


def run_chaos(plans: int = 200, daemons: int = 8, samples: int = 2,
              seed: int = 208_000, max_seconds: Optional[float] = None,
              progress=None) -> ChaosReport:
    """Sweep ``plans`` randomized fault campaigns; assert invariants.

    Every case is deterministic for ``(seed, index)``: the plan is drawn
    from a labelled :class:`SeedStream`, bound, and run **twice** — the
    two runs must agree bit-for-bit.  ``max_seconds`` bounds the sweep's
    wall clock (the never-hangs backstop); exceeding it fails the
    report.
    """
    if plans < 1 or daemons < 2 or samples < 1:
        raise ValueError("plans >= 1, daemons >= 2, samples >= 1 required")
    report = ChaosReport(seed=seed, daemons=daemons, samples=samples,
                         plans_requested=plans)
    start = time.perf_counter()
    machine = BGLMachine.with_io_nodes(daemons, "vn")
    tasks = machine.total_tasks
    task_map = TaskMap.block(daemons, machine.tasks_per_daemon)

    # Forest + merge filter built once per scheme; every case reuses
    # them (the merge kernels never mutate their inputs).
    schemes = {}
    for scheme in (HierarchicalLabelScheme(), DenseLabelScheme(tasks)):
        emulator = STATBenchEmulator(
            task_map, scheme, BGLStackModel(), ring_hang_states(tasks),
            num_samples=samples, seed=seed)
        schemes[scheme.name] = (emulator.build_forest(),
                                emulator.merge_filter())

    num_cps = max(2, int(math.isqrt(daemons)))
    topologies = [("flat", Topology.flat(daemons)),
                  ("two-deep", Topology.two_deep(daemons, num_cps)),
                  ("bgl-two-deep", Topology.bgl_two_deep(daemons))]
    combos = [(topo_name, topo, scheme_name, mode)
              for topo_name, topo in topologies
              for scheme_name in sorted(schemes)
              for mode in ("batch", "stream")]

    # Empty-plan no-op gate, once per combination: binding an empty
    # plan must not perturb a single bit of the fault-free run.
    for topo_name, topo, scheme_name, mode in combos:
        forest, merge_fn = schemes[scheme_name]
        plain, _, _ = _case_outcome(
            mode, topo, machine, None, seed, forest, merge_fn, daemons)
        empty, _, _ = _case_outcome(
            mode, topo, machine, FaultPlan(seed=seed),
            seed, forest, merge_fn, daemons)
        same = (plain.sim_time == empty.sim_time
                and plain.messages == empty.messages
                and plain.payload.tree_2d.arrays_equal(
                    empty.payload.tree_2d)
                and plain.payload.tree_3d.arrays_equal(
                    empty.payload.tree_3d))
        if not same:
            report.failures.append(
                f"empty-plan drift: {topo_name}/{scheme_name}/{mode}")

    for i in range(plans):
        if max_seconds is not None and \
                time.perf_counter() - start > max_seconds:
            report.budget_exceeded = True
            report.failures.append(
                f"wall budget {max_seconds}s exceeded after "
                f"{i} of {plans} plans")
            break
        topo_name, topo, scheme_name, mode = combos[i % len(combos)]
        forest, merge_fn = schemes[scheme_name]
        rng = SeedStream(seed).child(f"plan/{i}").rng("draw")
        plan_seed = int(rng.integers(0, 2 ** 31))
        plan = FaultPlan.random(rng, daemons, seed=plan_seed)
        case = ChaosCase(index=i, topology=topo_name, scheme=scheme_name,
                         mode=mode, plan_seed=plan_seed)
        report.cases.append(case)
        try:
            first, injector, all_dead = _case_outcome(
                mode, topo, machine, plan, seed, forest, merge_fn,
                daemons)
            second, injector2, all_dead2 = _case_outcome(
                mode, topo, machine, plan, seed, forest, merge_fn,
                daemons)
        except Exception as err:  # noqa: BLE001 - undeclared = violation
            case.ok = False
            case.error = f"undeclared {type(err).__name__}: {err}"
            report.failures.append(f"case {i} ({topo_name}/{scheme_name}/"
                                   f"{mode}): {case.error}")
            continue
        case.all_dead = all_dead
        case.injected = injector.injected
        case.absorbed = injector.absorbed
        if _fingerprint(first, injector) != _fingerprint(second, injector2):
            case.ok = False
            case.error = "nondeterministic replay"
        elif first is not None and not (
                first.payload.tree_2d.arrays_equal(second.payload.tree_2d)
                and first.payload.tree_3d.arrays_equal(
                    second.payload.tree_3d)):
            case.ok = False
            case.error = "nondeterministic merged payload"
        if first is not None:
            missing = list(first.missing_daemons)
            case.sim_time = first.sim_time
            case.missing = len(missing)
            case.coverage = (daemons - len(missing)) / daemons
            case.retries = first.retries
            case.dropped = first.dropped_messages
            case.corrupt = first.corrupt_detected
            if len(set(missing)) != len(missing) or \
                    not set(missing) <= set(range(daemons)):
                case.ok = False
                case.error = f"bad missing list {sorted(missing)}"
        else:
            case.sim_time = 0.0
            case.missing = daemons
            case.coverage = 0.0
        if case.ok and mode == "stream" and not plan.links:
            monotone_err = _check_stream_monotone(
                topo, machine, plan, seed, forest, merge_fn, daemons)
            if monotone_err is not None:
                case.ok = False
                case.error = monotone_err
        if not case.ok:
            report.failures.append(
                f"case {i} ({topo_name}/{scheme_name}/{mode}): "
                f"{case.error}")
        if progress is not None and (i + 1) % 50 == 0:
            progress(f"chaos: {i + 1}/{plans} plans "
                     f"({len(report.failures)} failures)")
    report.wall_seconds = time.perf_counter() - start
    return report
