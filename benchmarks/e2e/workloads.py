"""The four end-to-end workloads, generated from one seed.

Each workload is a list of :class:`~repro.api.spec.SessionSpec`; the
program under test only ever sees those specs.  The seed feeds the spec
seeds, the seeded populations (``uniform:<k>``) and the fault plans —
never the *shape* of a workload, so the work a run does is the same for
every seed and run-to-run spread measures the host, not the inputs.

``name`` and ``why`` must match ``BENCHMARK.json`` (``test_smoke.py``
checks this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from repro.api.spec import SessionSpec
from repro.faults.plan import FaultPlan

__all__ = ["Workload", "WORKLOADS"]


@dataclass(frozen=True)
class Workload:
    """One named set of inputs."""

    name: str
    why: str
    #: ``(seed, quick) -> specs``
    specs: Callable[[int, bool], List[SessionSpec]]
    #: drive the merge through ``StreamingTBON`` (``ctx.stream = True``;
    #: ``SessionSpec`` has no field for it)
    stream: bool = False
    #: run through one reused ``ScenarioSuite`` process pool
    pooled: bool = False


def _ring_hier(seed: int, quick: bool) -> List[SessionSpec]:
    return [SessionSpec(machine="bgl", daemons=64 if quick else 1664,
                        mode="vn", seed=seed)]


def _ring_dense(seed: int, quick: bool) -> List[SessionSpec]:
    return [SessionSpec(machine="bgl", daemons=32 if quick else 832,
                        mode="vn", scheme="dense", seed=seed)]


def _uniform64(seed: int, quick: bool) -> List[SessionSpec]:
    return [SessionSpec(machine="bgl", daemons=32 if quick else 416,
                        mode="vn", workload="uniform:64", seed=seed)]


_POPULATIONS = ("ring_hang", "uniform:8", "uniform:32", "distinct")
_BGL_SIZES = (8, 16, 32, 64)
_ATLAS_SIZES = (16, 32, 64, 128)
_BGL_SHAPES = (None, "flat", "bgl-2deep", "bgl-3deep")
_ATLAS_SHAPES = (None, "flat", "balanced:2", "balanced:3")


def _sweep(seed: int, quick: bool) -> List[SessionSpec]:
    """A fixed 48-cell grid; the seed sets spec seeds and fault plans.

    Every third spec is Atlas, schemes alternate, populations cycle
    every two specs, topologies every three, sizes every five (so each
    population meets each size).  ``distinct`` (one class per task) is
    kept to <= 2,048 tasks and virtual-node mode to <= 32 I/O nodes:
    its dense trees grow with tasks squared and would turn the sweep
    into a one-spec benchmark.
    """
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(8 if quick else 48):
        population = _POPULATIONS[(i // 2) % 4]
        size = (i // 5 + i) % 4
        atlas = i % 3 == 2
        if atlas:
            daemons = _ATLAS_SIZES[size]
            mode = "co"
            shape = _ATLAS_SHAPES[(i // 3) % 4]
        else:
            daemons = _BGL_SIZES[size]
            mode = "vn" if i % 4 < 2 and daemons <= 32 else "co"
            shape = _BGL_SHAPES[(i // 3) % 4]
        if population == "distinct":
            daemons = min(daemons, 32)
            mode = "co"
        # The plan is drawn for every fourth spec only, but the draw
        # order is fixed, so spec i's plan depends on the seed alone.
        faults = FaultPlan.random(rng, daemons, seed=seed + i) \
            if i % 4 == 3 else None
        specs.append(SessionSpec(
            machine="atlas" if atlas else "bgl", daemons=daemons, mode=mode,
            topology=shape, scheme=("hierarchical", "dense")[i % 2],
            workload=population, use_sbrs=atlas and (i // 3) % 3 == 0,
            seed=seed + i, faults=faults, name=f"s{i:02d}"))
    return specs


WORKLOADS = {w.name: w for w in (
    Workload(
        "bgl208k-ring-hier-batch",
        "The paper's headline run: 212,992 tasks, hierarchical labels, "
        "batch reduce; finalize (remap + classes) is most of the wall "
        "and build_forest stays on its shared-structure fast path.",
        _ring_hier),
    Workload(
        "bgl106k-ring-dense-stream",
        "Dense labels through StreamingTBON (831 two-way folds of 13 KB "
        "labels): no remap, ~80% of the wall inside the streamed "
        "reduction; the merge kernels used the other way round.",
        _ring_dense, stream=True),
    Workload(
        "bgl53k-uniform64-hier-batch",
        "64 seeded classes over 53,248 tasks: daemons share no trace "
        "mix, build_forest leaves its group path and dominates; the "
        "inverse of the headline run.",
        _uniform64),
    Workload(
        "sweep48-mixed-pool",
        "48 small mixed specs (both machines, schemes, four topologies, "
        "four populations, SBRS, fault plans) through one reused "
        "ScenarioSuite pool: fixed per-session cost and pool transport.",
        _sweep, pooled=True),
)}
