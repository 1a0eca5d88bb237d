"""Golden digests: the refactor-safety gate (ROADMAP 6a).

Every spec below runs one whole session and is reduced to four sha256
digests, one **per part** — finalized trees, equivalence classes,
simulated timings, degradation report — so a failure names what moved.
The goldens live in ``tests/fixtures/golden_digests.json``; a refactor
whose acceptance is "same bits" must leave that file alone.

Regenerate (only when a change to the bits is intended and explained)::

    PYTHONPATH=src python tests/test_golden_digests.py

A spec named ``<x>+dead`` declares its dead daemons through
``SessionSpec.dead_daemons`` and has a twin ``<x>+crash`` declaring the
same set as ``FaultPlan`` crashes at t=0.  The two spellings parse into
the same plan, so every part of their digests must agree.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.api.pipeline import SessionPipeline
from repro.api.spec import SessionSpec
from repro.core.codec import pack_tree
from repro.core.sampling import SamplingConfig
from repro.faults.plan import (
    DaemonCrash,
    DaemonStall,
    FaultPlan,
    LinkFault,
    RetryPolicy,
    Straggler,
)

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "golden_digests.json"
PARTS = ("trees", "classes", "timings", "degradation")
SEED = 208_000

_LINKS = FaultPlan(seed=7, links=(LinkFault(drop_p=0.25, corrupt_p=0.25),),
                   retry=RetryPolicy(max_retries=2, timeout_s=1.5,
                                     backoff_base_s=0.2))
_SLOW = FaultPlan(seed=11,
                  stalls=(DaemonStall(rank=2, time=0.0, duration=3.0),
                          DaemonStall(rank=9, time=0.0, duration=60.0)),
                  stragglers=(Straggler(fraction=0.25, dilation=2.0,
                                        extra_s=0.1),),
                  retry=RetryPolicy(max_retries=1, timeout_s=2.0))
_MIXED = FaultPlan(seed=13,
                   crashes=(DaemonCrash(rank=1, time=0.0),
                            DaemonCrash(rank=20, time=0.01)),
                   links=(LinkFault(drop_p=0.3, corrupt_p=0.1),))


def _crashes(*ranks):
    return FaultPlan(seed=SEED).with_crashes(ranks)


def _spec(machine, daemons, *, stream=False, **kw):
    return SessionSpec(machine=machine, daemons=daemons, num_samples=3,
                       seed=SEED, **kw), stream


#: name -> (spec, run the merge through StreamingTBON)
SPECS = {
    "bgl16vn-hier-default-ring-batch": _spec("bgl", 16, mode="vn"),
    "bgl16-dense-flat-uniform8-batch": _spec(
        "bgl", 16, scheme="dense", topology="flat", workload="uniform:8"),
    "bgl32-hier-3deep-ring-stream": _spec(
        "bgl", 32, topology="bgl-3deep", stream=True),
    "atlas16-dense-2deep-distinct-batch": _spec(
        "atlas", 16, scheme="dense", topology="balanced:2",
        workload="distinct"),
    "atlas32-hier-3deep-uniform8-stream": _spec(
        "atlas", 32, topology="balanced:3", workload="uniform:8",
        stream=True),
    "bgl16-hier-2deep-ring-batch+dead": _spec(
        "bgl", 16, topology="bgl-2deep", dead_daemons=(3, 11)),
    "bgl16-hier-2deep-ring-batch+crash": _spec(
        "bgl", 16, topology="bgl-2deep", faults=_crashes(3, 11)),
    "bgl16-dense-2deep-uniform8-stream+dead": _spec(
        "bgl", 16, scheme="dense", topology="bgl-2deep",
        workload="uniform:8", dead_daemons=(3, 11), stream=True),
    "bgl16-dense-2deep-uniform8-stream+crash": _spec(
        "bgl", 16, scheme="dense", topology="bgl-2deep",
        workload="uniform:8", faults=_crashes(3, 11), stream=True),
    "atlas32-hier-2deep-ring-batch-links": _spec(
        "atlas", 32, topology="balanced:2", faults=_LINKS),
    "bgl32-dense-3deep-uniform8-stream-links": _spec(
        "bgl", 32, scheme="dense", topology="bgl-3deep",
        workload="uniform:8", faults=_LINKS, stream=True),
    "bgl16-hier-flat-distinct-batch-slow": _spec(
        "bgl", 16, topology="flat", workload="distinct", faults=_SLOW),
    "atlas16-dense-flat-ring-stream-slow": _spec(
        "atlas", 16, scheme="dense", topology="flat", faults=_SLOW,
        stream=True),
    "bgl32-hier-3deep-ring-batch-mixed+dead": _spec(
        "bgl", 32, topology="bgl-3deep", faults=_MIXED,
        dead_daemons=(7,)),
    "bgl32-hier-3deep-ring-batch-mixed+crash": _spec(
        "bgl", 32, topology="bgl-3deep", faults=_MIXED.with_crashes([7])),
    # The populations the structure kernels serve (path-interned build
    # and merge): long left folds, low trace sharing, every trace
    # distinct, thread-keyed traces, gaps in the daemon map.
    "bgl64-dense-default-ring-stream": _spec(
        "bgl", 64, scheme="dense", stream=True),
    "bgl64vn-hier-default-uniform64-batch": _spec(
        "bgl", 64, mode="vn", workload="uniform:64"),
    "bgl32-dense-3deep-distinct-batch": _spec(
        "bgl", 32, scheme="dense", topology="bgl-3deep",
        workload="distinct"),
    "atlas16-hier-2deep-uniform8-threads2-batch": _spec(
        "atlas", 16, topology="balanced:2", workload="uniform:8",
        sampling=SamplingConfig(num_samples=3, threads_per_process=2)),
    "bgl64vn-dense-2deep-uniform64-block-deadmap-stream": _spec(
        "bgl", 64, mode="vn", scheme="dense", topology="bgl-2deep",
        workload="uniform:64", mapping="block",
        dead_daemons=(0, 5, 40, 63), stream=True),
}


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def digests(name: str) -> dict:
    """Run ``SPECS[name]`` and digest each part of its result."""
    spec, stream = SPECS[name]
    pipeline = SessionPipeline.from_spec(spec)
    pipeline.ctx.stream = stream
    result = pipeline.run()
    return {
        "trees": _sha(pack_tree(result.tree_2d) + pack_tree(result.tree_3d)),
        "classes": _sha(repr(result.classes)),
        "timings": _sha(repr(sorted(result.timings.items()))),
        "degradation": _sha(json.dumps(result.degradation.to_dict(),
                                       sort_keys=True)),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_every_spec_has_a_golden(golden):
    assert sorted(golden) == sorted(SPECS)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_digests_match_golden(name, golden):
    got = digests(name)
    moved = [part for part in PARTS if got[part] != golden[name][part]]
    assert not moved, f"{name}: {', '.join(moved)} moved"


@pytest.mark.parametrize(
    "name", sorted(n for n in SPECS if n.endswith("+dead")))
def test_dead_daemons_and_crash_plan_are_one_spelling(name, golden):
    assert golden[name] == golden[name[:-len("+dead")] + "+crash"]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {name: digests(name) for name in sorted(SPECS)},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
