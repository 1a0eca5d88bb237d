"""Golden digests: the refactor-safety gate (ROADMAP 6a).

Every spec below runs one whole session and is reduced to six sha256
digests, one **per part** — finalized trees, equivalence classes,
simulated timings, degradation report, renders (``to_ascii`` and
``to_dot`` of both trees, plus the 6-level 3D view the CLI prints) and
the archive (every file ``save_session`` writes) — so a failure names
what moved.
The goldens live in ``tests/fixtures/golden_digests.json``; a refactor
whose acceptance is "same bits" must leave that file alone.

Regenerate (only when a change to the bits is intended and explained)::

    PYTHONPATH=src python tests/test_golden_digests.py

``TIMELINES`` pins :class:`~repro.core.timeline.TimelineSampler` runs
of a live application the same way, one digest for the merged trees,
one for their renders and one for the state kinds seen at each instant
(a timeline has no session result, so no archive part).

A spec named ``<x>+dead`` declares its dead daemons through
``SessionSpec.dead_daemons`` and has a twin ``<x>+crash`` declaring the
same set as ``FaultPlan`` crashes at t=0.  The two spellings parse into
the same plan, so every part of their digests must agree except the
archive, whose ``session.json`` embeds the spec as spelled.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from repro.api.pipeline import SessionPipeline
from repro.api.spec import SessionSpec
from repro.apps import ring_program
from repro.apps.bugs import NO_BUG, HangBeforeSend
from repro.core.codec import pack_tree
from repro.core.merge import DenseLabelScheme, HierarchicalLabelScheme
from repro.core.sampling import SamplingConfig
from repro.core.session import save_session
from repro.core.taskset import TaskMap
from repro.core.timeline import TimelineSampler
from repro.core.visualize import to_ascii, to_dot
from repro.faults.plan import (
    DaemonCrash,
    DaemonStall,
    FaultPlan,
    LinkFault,
    RetryPolicy,
    Straggler,
)
from repro.machine.atlas import AtlasMachine
from repro.machine.bgl import BGLMachine
from repro.mpi.stacks import BGLStackModel, LinuxStackModel

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "golden_digests.json"
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
    "atlas16-hier-2deep-uniform8-threads3-stream": _spec(
        "atlas", 16, topology="balanced:2", workload="uniform:8",
        sampling=SamplingConfig(num_samples=3, threads_per_process=3),
        stream=True),
    # The keyed draws: Linux depth range 2 over an odd count of walks
    # per row, and BG/L depth + time-of-day pairs through the streamed
    # fold.
    "atlas32-hier-flat-uniform64-batch": _spec(
        "atlas", 32, topology="flat", workload="uniform:64",
        sampling=SamplingConfig(num_samples=7)),
    "bgl32vn-dense-2deep-uniform64-stream": _spec(
        "bgl", 32, mode="vn", scheme="dense", topology="bgl-2deep",
        workload="uniform:64", sampling=SamplingConfig(num_samples=5),
        stream=True),
}

#: name -> (machine, scheme ("dense" = job-width), stack model, bug,
#: sample times).  The ring's exchange runs at ~0.2 ms, so the instants
#: catch compute, waitall, barrier and exit.
TIMELINES = {
    "timeline-atlas4-hier-healthy-ring-3": (
        AtlasMachine.with_nodes(4), "hierarchical", LinuxStackModel,
        NO_BUG, (1e-4, 2.015e-4, 2.05e-4)),
    "timeline-bgl8vn-dense-hang-2": (
        BGLMachine.with_io_nodes(8, "vn"), "dense", BGLStackModel,
        HangBeforeSend(rank=1), (0.5, 1.0)),
    "timeline-bgl8vn-hier-healthy-ring-6": (
        BGLMachine.with_io_nodes(8, "vn"), "hierarchical", BGLStackModel,
        NO_BUG, (1e-4, 2.015e-4, 2.05e-4, 2.1e-4, 2.2e-4, 1.0)),
}


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _render(tree_2d, tree_3d) -> str:
    """Every rendering a user sees, as the CLI and the archive print them."""
    return "\n\0\n".join([
        to_ascii(tree_2d), to_dot(tree_2d),
        to_ascii(tree_3d), to_dot(tree_3d, graph_name="stat_3d_tree"),
        to_ascii(tree_3d.truncated_at_depth(6)),
    ])


def _archive(result, spec) -> str:
    """sha256 of each file ``save_session`` writes, by file name."""
    with tempfile.TemporaryDirectory() as tmp:
        out = save_session(result, Path(tmp) / "session", spec=spec)
        files = {f.name: _sha(f.read_bytes()) for f in out.iterdir()}
    return json.dumps(files, sort_keys=True)


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
        "render": _sha(_render(result.tree_2d, result.tree_3d)),
        "archive": _sha(_archive(result, spec)),
    }


def timeline_digests(name: str) -> dict:
    """Run ``TIMELINES[name]`` and digest its trees and observed states."""
    machine, scheme, model, bug, times = TIMELINES[name]
    scheme = DenseLabelScheme(machine.total_tasks) if scheme == "dense" \
        else HierarchicalLabelScheme()
    task_map = TaskMap.block(machine.num_daemons, machine.tasks_per_daemon)
    result = TimelineSampler(machine, task_map, scheme, model(),
                             seed=SEED).run(
        ring_program(bug=bug, compute_seconds=2.0e-4), times)
    return {
        "trees": _sha(pack_tree(result.tree_2d) + pack_tree(result.tree_3d)),
        "render": _sha(_render(result.tree_2d, result.tree_3d)),
        "states": _sha(repr([sorted(s) for s in result.states_seen])),
    }


def all_digests(name: str) -> dict:
    return timeline_digests(name) if name in TIMELINES else digests(name)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_every_spec_has_a_golden(golden):
    assert sorted(golden) == sorted([*SPECS, *TIMELINES])


@pytest.mark.parametrize("name", sorted([*SPECS, *TIMELINES]))
def test_digests_match_golden(name, golden):
    got = all_digests(name)
    moved = [part for part in got if got[part] != golden[name].get(part)]
    assert not moved, f"{name}: {', '.join(moved)} moved"


@pytest.mark.parametrize(
    "name", sorted(n for n in SPECS if n.endswith("+dead")))
def test_dead_daemons_and_crash_plan_are_one_spelling(name, golden):
    # The archive embeds the spec as written, so only it may differ.
    twin = golden[name[:-len("+dead")] + "+crash"]
    assert {k: v for k, v in golden[name].items() if k != "archive"} == \
        {k: v for k, v in twin.items() if k != "archive"}


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(
        {name: all_digests(name) for name in sorted([*SPECS, *TIMELINES])},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
