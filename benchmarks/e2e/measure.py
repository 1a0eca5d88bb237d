"""Set-up and the untraced end-to-end pass of one workload.

Runs inside a fresh process per workload (``run.py`` spawns it), so the
process-wide ``FrameInterner``/structure caches and ``ru_maxrss`` belong
to this workload alone.  Closed loop: one session at a time, or one
``ScenarioSuite.run`` over ``min(nproc, 2)`` pool workers at a time.
Every timed section sits between two passes of the calibration kernel
and is reported in calibrated seconds (``calibrate.py``).
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.api.pipeline import SessionPipeline
from repro.api.spec import SessionSpec
from repro.api.suite import ScenarioSuite
from repro.core.frontend import STATResult
from repro.core.session import load_session, save_session
from repro.core.taskset import TaskMap

from calibrate import Calibrator
from checks import (
    check_archive, check_result, content_digest, payloads_equal,
)
from workloads import Workload

__all__ = ["Session", "Runner", "set_up", "run_untraced", "summarize",
           "archive_round_trip", "OUT_DIR"]

#: everything the benchmark writes (archives, traces) goes here
OUT_DIR = Path(__file__).resolve().parent / "out"


@dataclass
class Session:
    """One executed session and what the checks need from it."""

    spec: SessionSpec
    wall_s: float
    result: Optional[STATResult] = None
    task_map: Optional[TaskMap] = None
    #: the TBON's merged ``DaemonTrees`` (inline sessions only)
    payload: object = None
    error: Optional[str] = None


@dataclass
class Round:
    """One pass over the workload's specs."""

    sessions: List[Session]
    #: wall of the whole pass (pool transport included when pooled)
    wall_s: float
    #: the ``SuiteReport`` of a pooled pass
    report: object = None


class Runner:
    """Executes a workload's specs, inline or through the suite pool."""

    def __init__(self, workload: Workload, specs: List[SessionSpec]) -> None:
        self.workload = workload
        self.specs = specs
        self.workers = min(os.cpu_count() or 1, 2)
        self.suite = ScenarioSuite(specs) if workload.pooled else None

    def close(self) -> None:
        if self.suite is not None:
            self.suite.close()

    def run_inline(self, spec: SessionSpec, stream: bool) -> Session:
        """``SessionPipeline.from_spec(spec).run()``, timed."""
        gc.collect()
        start = time.perf_counter()
        try:
            pipeline = SessionPipeline.from_spec(spec)
            pipeline.ctx.stream = stream
            result = pipeline.run()
        except Exception as err:  # noqa: BLE001 - counted as a failed session
            return Session(spec, time.perf_counter() - start,
                           error=f"{type(err).__name__}: {err}")
        wall = time.perf_counter() - start
        ctx = pipeline.ctx
        return Session(spec, wall, result, ctx.task_map, ctx.merge.payload)

    def round(self) -> Round:
        if self.suite is None:
            sessions = [self.run_inline(s, self.workload.stream)
                        for s in self.specs]
            return Round(sessions, sum(s.wall_s for s in sessions))
        gc.collect()
        report = self.suite.run(max_workers=self.workers)
        sessions = []
        for outcome in report:
            session = Session(outcome.spec, outcome.wall_seconds,
                              outcome.result, error=outcome.error)
            if outcome.result is not None:
                session.task_map = \
                    outcome.result.launch.process_table.task_map
            sessions.append(session)
        return Round(sessions, report.wall_seconds, report)


def set_up(workload: Workload, seed: int, quick: bool):
    """Specs from the seed, the pool, and one cold round of sessions."""
    specs = workload.specs(seed, quick)
    runner = Runner(workload, specs)
    return runner, runner.round()


def archive_round_trip(spec: SessionSpec, result: STATResult,
                       directory: Path):
    """``save_session`` + ``load_session``; returns both walls."""
    start = time.perf_counter()
    save_session(result, directory, spec=spec)
    saved = time.perf_counter()
    archive = load_session(directory)
    return archive, saved - start, time.perf_counter() - saved


@dataclass
class Samples:
    """What the measured loop collected."""

    #: one entry per round, in calibrated seconds: mean session wall,
    #: mean archive round trip (a round of one spec has one of each),
    #: wall of the whole round
    session_wall_s: List[float] = field(default_factory=list)
    archive_wall_s: List[float] = field(default_factory=list)
    round_wall_s: List[float] = field(default_factory=list)
    #: calibrated ÷ raw seconds of every timed section (1.0 = the host
    #: ran the calibration kernel at its reference speed)
    host_speed: List[float] = field(default_factory=list)
    tasks: int = 0
    sim_session_s: float = 0.0
    attempted: int = 0
    problems: List[str] = field(default_factory=list)
    failed_sessions: int = 0


def run_untraced(runner: Runner, seconds: float) -> Samples:
    """Rounds of sessions + archive round trips until ``seconds`` passed."""
    samples = Samples()
    digests: Dict[str, str] = {}
    last: Optional[Round] = None
    OUT_DIR.mkdir(exist_ok=True)
    started = time.perf_counter()
    clock = Calibrator()
    while not samples.round_wall_s or \
            time.perf_counter() - started < seconds:
        last = runner.round()
        speed = clock.speed()
        first_round = not samples.round_wall_s
        samples.round_wall_s.append(last.wall_s * speed)
        samples.session_wall_s.append(
            statistics.fmean(s.wall_s for s in last.sessions) * speed)
        archive_walls = []
        for session in last.sessions:
            samples.attempted += 1
            problems = [session.error] if session.error else \
                check_result(session.spec, session.result, session.task_map)
            if not session.error:
                samples.tasks += session.task_map.total_tasks
                with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
                    archive, save_s, load_s = archive_round_trip(
                        session.spec, session.result, Path(tmp))
                    archive_walls.append(save_s + load_s)
                    problems += check_archive(session.spec, session.result,
                                              archive)
                    digest = content_digest(session.result, Path(tmp))
                if digests.setdefault(session.spec.label, digest) != digest:
                    problems.append(f"{session.spec.label}: content digest "
                                    "differs from the first iteration's")
                if first_round:
                    samples.sim_session_s += session.result.total_seconds
            samples.failed_sessions += bool(problems)
            samples.problems += problems
        # The archive section holds the checks too; they are not timed,
        # but the kernel passes around them bracket the round trips.
        archive_speed = clock.speed()
        samples.host_speed += [speed, archive_speed]
        if archive_walls:
            samples.archive_wall_s.append(
                statistics.fmean(archive_walls) * archive_speed)
    if runner.workload.stream:
        samples.problems += _check_stream_equals_batch(runner, last)
    return samples


def _check_stream_equals_batch(runner: Runner, last: Round) -> List[str]:
    """The streamed payload is ``arrays_equal`` to a batch reduce.

    One untimed batch session per spec after the loop: every streamed
    iteration already matched the first one's digest, so checking the
    last checks them all.
    """
    problems = []
    for streamed in last.sessions:
        batch = runner.run_inline(streamed.spec, stream=False)
        if streamed.error or batch.error:
            problems.append(f"{streamed.spec.label}: no payload to compare "
                            f"({streamed.error or batch.error})")
        elif not payloads_equal(streamed.payload, batch.payload):
            problems.append(f"{streamed.spec.label}: streamed payload is "
                            "not arrays_equal to the batch reduce")
    return problems


def peak_rss_mb(pooled: bool) -> float:
    """``ru_maxrss`` of this process, plus its largest child when pooled."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if pooled:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024


def summarize(values: List[float]) -> str:
    """``median (q1, q3, min, n)`` for the human-readable report."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else (values[0],) * 3
    return (f"{med:.4f} (q1 {q1:.4f}, q3 {q3:.4f}, min {min(values):.4f}, "
            f"n={len(values)})")
