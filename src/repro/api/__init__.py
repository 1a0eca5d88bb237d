"""The canonical session API: declarative specs, composable phases,
batch scenario execution.

Three layers, importable from this package:

* :class:`SessionSpec` — a frozen, JSON-round-trippable description of
  one STAT session (machine, topology, scheme, launcher, staging, SBRS,
  sampling, mapping, dead daemons, seed, workload).
* :class:`SessionPipeline` — the launch → map_gather → stage → sample →
  merge → finalize phase chain over a shared :class:`SessionContext`,
  with :class:`PhaseObserver` hooks (progress, wall-clock timing).
  ``STATFrontEnd.attach_and_analyze`` is now a thin wrapper over this.
* :class:`ScenarioSuite` — runs many specs concurrently
  (``multiprocessing`` under ``concurrent.futures``) and returns per-spec
  results plus a comparison table.

Quickstart::

    from repro.api import ScenarioSuite, SessionSpec

    specs = [SessionSpec(machine="bgl", daemons=d) for d in (4, 8, 16, 32)]
    report = ScenarioSuite(specs).run()
    print(report.table())
"""

from repro.api.pipeline import (
    PHASES,
    PhaseObserver,
    PipelineError,
    ProgressObserver,
    SessionContext,
    SessionPipeline,
    TimingObserver,
)
from repro.api.spec import (
    PHASE_NAMES,
    SessionSpec,
    SpecValidationError,
)
from repro.api.suite import (
    ScenarioOutcome,
    ScenarioSuite,
    SuiteReport,
    execute_spec,
)
from repro.api.workloads import (
    WorkloadError,
    known_workloads,
    register_workload,
    resolve_workload,
)

__all__ = [
    "SessionSpec",
    "SpecValidationError",
    "PHASE_NAMES",
    "SessionContext",
    "SessionPipeline",
    "PipelineError",
    "PhaseObserver",
    "TimingObserver",
    "ProgressObserver",
    "PHASES",
    "ScenarioSuite",
    "ScenarioOutcome",
    "SuiteReport",
    "execute_spec",
    "WorkloadError",
    "register_workload",
    "resolve_workload",
    "known_workloads",
]
