"""repro — reproduction of "Lessons Learned at 208K" (SC 2008).

A production-style Python library reimplementing the Stack Trace Analysis
Tool (STAT) and every substrate its SC'08 scalability study depends on:
an MRNet-like tree-based overlay network, LaunchMON-style daemon launching,
the scalable binary relocation service (SBRS), simulated Atlas and BG/L
platforms, and a simulated MPI runtime hosting the paper's ring-test
application with its injected hang.

Quickstart::

    from repro.core.frontend import STATFrontEnd
    from repro.apps.ring import RingApp
    from repro.machine.bgl import BGLMachine

    machine = BGLMachine.with_io_nodes(16, mode="co")   # 1,024 tasks
    fe = STATFrontEnd(machine)
    result = fe.run(RingApp.with_hang(machine.total_tasks))
    for cls in result.classes:
        print(cls.label())

Sessions are also declarative: a :class:`repro.SessionSpec` captures the
whole configuration as a JSON-round-trippable value, and a
:class:`repro.ScenarioSuite` runs many of them concurrently::

    from repro import ScenarioSuite, SessionSpec

    specs = [SessionSpec(machine="bgl", daemons=d) for d in (8, 16, 32)]
    report = ScenarioSuite(specs).run()
    print(report.table())

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
figure-by-figure reproduction record.
"""

from repro.api.pipeline import SessionPipeline
from repro.api.spec import SessionSpec
from repro.api.suite import ScenarioSuite
from repro.apps.ring import RingApp
from repro.core.equivalence import EquivalenceClass, equivalence_classes
from repro.core.frontend import STATFrontEnd, STATResult
from repro.core.frames import Frame, StackTrace
from repro.core.merge import DenseLabelScheme, HierarchicalLabelScheme
from repro.core.taskset import DaemonLayout, RankRemapper, TaskMap
from repro.core.treearrays import TreeArrays
from repro.faults import DegradationReport, FaultPlan, RetryPolicy
from repro.perf import PERF

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "SessionSpec",
    "SessionPipeline",
    "ScenarioSuite",
    "STATFrontEnd",
    "STATResult",
    "RingApp",
    "Frame",
    "StackTrace",
    "DaemonLayout",
    "TaskMap",
    "RankRemapper",
    "DenseLabelScheme",
    "HierarchicalLabelScheme",
    "EquivalenceClass",
    "equivalence_classes",
    "TreeArrays",
    "FaultPlan",
    "RetryPolicy",
    "DegradationReport",
    "PERF",
]
