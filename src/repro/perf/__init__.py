"""Performance measurement subsystem.

* :mod:`repro.perf.counters` — lightweight process-wide counters and
  timers threaded through the merge kernels, the TBO̅N network, and the
  session pipeline phases.
* :mod:`repro.perf.reference` — the retained pre-vectorization merge
  kernels, kept as the equivalence/benchmark baseline.
* :mod:`repro.perf.bench` — the ``stat-repro bench {merge,build,stream}``
  harness: kernel benchmarks at fig07 full scale (and the million-task
  sweep points), written to ``BENCH_<kind>.json`` so the perf
  trajectory is tracked across PRs.
"""

from repro.perf.counters import PERF, PerfCounters

__all__ = ["PERF", "PerfCounters"]
