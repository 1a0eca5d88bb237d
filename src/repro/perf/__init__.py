"""Performance counters.

:mod:`repro.perf.counters` holds lightweight process-wide counters and
timers threaded through the merge kernels, the TBO̅N network, and the
session pipeline phases.  The kernel benchmarks that read them live
beside their baselines, in ``benchmarks/kernels/run.py``.
"""

from repro.perf.counters import PERF, PerfCounters

__all__ = ["PERF", "PerfCounters"]
