"""Lightweight process-wide performance counters.

The instrumented hot paths (merge kernels, TBO̅N reductions, pipeline
phases) record *aggregate* values — a handful of dict updates per merge
or reduction, never per node — so the counters are safe to leave on.

Usage::

    from repro.perf import PERF

    PERF.add("merge.nodes_out", tree.node_count())
    with PERF.timer("merge.kernel_seconds"):
        ...kernel...

    PERF.snapshot()   # {"counts": {...}, "seconds": {...}}
    PERF.reset()

Counters are wall-clock and byte/count accounting for the *simulator
itself*; simulated time stays in the timing models.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict

__all__ = [
    "PerfCounters", "PERF",
    "MERGE_CALLS", "MERGE_TREES_IN", "MERGE_KERNEL_SECONDS",
    "MERGE_NODES_OUT", "MERGE_LABEL_GROUPS", "MERGE_LABEL_BYTES_OUT",
    "BUILD_DAEMONS", "BUILD_TRACES", "BUILD_STRUCT_HITS",
    "BUILD_STRUCT_MISSES",
    "TBON_REDUCTIONS", "TBON_BYTES", "TBON_MESSAGES",
    "TBON_REDUCE_WALL_SECONDS",
    "TBON_PARTIAL_MERGES", "TBON_SNAPSHOTS", "TBON_STREAM_WALL_SECONDS",
    "TBON_RETRIES", "TBON_CORRUPT_DETECTED", "FAULTS_INJECTED",
    "KNOWN_COUNTERS", "pipeline_runs", "pipeline_wall_seconds",
    "is_known_counter",
]

# -- counter-name registry ----------------------------------------------------
# This module is the single place raw counter-name strings are spelled;
# every instrumented call site references these constants (enforced by
# the `perf-counter-name` lint rule), so a typo cannot silently split a
# metric into two names.

#: k-way merge kernel invocations (``core/merge.py``)
MERGE_CALLS = "merge.calls"
#: input trees summed over merge calls
MERGE_TREES_IN = "merge.trees_in"
#: accumulated wall seconds inside the merge kernels (timer)
MERGE_KERNEL_SECONDS = "merge.kernel_seconds"
#: nodes in merged output trees
MERGE_NODES_OUT = "merge.nodes_out"
#: distinct label rows in merged outputs
MERGE_LABEL_GROUPS = "merge.label_groups"
#: bytes of label matrix in merged outputs
MERGE_LABEL_BYTES_OUT = "merge.label_bytes_out"
#: daemons built by the forest kernel (``core/forest.py``)
BUILD_DAEMONS = "build.daemons"
#: sampled (slot x thread x sample) elements the forest kernel analysed
BUILD_TRACES = "build.traces"
#: per-daemon trees served from the shared structure cache
BUILD_STRUCT_HITS = "build.struct_cache_hits"
#: tree structures built by the BFS array kernel (cache misses)
BUILD_STRUCT_MISSES = "build.struct_cache_misses"
#: TBO̅N reduction operations (``tbon/network.py``)
TBON_REDUCTIONS = "tbon.reductions"
#: simulated payload bytes moved by reductions
TBON_BYTES = "tbon.bytes"
#: simulated messages moved by reductions
TBON_MESSAGES = "tbon.messages"
#: wall seconds spent simulating reductions (timer)
TBON_REDUCE_WALL_SECONDS = "tbon.reduce_wall_seconds"
#: incremental partial-merge folds on the streaming path
#: (``tbon/streaming.py``)
TBON_PARTIAL_MERGES = "tbon.partial_merges"
#: best-effort front-end snapshots taken mid-stream
TBON_SNAPSHOTS = "tbon.snapshots"
#: wall seconds spent simulating streaming reductions (timer)
TBON_STREAM_WALL_SECONDS = "tbon.stream_wall_seconds"
#: bounded retry attempts spent absorbing injected faults
#: (``tbon/network.py``, ``tbon/streaming.py``)
TBON_RETRIES = "tbon.retries"
#: corrupted payloads caught by the receiver-side checksum
TBON_CORRUPT_DETECTED = "tbon.corrupt_detected"
#: fault events fired by a bound ``FaultPlan`` (``faults/inject.py``)
FAULTS_INJECTED = "faults.injected"

def _collect_counter_constants() -> frozenset:
    """Every fixed counter name, derived from this module's constants.

    Any public ``UPPER_CASE`` string constant containing a ``.`` is a
    counter name — so adding a counter is exactly one edit (the
    constant), and the registry, the ``perf-counter-name`` lint rule,
    and :func:`is_known_counter` all pick it up automatically.
    """
    return frozenset(
        value for name, value in globals().items()
        if name.isupper() and not name.startswith("_")
        and isinstance(value, str) and "." in value)


#: every fixed counter name — the lint registry (derived, not spelled
#: out a second time)
KNOWN_COUNTERS = _collect_counter_constants()

_PIPELINE_PREFIX = "pipeline."


def pipeline_runs(phase: str) -> str:
    """Counter name for one pipeline phase's run count."""
    return f"{_PIPELINE_PREFIX}{phase}.runs"


def pipeline_wall_seconds(phase: str) -> str:
    """Timer name for one pipeline phase's wall seconds."""
    return f"{_PIPELINE_PREFIX}{phase}.wall_seconds"


def is_known_counter(name: str) -> bool:
    """True for fixed registry names and well-formed pipeline names."""
    if name in KNOWN_COUNTERS:
        return True
    return (name.startswith(_PIPELINE_PREFIX)
            and name.endswith((".runs", ".wall_seconds")))


class PerfCounters:
    """A named bag of monotonic counters and accumulated timers."""

    __slots__ = ("counts", "seconds")

    def __init__(self) -> None:
        self.counts: Dict[str, float] = {}
        self.seconds: Dict[str, float] = {}

    def add(self, name: str, value: float = 1) -> None:
        """Accumulate ``value`` into counter ``name``."""
        self.counts[name] = self.counts.get(name, 0) + value

    def add_seconds(self, name: str, seconds: float) -> None:
        """Accumulate already-measured wall seconds into timer ``name``."""
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds

    @contextmanager
    def timer(self, name: str):
        """Context manager accumulating wall-clock seconds into ``name``."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.add_seconds(name, time.perf_counter() - start)

    def get(self, name: str) -> float:
        """Current value of a counter (0 if never touched)."""
        return self.counts.get(name, 0)

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """A JSON-ready copy of all counters and timers."""
        return {"counts": dict(self.counts),
                "seconds": dict(self.seconds)}

    def reset(self) -> None:
        """Zero everything (benchmarks isolate runs with this)."""
        self.counts.clear()
        self.seconds.clear()

    def __repr__(self) -> str:
        return (f"<PerfCounters counts={len(self.counts)} "
                f"timers={len(self.seconds)}>")


#: The process-wide instance the instrumented subsystems write to.
PERF = PerfCounters()
