"""Ablation A3 — task-set representation micro-costs (real wall time).

The per-operation costs behind Section V's macro behaviour, measured on
this host over the packed label rows the tool runs on: the bitwise OR
of two job-width rows versus the concatenation of subtree chunk rows
and the front-end remap, plus each form's wire size, across job widths
from 1K to 1M tasks ("a million cores would require a 1 megabit bit
vector per edge label").
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from repro.core.taskset import (
    CHUNK_HEADER_BITS,
    DaemonLayout,
    RankRemapper,
    TaskMap,
    _pack_indices,
)
from repro.experiments.common import ExperimentResult, Row

__all__ = ["run", "WIDTHS"]

WIDTHS: Sequence[int] = (1_024, 16_384, 131_072, 212_992, 1_048_576)
QUICK_WIDTHS: Sequence[int] = (1_024, 131_072)

_REPEATS = 20


def _wall(fn) -> float:
    """Median-of-repeats wall time in microseconds."""
    samples = []
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples) * 1e6)


def _wire_bytes(layout: DaemonLayout) -> int:
    """Wire size of one hierarchical label over ``layout``: its chunk
    bits plus one header per chunk."""
    return (layout.total_tasks + CHUNK_HEADER_BITS * len(layout) + 7) // 8


def run(quick: bool = False,
        widths: Optional[Sequence[int]] = None) -> ExperimentResult:
    """Measure the representation micro-costs on this host."""
    widths = widths or (QUICK_WIDTHS if quick else WIDTHS)
    result = ExperimentResult(
        figure="Ablation A3",
        title="task-set representation micro-costs (this host)",
        xlabel="total tasks (vector width)",
        ylabel="microseconds per operation",
    )
    tasks_per_daemon = 128
    for width in widths:
        daemons = width // tasks_per_daemon
        rng = np.random.default_rng(width)
        a = _pack_indices(rng.choice(width, size=width // 3, replace=False),
                          width)
        b = _pack_indices(rng.choice(width, size=width // 3, replace=False),
                          width)
        result.rows.append(Row(
            "dense union", width, _wall(lambda: np.bitwise_or(a, b)),
            unit="us"))
        result.rows.append(Row(
            "dense serialize (bytes)", width, float(a.nbytes), unit="B"))

        chunks = [_pack_indices(np.arange(0, tasks_per_daemon, 3),
                                tasks_per_daemon)
                  for _ in range(min(daemons, 64))]
        result.rows.append(Row(
            "hierarchical concat (64 chunks)", width,
            _wall(lambda: np.concatenate(chunks)), unit="us"))

        task_map = TaskMap.cyclic(daemons, tasks_per_daemon)
        layout = DaemonLayout.from_task_map(task_map)
        # 128-task chunks are byte-aligned: every slot set is all ones
        full = np.full((1, layout.nbytes), 0xFF, dtype=np.uint8)
        remapper = RankRemapper(layout, task_map)
        result.rows.append(Row(
            "remap (full-width label)", width,
            _wall(lambda: remapper.remap_rows(full)), unit="us"))
        result.rows.append(Row(
            "hierarchical serialize (bytes)", width,
            float(_wire_bytes(layout)), unit="B"))
        result.rows.append(Row(
            "hierarchical daemon edge (bytes)", width,
            float(_wire_bytes(DaemonLayout.for_daemon(0, tasks_per_daemon))),
            unit="B"))
    result.notes.append(
        "dense wire size is width bits at *every* tree level; "
        "hierarchical is subtree bits + 64-bit chunk headers, so a "
        "full-width hierarchical label outweighs a dense one while a "
        "daemon-level edge stays one small chunk")
    return result
