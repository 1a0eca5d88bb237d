"""Correctness checks run on every measured session.

Each function returns a list of failure messages (empty = passed); a
session with any message counts as failed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import List

import numpy as np

from repro.api.spec import SessionSpec
from repro.core.frontend import STATResult
from repro.core.session import SessionArchive
from repro.core.taskset import TaskMap

__all__ = ["check_result", "check_archive", "content_digest",
           "payloads_equal"]


def check_result(spec: SessionSpec, result: STATResult,
                 task_map: TaskMap) -> List[str]:
    """Classes partition the surviving ranks; ring_hang has its shape."""
    problems = []
    missing = set(result.merge.missing_daemons)
    surviving = [task_map.ranks_of(d) for d in task_map.daemons()
                 if d not in missing]
    expected = np.sort(np.concatenate(surviving)) if surviving \
        else np.empty(0, dtype=np.int64)
    members = [np.asarray(c.ranks, dtype=np.int64) for c in result.classes]
    got = np.sort(np.concatenate(members)) if members \
        else np.empty(0, dtype=np.int64)
    if not np.array_equal(got, expected):
        problems.append(
            f"{spec.label}: classes cover {got.size} ranks, the "
            f"{len(surviving)} surviving daemons hold {expected.size} "
            "(not an exact partition)")
    if spec.workload == "ring_hang" and not missing:
        tasks = expected.size
        shape = sorted((c.size, c.ranks[0]) for c in result.classes)
        if shape != [(1, 1), (1, 2), (tasks - 2, 0)]:
            problems.append(
                f"{spec.label}: ring_hang classes are {shape[:5]}, "
                f"expected ranks 1 and 2 alone and {tasks - 2} others")
    return problems


def check_archive(spec: SessionSpec, result: STATResult,
                  archive: SessionArchive) -> List[str]:
    """``load_session`` hands back the classes that were saved."""
    saved = [(c.paths, c.ranks) for c in result.classes]
    loaded = [(c.paths, c.ranks) for c in archive.classes]
    if saved != loaded:
        return [f"{spec.label}: reloaded archive has {len(loaded)} "
                f"classes that differ from the {len(saved)} saved"]
    return []


def payloads_equal(a, b) -> bool:
    """Two ``DaemonTrees`` payloads are ``arrays_equal`` tree by tree."""
    return a.tree_2d.arrays_equal(b.tree_2d) and \
        a.tree_3d.arrays_equal(b.tree_3d)


def content_digest(result: STATResult, archive_dir: Path) -> str:
    """Digest of everything a session's answer consists of.

    The finalized trees are hashed in their archived encoding (the
    ``.stpt`` files ``save_session`` just wrote), so the digest costs no
    second serialization.
    """
    h = hashlib.sha256()
    for name in ("tree_2d.stpt", "tree_3d.stpt"):
        h.update((archive_dir / name).read_bytes())
    for cls in result.classes:
        h.update(np.asarray(cls.ranks, dtype=np.int64).tobytes())
        h.update(repr(cls.paths).encode())
    h.update(json.dumps(
        {"timings": {k: v.hex() for k, v in result.timings.items()},
         "degradation": None if result.degradation is None
         else result.degradation.to_dict()},
        sort_keys=True).encode())
    return h.hexdigest()
