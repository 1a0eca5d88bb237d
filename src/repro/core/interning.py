"""Process-wide interning: frames and call paths become dense integer ids.

The merge/insert hot path is dominated by dictionary operations keyed by
:class:`~repro.core.frames.Frame`.  As a frozen dataclass, every lookup
re-hashed two strings and re-compared tuples; at full-machine emulation
scale (millions of stack walks) that hashing alone was ~30% of wall
clock.  Interning fixes the *data*, not the loop:

* every distinct ``(function, module)`` pair maps to exactly one
  :class:`Frame` object, registered here with a **dense integer id**;
* equal frames are identical objects, so dict hits compare by pointer;
* hashes are computed once at intern time and cached on the frame;
* the dense ids let the array-backed tree kernels
  (:mod:`repro.core.treearrays`) represent structure as ``int64`` arrays
  and replace per-node recursion with vectorized merges.

The table is append-only and process-wide (``FRAMES``).  Ids are *not*
stable across processes: anything that serializes frame ids (pickled
:class:`~repro.core.treearrays.TreeArrays`, the wire codec) must ship
the ``(function, module)`` pairs and re-intern on load.

``PATHS`` takes the same step once more: every root-anchored frame
sequence — a tree node's identity — is one **path id**, so the
structure of a tree is a set of integers and merging or building trees
is set algebra (one ``np.unique``) instead of a level-by-level
rediscovery of which nodes share a path.  Path ids are process-local in
the same way and are never serialized at all: no pickle, archive, wire
codec or size model carries them; a tree that arrives without them
re-derives them from its ``(frame_ids, parents)`` arrays.
"""

from __future__ import annotations

# repro-lint: hot-path — intern lookups must stay O(1), no per-node scans.

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.lint.contracts import contract

__all__ = ["FrameInterner", "FRAMES", "PathInterner", "PATHS"]


class FrameInterner:
    """Append-only intern table mapping frame keys to dense int ids.

    The table is deliberately generic: it stores caller-provided objects
    under ``(function, module)`` string keys so that :mod:`repro.core.frames`
    can register its :class:`Frame` instances without a circular import.
    """

    __slots__ = ("_ids", "_frames", "_sizes", "_sizes_array")

    def __init__(self) -> None:
        self._ids: Dict[Tuple[str, str], int] = {}
        self._frames: List[object] = []
        self._sizes: List[int] = []
        self._sizes_array: Optional[np.ndarray] = None

    def get(self, function: str, module: str):
        """The interned frame for a key, or None."""
        idx = self._ids.get((function, module))
        return None if idx is None else self._frames[idx]

    def register(self, function: str, module: str, frame: object,
                 serialized_bytes: int) -> int:
        """Intern ``frame`` under its key; returns the new dense id.

        The caller (``Frame.__new__``) guarantees the key is not yet
        present.  ``serialized_bytes`` is cached so tree-level wire-size
        sums can be computed with one vectorized gather.
        """
        fid = len(self._frames)
        self._ids[(function, module)] = fid
        self._frames.append(frame)
        self._sizes.append(serialized_bytes)
        self._sizes_array = None  # grown: invalidate the cached array
        return fid

    def frame_of(self, frame_id: int):
        """The frame registered under a dense id."""
        return self._frames[frame_id]

    def frames_of(self, frame_ids) -> List[object]:
        """Batch :meth:`frame_of`."""
        frames = self._frames
        return [frames[int(i)] for i in frame_ids]

    def serialized_bytes_of(self, frame_ids: np.ndarray) -> int:
        """Sum of per-frame wire sizes for an id array (vectorized)."""
        if len(frame_ids) == 0:
            return 0
        sizes = self._sizes_array
        if sizes is None or sizes.size != len(self._sizes):
            sizes = self._sizes_array = np.asarray(self._sizes,
                                                   dtype=np.int64)
        return int(sizes[np.asarray(frame_ids, dtype=np.int64)].sum())

    def __len__(self) -> int:
        return len(self._frames)

    def __repr__(self) -> str:
        return f"<FrameInterner frames={len(self._frames)}>"


#: The process-wide intern table used by :class:`repro.core.frames.Frame`.
FRAMES = FrameInterner()


class PathInterner:
    """Append-only ``(parent path id, frame id) -> path id`` table.

    The root is ``-1``.  ``parent_of`` / ``frame_of`` / ``level_of`` are
    column arrays over the ids handed out so far, so kernels gather
    through them instead of looping (fetch them per call: growth
    reallocates).  Equal ids mean equal paths, and equal paths share a
    level.
    """

    __slots__ = ("_ids", "_cols", "_size")

    def __init__(self) -> None:
        self._ids: Dict[Tuple[int, int], int] = {}
        self._cols = np.empty((3, 256), dtype=np.int64)
        self._size = 0

    def intern(self, parent: int, frame_id: int) -> int:
        """The id of the path ``parent`` extended by ``frame_id``."""
        pid = self._ids.get((parent, frame_id))
        if pid is None:
            pid = self._ids[(parent, frame_id)] = self._size
            cols = self._cols
            if pid == cols.shape[1]:
                cols = self._cols = np.concatenate(
                    (cols, np.empty_like(cols)), axis=1)
            cols[:, pid] = (parent, frame_id,
                            0 if parent < 0 else cols[2, parent] + 1)
            self._size = pid + 1
        return pid

    @contract("frame_ids:(n):int64, parents:(n):int64 -> ids:(n):int64")
    def ids_of(self, frame_ids: np.ndarray,
               parents: np.ndarray) -> np.ndarray:
        """Path ids of nodes given as ``(frame id, parent index)`` arrays.

        Parents must precede their children (BFS order, or a trace's
        frame chain with ``parents = arange(-1, n - 1)``).  The one
        per-node loop of the path-id scheme: it runs where a trace is
        first registered and where a tree arrives without ids (object
        conversion, unpickling), never inside a merge or a build.
        """
        ids: List[int] = []
        for frame_id, parent in zip(frame_ids.tolist(), parents.tolist()):  # repro-lint: disable=hot-path-loop (registration boundary: once per distinct trace / per tree arriving without ids)
            ids.append(self.intern(ids[parent] if parent >= 0 else -1,
                                   frame_id))
        return np.asarray(ids, dtype=np.int64)

    @property
    def parent_of(self) -> np.ndarray:
        """Parent path id per path id (``-1`` below the root)."""
        return self._cols[0, :self._size]

    @property
    def frame_of(self) -> np.ndarray:
        """Last frame's id per path id."""
        return self._cols[1, :self._size]

    @property
    def level_of(self) -> np.ndarray:
        """Tree level (path length - 1) per path id."""
        return self._cols[2, :self._size]

    def __len__(self) -> int:
        return self._size

    def __repr__(self) -> str:
        return f"<PathInterner paths={self._size}>"


#: The process-wide path table shared by every tree kernel.
PATHS = PathInterner()
