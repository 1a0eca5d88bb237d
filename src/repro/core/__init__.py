"""STAT core: the paper's primary contribution.

Subpackages of :mod:`repro` implement the substrates (TBO̅N, launchers, file
systems, MPI runtime, machines); this package implements the Stack Trace
Analysis Tool itself:

* :mod:`repro.core.taskset` — the two edge-label row formats (Section V):
  original job-width dense rows and optimized per-daemon chunk rows over
  a :class:`DaemonLayout`, with the front-end :class:`RankRemapper` that
  turns the latter into the former through the gathered :class:`TaskMap`.
* :mod:`repro.core.ranklist` — compressed rank lists for edge labels
  (``"1022:[0,3-1023]"`` as in Figure 1).
* :mod:`repro.core.frames` / :mod:`repro.core.treearrays` — stack frames
  and the 2D trace-space / 3D trace-space-time call graph prefix trees.
* :mod:`repro.core.merge` — the STAT filter kernel that merges trees.
* :mod:`repro.core.equivalence` — process equivalence classes and
  representative-task selection.
* :mod:`repro.core.sampling` / :mod:`repro.core.forest` — the
  StackWalker-style sampler, its cost model, and the one build kernel
  that turns every daemon's walks into locally merged trees.
* :mod:`repro.core.frontend` — the front end orchestrating launch →
  attach → sample → merge → report.
"""

from repro.core.codec import pack_tree, unpack_tree
from repro.core.equivalence import EquivalenceClass, equivalence_classes, \
    triage_classes
from repro.core.frames import Frame, StackTrace
from repro.core.queries import TreeQuery
from repro.core.ranklist import format_rank_list, parse_rank_list
from repro.core.session import load_session, save_session
from repro.core.taskset import DaemonLayout, RankRemapper, TaskMap
from repro.core.treearrays import TreeArrays

__all__ = [
    "DaemonLayout",
    "TaskMap",
    "RankRemapper",
    "Frame",
    "StackTrace",
    "TreeArrays",
    "EquivalenceClass",
    "equivalence_classes",
    "triage_classes",
    "format_rank_list",
    "parse_rank_list",
    "pack_tree",
    "unpack_tree",
    "TreeQuery",
    "save_session",
    "load_session",
]
