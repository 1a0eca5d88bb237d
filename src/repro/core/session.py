"""Session persistence: save and reload a STAT analysis.

Real debugging sessions outlive the tool run — the paper's workflow hands
the equivalence classes to a *separate* heavyweight debugger, so the
merged trees must survive on disk.  A saved session directory contains:

* ``tree_2d.stpt`` / ``tree_3d.stpt`` — the finalized trees in the binary
  codec of :mod:`repro.core.codec` (nodes in preorder);
* ``session.json`` — machine description, phase timings, class summary;
* ``tree_3d.dot`` — ready-to-render Graphviz output.

``load_session`` restores the trees (as ``TreeArrays``, like a live
session's) and re-derives the classes, so the triage queries
(:mod:`repro.core.queries`) work on archived sessions as on live ones.
Re-deriving is an array pass over the 2D tree (milliseconds at 208K
tasks), which is why the archive stores only the class *summary* and no
class file that could disagree with the trees.

Format history:

* **v1** — machine name, timings, class summary, missing daemons.
* **v2** (current) — v1 plus the declarative
  :class:`~repro.api.spec.SessionSpec` under ``"spec"`` (when the session
  was run from one), making an archive fully re-runnable:
  ``SessionSpec.from_dict(archive.meta["spec"]).run()``.  ``load_session``
  still reads v1 directories.  v2 archives additionally carry the
  session's :class:`~repro.faults.plan.DegradationReport` under
  ``"degradation"`` (absent in older saves) so coverage and
  fault-survival accounting survive with the trees.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, TYPE_CHECKING, Union

from repro.core.codec import pack_tree, unpack_tree
from repro.core.equivalence import EquivalenceClass, triage_classes
from repro.core.frontend import STATResult
from repro.core.treearrays import TreeArrays
from repro.core.visualize import to_dot

if TYPE_CHECKING:  # imported lazily at runtime: core.__init__ loads this
    from repro.api.spec import SessionSpec  # module before repro.api exists

__all__ = ["save_session", "load_session", "SessionArchive"]

_FORMAT_VERSION = 2

#: versions ``load_session`` understands
_READABLE_VERSIONS = (1, 2)


class SessionArchive:
    """A reloaded session: trees, timings, and re-derived classes."""

    def __init__(self, tree_2d: TreeArrays, tree_3d: TreeArrays,
                 meta: Dict) -> None:
        self.tree_2d = tree_2d
        self.tree_3d = tree_3d
        self.meta = meta
        self.classes: List[EquivalenceClass] = triage_classes(tree_2d)

    @property
    def timings(self) -> Dict[str, float]:
        """Phase timings recorded at save time."""
        return dict(self.meta.get("timings", {}))

    @property
    def format_version(self) -> int:
        """The on-disk format this archive was read from."""
        return int(self.meta.get("format_version", 1))

    @property
    def spec(self) -> Optional[SessionSpec]:
        """The declarative spec the session ran from.

        ``None`` when the archive was saved without one (all v1 archives,
        and v2 saves of non-spec-driven sessions).  A *present but
        unparsable* spec — hand-edited, or written by a newer build —
        raises :class:`~repro.api.spec.SpecValidationError` rather than
        silently reporting the session as spec-less.
        """
        from repro.api.spec import SessionSpec

        data = self.meta.get("spec")
        if data is None:
            return None
        return SessionSpec.from_dict(data)

    @property
    def degradation(self):
        """The saved :class:`~repro.faults.plan.DegradationReport`.

        ``None`` for v1 archives and v2 saves from builds that predate
        degradation accounting.
        """
        from repro.faults.plan import DegradationReport

        data = self.meta.get("degradation")
        if data is None:
            return None
        return DegradationReport.from_dict(data)

    def __repr__(self) -> str:
        return (f"<SessionArchive machine={self.meta.get('machine')!r} "
                f"classes={len(self.classes)}>")


def save_session(result: STATResult, directory: Union[str, Path],
                 machine_name: str = "",
                 spec: Optional[SessionSpec] = None) -> Path:
    """Persist a finished session; returns the directory path.

    ``spec`` — when the session was run from a declarative
    :class:`~repro.api.spec.SessionSpec` — is embedded in ``session.json``
    so the archive can be replayed exactly.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    (directory / "tree_2d.stpt").write_bytes(pack_tree(result.tree_2d))
    (directory / "tree_3d.stpt").write_bytes(pack_tree(result.tree_3d))
    (directory / "tree_3d.dot").write_text(
        to_dot(result.tree_3d, graph_name="stat_3d_tree"))

    if spec is not None and not machine_name:
        machine_name = spec.build_machine().name
    meta = {
        "format_version": _FORMAT_VERSION,
        "machine": machine_name,
        "timings": result.timings,
        "classes": [
            {"label": cls.label(), "size": cls.size,
             "representative": cls.representative}
            for cls in result.classes
        ],
        "missing_daemons": list(result.merge.missing_daemons),
        "spec": None if spec is None else spec.to_dict(),
        "degradation": (None if result.degradation is None
                        else result.degradation.to_dict()),
    }
    (directory / "session.json").write_text(json.dumps(meta, indent=2))
    return directory


def load_session(directory: Union[str, Path]) -> SessionArchive:
    """Reload a saved session directory (formats v1 and v2)."""
    directory = Path(directory)
    meta_path = directory / "session.json"
    if not meta_path.exists():
        raise FileNotFoundError(f"no session.json in {directory}")
    meta = json.loads(meta_path.read_text())
    version = meta.get("format_version")
    if version not in _READABLE_VERSIONS:
        raise ValueError(
            f"unsupported session format version {version} "
            f"(readable: {_READABLE_VERSIONS})")
    tree_2d = unpack_tree((directory / "tree_2d.stpt").read_bytes())
    tree_3d = unpack_tree((directory / "tree_3d.stpt").read_bytes())
    return SessionArchive(tree_2d, tree_3d, meta)
