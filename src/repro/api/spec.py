"""Declarative session specifications.

A :class:`SessionSpec` captures *everything* one STAT session needs —
machine, topology shape, label scheme, launcher, staging mount, SBRS,
sampling knobs, rank mapping, dead daemons, seed, and workload id — as a
frozen dataclass with a loss-free JSON round trip.  Scenarios become
files, not code: the CLI (``stat-repro run --spec file.json``), the batch
runner (:class:`~repro.api.suite.ScenarioSuite`), and the session archive
(``session.json`` format v2) all speak this one type.

The spec is purely declarative; ``build_*`` methods resolve it into the
live objects the pipeline consumes.  Two sessions built from equal specs
are deterministic replicas (same seed, same simulated timings).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.api.pipeline import PHASES
from repro.api.workloads import resolve_workload
from repro.core.merge import (
    DenseLabelScheme,
    HierarchicalLabelScheme,
    LabelScheme,
)
from repro.core.sampling import SamplingConfig
from repro.faults.plan import FaultPlan, FaultPlanError
from repro.launch.base import Launcher
from repro.launch.ciod import BglSystemLauncher
from repro.launch.launchmon import LaunchMonLauncher
from repro.launch.rsh import SerialRshLauncher
from repro.machine.atlas import AtlasMachine
from repro.machine.base import MachineModel
from repro.machine.bgl import BGLMachine
from repro.statbench.generator import StateProvider
from repro.tbon.spec import parse_shape
from repro.tbon.topology import Topology

__all__ = ["SessionSpec", "SpecValidationError", "SPEC_VERSION",
           "PHASE_NAMES"]

#: Version stamp written into ``to_dict()`` output.
SPEC_VERSION = 1

#: Pipeline phase names in execution order, derived from the pipeline's
#: own phase objects so the two can never drift.
PHASE_NAMES: Tuple[str, ...] = tuple(p.name for p in PHASES)

_MACHINES = ("atlas", "bgl")
_SCHEMES = ("hierarchical", "dense")
_LAUNCHERS = ("auto", "launchmon", "rsh", "bgl-system", "bgl-system-prepatch")
_STAGINGS = ("nfs", "lustre", "ramdisk", "localdisk")
#: no "shuffled": it needs an rng, and a spec has none to hand a launcher
_MAPPINGS = ("block", "cyclic")


class SpecValidationError(ValueError):
    """A SessionSpec field (or serialized form) is invalid."""


@dataclass(frozen=True)
class SessionSpec:
    """One declarative STAT session.

    Attributes
    ----------
    machine:
        ``"atlas"`` or ``"bgl"``.
    daemons:
        Tool-daemon count (Atlas compute nodes / BG/L I/O nodes).
    mode:
        BG/L execution mode, ``"co"`` or ``"vn"`` (ignored on Atlas).
    machine_options:
        Extra keyword arguments for the machine factory (e.g. Atlas
        ``libraries_on_nfs``).
    topology:
        :func:`repro.tbon.spec.parse_shape` string (``"flat"``,
        ``"bgl-2deep"``, ``"8x8"``, ...); ``None`` = the platform default.
    scheme:
        ``"hierarchical"`` or ``"dense"`` edge labels.
    launcher:
        ``"auto"`` (platform default), ``"launchmon"``, ``"rsh"``,
        ``"bgl-system"``, or ``"bgl-system-prepatch"``.
    staging:
        Mount the binaries start on.
    use_sbrs:
        Relocate binaries to RAM disk before sampling (Section VI-B).
    sampling:
        Full :class:`~repro.core.sampling.SamplingConfig`; ``None`` derives
        one from ``num_samples``/``use_sbrs`` exactly as
        ``attach_and_analyze`` does.
    num_samples:
        Shortcut when ``sampling`` is ``None``.
    mapping:
        Resource-manager rank placement (``"cyclic"`` exercises the remap).
    dead_daemons:
        Daemon ids that died after launch (degraded merge).
    seed:
        Master seed for jitter, workload generation, and emulation.
    workload:
        Workload id resolved by :mod:`repro.api.workloads`.
    stop_after:
        Run only the phases up to (and including) this one; ``None`` runs
        the full session.  Partial sessions yield timings but no
        :class:`~repro.core.frontend.STATResult`.
    name:
        Display label in suite tables (defaults to a derived id).
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan` — a declarative,
        seeded fault-injection campaign (crashes, stalls, link
        drop/corruption, stragglers, pool-worker kills) replayed
        bit-identically from its own seed.  ``None`` (and the empty
        plan) leaves every result bit-identical to a fault-free run.
    """

    machine: str
    daemons: int
    mode: str = "co"
    machine_options: Optional[Dict[str, Any]] = None
    topology: Optional[str] = None
    scheme: str = "hierarchical"
    launcher: str = "auto"
    staging: str = "nfs"
    use_sbrs: bool = False
    sampling: Optional[SamplingConfig] = None
    num_samples: int = 10
    mapping: str = "cyclic"
    dead_daemons: Tuple[int, ...] = ()
    seed: int = 208_000
    workload: str = "ring_hang"
    stop_after: Optional[str] = None
    name: Optional[str] = None
    faults: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.machine not in _MACHINES:
            raise SpecValidationError(
                f"machine must be one of {_MACHINES}, got {self.machine!r}")
        if not isinstance(self.daemons, int) or self.daemons < 1:
            raise SpecValidationError(
                f"daemons must be a positive int, got {self.daemons!r}")
        if self.mode not in ("co", "vn"):
            raise SpecValidationError(f"mode must be 'co'/'vn', "
                                      f"got {self.mode!r}")
        if self.scheme not in _SCHEMES:
            raise SpecValidationError(
                f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        if self.launcher not in _LAUNCHERS:
            raise SpecValidationError(
                f"launcher must be one of {_LAUNCHERS}, "
                f"got {self.launcher!r}")
        if self.staging not in _STAGINGS:
            raise SpecValidationError(
                f"staging must be one of {_STAGINGS}, got {self.staging!r}")
        if self.mapping not in _MAPPINGS:
            raise SpecValidationError(
                f"mapping must be one of {_MAPPINGS}, got {self.mapping!r}")
        if self.stop_after is not None and self.stop_after not in PHASE_NAMES:
            raise SpecValidationError(
                f"stop_after must be one of {PHASE_NAMES}, "
                f"got {self.stop_after!r}")
        # Normalize dead_daemons to a sorted tuple of ints.
        dead = tuple(sorted(int(d) for d in self.dead_daemons))
        object.__setattr__(self, "dead_daemons", dead)
        if self.sampling is not None and \
                not isinstance(self.sampling, SamplingConfig):
            raise SpecValidationError(
                "sampling must be a SamplingConfig or None")
        if self.faults is not None and \
                not isinstance(self.faults, FaultPlan):
            raise SpecValidationError(
                "faults must be a FaultPlan or None")

    # -- identity ----------------------------------------------------------
    @property
    def label(self) -> str:
        """Display name: explicit ``name`` or a derived compact id."""
        if self.name:
            return self.name
        parts = [self.machine, f"{self.daemons}d"]
        if self.machine == "bgl":
            parts.append(self.mode)
        parts.append(self.workload)
        return "-".join(parts)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON-types dict; inverse of :meth:`from_dict`."""
        out: Dict[str, Any] = {"spec_version": SPEC_VERSION}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "sampling" and value is not None:
                value = dataclasses.asdict(value)
            elif f.name == "dead_daemons":
                value = list(value)
            elif f.name == "machine_options" and value is not None:
                value = dict(value)
            elif f.name == "faults" and value is not None:
                value = value.to_dict()
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SessionSpec":
        """Rebuild a spec from :meth:`to_dict` output (strict on keys)."""
        if not isinstance(data, dict):
            raise SpecValidationError(
                f"spec must be a JSON object, got {type(data).__name__}")
        data = dict(data)
        version = data.pop("spec_version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise SpecValidationError(
                f"unsupported spec_version {version!r} "
                f"(this build reads {SPEC_VERSION})")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise SpecValidationError(
                f"unknown spec fields: {sorted(unknown)}")
        if data.get("sampling") is not None:
            sampling = data["sampling"]
            if not isinstance(sampling, dict):
                raise SpecValidationError("sampling must be an object")
            cfg_fields = {f.name for f in fields(SamplingConfig)}
            bad = set(sampling) - cfg_fields
            if bad:
                raise SpecValidationError(
                    f"unknown sampling fields: {sorted(bad)}")
            data["sampling"] = SamplingConfig(**sampling)
        if data.get("dead_daemons") is not None:
            data["dead_daemons"] = tuple(data["dead_daemons"])
        if data.get("faults") is not None:
            try:
                data["faults"] = FaultPlan.from_dict(data["faults"])
            except FaultPlanError as err:
                raise SpecValidationError(
                    f"invalid faults plan: {err}") from err
        try:
            return cls(**data)
        except TypeError as err:
            raise SpecValidationError(str(err)) from err

    def to_json(self, indent: int = 2) -> str:
        """Serialize to a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SessionSpec":
        """Parse a spec from a JSON document."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise SpecValidationError(f"invalid JSON: {err}") from err
        return cls.from_dict(data)

    def save(self, path: Union[str, Path]) -> Path:
        """Write the spec as JSON to ``path``."""
        path = Path(path)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SessionSpec":
        """Read a spec JSON file."""
        return cls.from_json(Path(path).read_text())

    def replace(self, **changes: Any) -> "SessionSpec":
        """A copy with ``changes`` applied (validated)."""
        return dataclasses.replace(self, **changes)

    # -- resolution --------------------------------------------------------
    def build_machine(self) -> MachineModel:
        """Instantiate the platform model."""
        options = dict(self.machine_options or {})
        if self.machine == "atlas":
            return AtlasMachine.with_nodes(self.daemons, **options)
        return BGLMachine.with_io_nodes(self.daemons, self.mode, **options)

    def build_topology(self, machine: MachineModel) -> Optional[Topology]:
        """The overlay tree, or ``None`` for the platform default."""
        if self.topology is None:
            return None
        return parse_shape(self.topology, machine.num_daemons)

    def build_scheme(self, machine: MachineModel) -> LabelScheme:
        """The edge-label scheme."""
        if self.scheme == "dense":
            return DenseLabelScheme(machine.total_tasks)
        return HierarchicalLabelScheme()

    def build_launcher(self, machine: MachineModel) -> Optional[Launcher]:
        """The launcher, or ``None`` for the platform default."""
        if self.launcher == "auto":
            return None
        if self.launcher == "launchmon":
            return LaunchMonLauncher()
        if self.launcher == "rsh":
            return SerialRshLauncher("rsh")
        if self.launcher == "bgl-system":
            return BglSystemLauncher(patched=True)
        return BglSystemLauncher(patched=False)

    def build_state_provider(self, machine: MachineModel) -> StateProvider:
        """Resolve the workload id against this machine's task count."""
        return resolve_workload(self.workload, machine.total_tasks,
                                seed=self.seed)

    def build_frontend(self) -> "STATFrontEnd":  # noqa: F821
        """A :class:`~repro.core.frontend.STATFrontEnd` for this spec."""
        from repro.core.frontend import STATFrontEnd
        machine = self.build_machine()
        return STATFrontEnd(
            machine,
            topology=self.build_topology(machine),
            scheme=self.build_scheme(machine),
            launcher=self.build_launcher(machine),
            seed=self.seed,
        )

    def run(self, observers: Tuple = ()) -> "SessionContext":  # noqa: F821
        """Execute this spec; returns the finished pipeline context.

        ``ctx.result`` is the :class:`~repro.core.frontend.STATResult`
        (``None`` when ``stop_after`` cut the session short); ``ctx.timings``
        always holds the simulated per-phase seconds.
        """
        from repro.api.pipeline import SessionPipeline
        pipeline = SessionPipeline.from_spec(self, observers=observers)
        pipeline.run_until(self.stop_after or PHASE_NAMES[-1])
        return pipeline.ctx
