"""Declarative, seeded fault plans (the paper's Section V failures).

At 208K cores the debugger itself must survive component failure: daemons
die, links flake, login nodes straggle, and the tool has to return a
useful partial answer instead of hanging or crashing.  A
:class:`FaultPlan` captures one such failure campaign as a frozen,
JSON-round-trippable value — embedded in
:class:`~repro.api.spec.SessionSpec` like every other knob — so fault
scenarios can be swept, replayed, archived, and clustered instead of
living in one-off kill switches.

Five fault kinds (each a frozen dataclass carrying a ``kind`` tag; the
``spec-drift`` lint rule cross-checks the set against the table in
``docs/fault-tolerance.md``):

* :class:`DaemonCrash` — permanent death at a simulated time (``t <= 0``
  means dead before the merge starts);
* :class:`DaemonStall` — transient unresponsiveness that *recovers*
  after a duration — absorbed by the TBO̅N's :class:`RetryPolicy` unless
  it outlasts the bounded retry budget;
* :class:`LinkFault` — per-transmission message drop / corruption
  probability on a node's ingress links (corruption is caught by a
  payload checksum and retransmitted);
* :class:`Straggler` — a seeded fraction of daemons emit late (CPU
  dilation plus constant extra delay);
* :class:`WorkerKill` — hard-kills the first N pool-worker executions of
  the owning spec (exercises :class:`~repro.api.suite.ScenarioSuite`'s
  bounded retry budget).

Every random draw comes from a :class:`~repro.sim.random.SeedStream`
rooted at ``plan.seed`` with per-(node, slot, attempt) labels, so a plan
plus a seed replays bit-identically regardless of event order.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import zlib
from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, Optional, Tuple

__all__ = [
    "FaultPlanError",
    "RetryPolicy",
    "DaemonCrash",
    "DaemonStall",
    "LinkFault",
    "Straggler",
    "WorkerKill",
    "FaultPlan",
    "DegradationReport",
    "payload_checksum",
    "PLAN_VERSION",
]

#: Version stamp written into :meth:`FaultPlan.to_dict` output.
PLAN_VERSION = 1

#: XOR mask modelling in-flight bit corruption of a payload checksum.
_CORRUPT_MASK = 0xA5A5_A5A5


class FaultPlanError(ValueError):
    """A fault-plan field (or serialized form) is invalid."""


def payload_checksum(payload: Any) -> int:
    """CRC-32 over the payload's serialized bytes.

    The sender stamps every transmission with this checksum; the
    receiver recomputes it on arrival and treats a mismatch as a failed
    delivery attempt (retransmitted under the :class:`RetryPolicy`).
    """
    return zlib.crc32(pickle.dumps(payload, protocol=4))


def corrupted_checksum(checksum: int) -> int:
    """The checksum after in-flight bit corruption (always detectable)."""
    return checksum ^ _CORRUPT_MASK


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and per-attempt timeout.

    The TBO̅N charges every window as *simulated* cost: a parent waits
    ``timeout_s`` for a child's payload, then backs off
    ``backoff_base_s * backoff_mult ** attempt`` before re-polling, up
    to ``max_retries`` times.  Transient faults that resolve inside the
    budget are absorbed; exhausted budgets degrade the subtree to
    ``missing_daemons``.  ``timeout_s`` defaults to the legacy
    ``failure_detect_s`` socket timeout so a plan-free reduction charges
    exactly what it always did.
    """

    max_retries: int = 2
    timeout_s: float = 5.0
    backoff_base_s: float = 0.5
    backoff_mult: float = 2.0

    def __post_init__(self) -> None:
        if not isinstance(self.max_retries, int) or self.max_retries < 0:
            raise FaultPlanError(
                f"max_retries must be a non-negative int, "
                f"got {self.max_retries!r}")
        for name in ("timeout_s", "backoff_base_s", "backoff_mult"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or value < 0:
                raise FaultPlanError(
                    f"{name} must be a non-negative number, got {value!r}")

    def backoff_s(self, attempt: int) -> float:
        """Backoff charged after failed attempt number ``attempt``."""
        return self.backoff_base_s * self.backoff_mult ** attempt

    @property
    def budget_s(self) -> float:
        """Total simulated window before a subtree is given up on."""
        total = 0.0
        for attempt in range(self.max_retries + 1):
            total += self.timeout_s
            if attempt < self.max_retries:
                total += self.backoff_s(attempt)
        return total

    def absorb(self, nominal: float,
               actual: float) -> Tuple[float, int, bool]:
        """Poll for data due at ``nominal`` but available at ``actual``.

        Returns ``(time, retries_spent, ok)``: with ``ok`` the data is
        obtained at ``time`` (the fault was absorbed); otherwise
        ``time`` is when the budget ran out and the subtree degrades.
        """
        clock = nominal
        for attempt in range(self.max_retries + 1):
            deadline = clock + self.timeout_s
            if actual <= deadline:
                return max(actual, clock), attempt, True
            clock = deadline
            if attempt < self.max_retries:
                clock += self.backoff_s(attempt)
        return clock, self.max_retries, False


@dataclass(frozen=True)
class DaemonCrash:
    """Permanent daemon death at simulated time ``time``.

    ``time <= 0`` means the daemon is already gone when the merge phase
    starts (``SessionSpec.dead_daemons`` parses into exactly this); a
    positive time kills it before it can emit — its parent charges the
    detection timeout and degrades.
    """

    kind: ClassVar[str] = "daemon_crash"

    rank: int
    time: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.rank, int) or self.rank < 0:
            raise FaultPlanError(
                f"crash rank must be a non-negative int, got {self.rank!r}")


@dataclass(frozen=True)
class DaemonStall:
    """Transient unresponsiveness over ``[time, time + duration)``.

    A daemon whose payload would be ready inside the window emits at the
    window's end instead — *recovering*, unlike a crash.  The TBO̅N's
    :class:`RetryPolicy` absorbs the delay unless it outlasts the
    bounded retry budget.
    """

    kind: ClassVar[str] = "daemon_stall"

    rank: int
    time: float = 0.0
    duration: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.rank, int) or self.rank < 0:
            raise FaultPlanError(
                f"stall rank must be a non-negative int, got {self.rank!r}")
        if self.duration < 0:
            raise FaultPlanError(
                f"stall duration must be >= 0, got {self.duration!r}")


@dataclass(frozen=True)
class LinkFault:
    """Per-transmission drop/corruption probability on ingress links.

    ``node_id=None`` applies to every interior node's ingress links;
    a concrete id targets one node.  Draws are labelled per
    ``(node, slot, attempt)`` so retransmissions re-roll independently
    and deterministically.
    """

    kind: ClassVar[str] = "link_fault"

    drop_p: float = 0.0
    corrupt_p: float = 0.0
    node_id: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("drop_p", "corrupt_p"):
            p = getattr(self, name)
            if not isinstance(p, (int, float)) or not 0.0 <= p <= 1.0:
                raise FaultPlanError(
                    f"{name} must be a probability in [0, 1], got {p!r}")


@dataclass(frozen=True)
class Straggler:
    """A seeded fraction of daemons emit late (Section V's slow nodes).

    The affected ranks are drawn from the plan's seed stream at bind
    time; each one's nominal ready time is multiplied by ``dilation``
    and shifted by ``extra_s``.
    """

    kind: ClassVar[str] = "straggler"

    fraction: float = 0.1
    dilation: float = 2.0
    extra_s: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise FaultPlanError(
                f"straggler fraction must be in [0, 1], "
                f"got {self.fraction!r}")
        if self.dilation < 1.0:
            raise FaultPlanError(
                f"straggler dilation must be >= 1, got {self.dilation!r}")
        if self.extra_s < 0:
            raise FaultPlanError(
                f"straggler extra_s must be >= 0, got {self.extra_s!r}")


@dataclass(frozen=True)
class WorkerKill:
    """Hard-kill the first ``attempts`` pool executions of this spec.

    Models a scenario whose *worker process* dies (not a simulated
    daemon): the :class:`~repro.api.suite.ScenarioSuite` pool worker
    calls ``os._exit`` before running the spec, and the suite's bounded
    retry budget must absorb the kills.  Inline (non-pool) execution
    ignores it — graceful degradation, never a parent-process kill.
    """

    kind: ClassVar[str] = "worker_kill"

    attempts: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.attempts, int) or self.attempts < 1:
            raise FaultPlanError(
                f"worker-kill attempts must be a positive int, "
                f"got {self.attempts!r}")


#: field name on :class:`FaultPlan` -> the fault dataclass it holds
_FAULT_FIELDS = {
    "crashes": DaemonCrash,
    "stalls": DaemonStall,
    "links": LinkFault,
    "stragglers": Straggler,
    "worker_kills": WorkerKill,
}


@dataclass(frozen=True)
class FaultPlan:
    """One declarative, seeded fault-injection campaign.

    Attach to :class:`~repro.api.spec.SessionSpec` via its ``faults``
    field (or pass a bound injector straight to the TBO̅N).  An *empty*
    plan is a guaranteed no-op: it consumes no randomness and perturbs
    no timing, so empty-plan runs stay bit-identical to plan-free ones.
    """

    seed: int = 208_000
    crashes: Tuple[DaemonCrash, ...] = ()
    stalls: Tuple[DaemonStall, ...] = ()
    links: Tuple[LinkFault, ...] = ()
    stragglers: Tuple[Straggler, ...] = ()
    worker_kills: Tuple[WorkerKill, ...] = ()
    retry: RetryPolicy = RetryPolicy()

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int):
            raise FaultPlanError(f"seed must be an int, got {self.seed!r}")
        for name, cls in sorted(_FAULT_FIELDS.items()):
            value = tuple(getattr(self, name))
            for entry in value:
                if not isinstance(entry, cls):
                    raise FaultPlanError(
                        f"{name} entries must be {cls.__name__}, "
                        f"got {type(entry).__name__}")
            object.__setattr__(self, name, value)
        if not isinstance(self.retry, RetryPolicy):
            raise FaultPlanError("retry must be a RetryPolicy")

    @property
    def empty(self) -> bool:
        """True when the plan injects nothing (guaranteed no-op)."""
        return not any(getattr(self, name)
                       for name in sorted(_FAULT_FIELDS))

    @property
    def worker_kill_attempts(self) -> int:
        """Total pool executions of the owning spec to hard-kill."""
        return sum(w.attempts for w in self.worker_kills)

    # -- derivation --------------------------------------------------------
    def with_crashes(self, ranks, time: float = 0.0) -> "FaultPlan":
        """A copy with crash-at-``time`` entries added for ``ranks``."""
        existing = {c.rank for c in self.crashes}
        added = tuple(DaemonCrash(rank=r, time=float(time))
                      for r in sorted({int(r) for r in ranks})
                      if r not in existing)
        return dataclasses.replace(self, crashes=self.crashes + added)

    def bind(self, num_daemons: int) -> "FaultInjector":  # noqa: F821
        """Resolve the plan against a concrete daemon count."""
        from repro.faults.inject import FaultInjector
        return FaultInjector(self, num_daemons)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON-types dict; inverse of :meth:`from_dict`."""
        out: Dict[str, Any] = {"plan_version": PLAN_VERSION,
                               "seed": self.seed,
                               "retry": dataclasses.asdict(self.retry)}
        for name in sorted(_FAULT_FIELDS):
            out[name] = [dataclasses.asdict(entry)
                         for entry in getattr(self, name)]
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output (strict on keys)."""
        if not isinstance(data, dict):
            raise FaultPlanError(
                f"fault plan must be a JSON object, "
                f"got {type(data).__name__}")
        data = dict(data)
        version = data.pop("plan_version", PLAN_VERSION)
        if version != PLAN_VERSION:
            raise FaultPlanError(
                f"unsupported plan_version {version!r} "
                f"(this build reads {PLAN_VERSION})")
        known = {"seed", "retry"} | set(_FAULT_FIELDS)
        unknown = set(data) - known
        if unknown:
            raise FaultPlanError(
                f"unknown fault-plan fields: {sorted(unknown)}")
        kwargs: Dict[str, Any] = {"seed": data.get("seed", 208_000)}
        retry = data.get("retry")
        if retry is not None:
            kwargs["retry"] = _load_entry(RetryPolicy, retry, "retry")
        for name, entry_cls in sorted(_FAULT_FIELDS.items()):
            entries = data.get(name) or []
            if not isinstance(entries, (list, tuple)):
                raise FaultPlanError(f"{name} must be a list")
            kwargs[name] = tuple(
                _load_entry(entry_cls, entry, name) for entry in entries)
        return cls(**kwargs)

    def to_json(self, indent: int = 2) -> str:
        """Serialize to a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from a JSON document."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise FaultPlanError(f"invalid JSON: {err}") from err
        return cls.from_dict(data)

    # -- randomized plans (chaos harness) ----------------------------------
    @classmethod
    def random(cls, rng, num_daemons: int,
               seed: int = 208_000) -> "FaultPlan":
        """Draw one plausible randomized plan from ``rng``.

        Used by the chaos harness: covers every fault kind with small
        but non-trivial magnitudes, including budget-exhausting stalls
        and high-probability link faults, so both absorption and
        degradation paths are exercised.  Deterministic for a given
        generator state.
        """
        def some_ranks(limit: int):
            count = int(rng.integers(0, limit + 1))
            if count == 0:
                return []
            picks = rng.choice(num_daemons, size=min(count, num_daemons),
                               replace=False)
            return sorted(int(r) for r in picks)

        retry = RetryPolicy(
            max_retries=int(rng.integers(1, 4)),
            timeout_s=float(rng.uniform(0.5, 5.0)),
            backoff_base_s=float(rng.uniform(0.05, 0.5)),
            backoff_mult=2.0)
        crashes = tuple(
            DaemonCrash(rank=r, time=float(rng.uniform(-0.05, 0.25)))
            for r in some_ranks(2))
        stalls = tuple(
            DaemonStall(rank=r, time=float(rng.uniform(0.0, 0.1)),
                        duration=float(rng.uniform(0.1, 2.5 * retry.budget_s)))
            for r in some_ranks(2))
        links: Tuple[LinkFault, ...] = ()
        if rng.random() < 0.5:
            links = (LinkFault(drop_p=float(rng.uniform(0.0, 0.35)),
                               corrupt_p=float(rng.uniform(0.0, 0.35))),)
        stragglers: Tuple[Straggler, ...] = ()
        if rng.random() < 0.4:
            stragglers = (Straggler(
                fraction=float(rng.uniform(0.0, 0.5)),
                dilation=float(rng.uniform(1.0, 3.0)),
                extra_s=float(rng.uniform(0.0, 0.2))),)
        return cls(seed=seed, crashes=crashes, stalls=stalls, links=links,
                   stragglers=stragglers, retry=retry)


def _load_entry(entry_cls, data: Any, where: str):
    """Build one nested dataclass from a dict, strict on keys."""
    if not isinstance(data, dict):
        raise FaultPlanError(f"{where} entries must be objects, "
                             f"got {type(data).__name__}")
    known = {f.name for f in fields(entry_cls)}
    unknown = set(data) - known
    if unknown:
        raise FaultPlanError(
            f"unknown {where} fields: {sorted(unknown)}")
    try:
        return entry_cls(**data)
    except TypeError as err:
        raise FaultPlanError(f"invalid {where} entry: {err}") from err


@dataclass(frozen=True)
class DegradationReport:
    """Structured account of how degraded one session's answer is.

    Attached to :class:`~repro.core.frontend.STATResult` by the finalize
    phase and archived in ``session.json`` (format v2) — at 208K scale a
    partial answer is only useful if the tool says *how* partial.
    """

    #: daemons the session was configured with
    daemons: int
    #: ranks whose subtrees never reached the front end (sorted)
    missing_daemons: Tuple[int, ...] = ()
    #: degradation events (leaf deaths + exhausted-uplink subtree losses)
    missing_subtrees: int = 0
    #: bounded retry attempts the TBO̅N spent absorbing faults
    retries: int = 0
    #: transmissions lost in flight (retransmitted or degraded)
    dropped_messages: int = 0
    #: corrupted payloads caught by the checksum (failed attempts)
    corrupt_detected: int = 0
    #: fault events the bound plan actually fired
    faults_injected: int = 0
    #: transient faults fully absorbed (session answer unaffected)
    faults_absorbed: int = 0

    @property
    def covered(self) -> int:
        """Daemons represented in the final merged tree."""
        return self.daemons - len(self.missing_daemons)

    @property
    def coverage(self) -> float:
        """Fraction of daemons covered (1.0 = complete answer)."""
        if self.daemons <= 0:
            return 0.0
        return self.covered / self.daemons

    @property
    def degraded(self) -> bool:
        """True when any subtree is missing from the answer."""
        return bool(self.missing_daemons)

    @classmethod
    def from_merge(cls, merge: Any, daemons: int,
                   injector: Optional[Any] = None) -> "DegradationReport":
        """Derive a report from a reduce/stream result (+ injector)."""
        return cls(
            daemons=daemons,
            missing_daemons=tuple(sorted(merge.missing_daemons)),
            missing_subtrees=getattr(merge, "missing_subtrees", 0),
            retries=getattr(merge, "retries", 0),
            dropped_messages=getattr(merge, "dropped_messages", 0),
            corrupt_detected=getattr(merge, "corrupt_detected", 0),
            faults_injected=(injector.injected
                             if injector is not None else 0),
            faults_absorbed=(injector.absorbed
                             if injector is not None else 0),
        )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON-types dict; inverse of :meth:`from_dict`."""
        out = dataclasses.asdict(self)
        out["missing_daemons"] = list(self.missing_daemons)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DegradationReport":
        """Rebuild a report from :meth:`to_dict` output."""
        if not isinstance(data, dict):
            raise FaultPlanError("degradation report must be an object")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise FaultPlanError(
                f"unknown degradation fields: {sorted(unknown)}")
        data = dict(data)
        data["missing_daemons"] = tuple(data.get("missing_daemons", ()))
        try:
            return cls(**data)
        except TypeError as err:
            raise FaultPlanError(str(err)) from err

    def summary(self) -> str:
        """One-line human-readable account."""
        if not self.degraded and not self.faults_injected:
            return (f"complete answer: {self.covered}/{self.daemons} "
                    f"daemons, no faults injected")
        missing = list(self.missing_daemons)
        shown = missing if len(missing) <= 8 else missing[:8] + ["..."]
        return (f"coverage {self.coverage:.1%} "
                f"({self.covered}/{self.daemons} daemons"
                + (f"; missing {shown}" if missing else "")
                + f"), {self.retries} retries, "
                f"{self.missing_subtrees} subtrees lost, "
                f"{self.faults_absorbed}/{self.faults_injected} "
                f"faults absorbed")
