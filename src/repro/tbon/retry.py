"""The one failure path through the TBO̅N.

At 208K cores something is always broken (Section V), so what happens
to a lost daemon or a flaky link is product code.  Both engines — the
batch :class:`~repro.tbon.network.TBONetwork` and the event-driven
:class:`~repro.tbon.streaming.StreamingTBON` — resolve every leaf and
move every payload through the functions here, so they retry, charge,
count, and degrade identically; they differ only in how they *schedule*
the steps (the batch sums them into a clock, the stream turns them into
engine timeouts and NIC acquisitions).
"""

from __future__ import annotations

from typing import Any, Generator, Optional, Sequence, Tuple

from repro.faults.inject import FaultInjector
from repro.faults.plan import RetryPolicy
from repro.perf.counters import PERF, TBON_CORRUPT_DETECTED, TBON_RETRIES

__all__ = ["DaemonFailure", "AllDaemonsFailed", "WAIT", "SEND",
           "failure_policy", "resolve_leaf", "declare_dead", "transmit"]

#: step kinds yielded by :func:`transmit`
WAIT = "wait"  # (WAIT, seconds): nothing on the wire, the clock runs
SEND = "send"  # (SEND, nbytes): occupy the receiver's NIC for a transfer


class DaemonFailure(RuntimeError):
    """Raised by a leaf payload source when its daemon has died.

    With ``on_daemon_failure="skip"`` the reduction proceeds without the
    dead daemon's subtree and reports it in
    :attr:`ReduceResult.missing_daemons` — at 1,664 daemons a tool that
    aborts on any single failure never completes a full-machine run.
    """


class AllDaemonsFailed(DaemonFailure):
    """The declared every-daemon-lost outcome: there is nothing to merge."""

    def __init__(self, missing: int, total: int) -> None:
        super().__init__(missing, total)

    def __str__(self) -> str:
        return "every daemon failed ({} of {})".format(*self.args)


def failure_policy(on_daemon_failure: str, faults: Optional[FaultInjector],
                   retry: Optional[RetryPolicy]) -> RetryPolicy:
    """Validate the failure mode; pick the run's :class:`RetryPolicy`
    (explicit override, else the bound plan's, else the default)."""
    if on_daemon_failure not in ("raise", "skip"):
        raise ValueError(
            f"on_daemon_failure must be 'raise' or 'skip', "
            f"got {on_daemon_failure!r}")
    if retry is not None:
        return retry
    return faults.retry if faults is not None else RetryPolicy()


def declare_dead(stats, rank: int, on_daemon_failure: str,
                 cause: DaemonFailure) -> None:
    """A daemon is lost: raise ``cause`` or record the missing leaf."""
    if on_daemon_failure == "raise":
        raise cause
    stats.missing_daemons.append(rank)
    stats.missing_subtrees += 1


def resolve_leaf(stats, rank: int, ready: float,
                 faults: Optional[FaultInjector], policy: RetryPolicy,
                 detect_s: float, on_daemon_failure: str,
                 ) -> Tuple[float, bool]:
    """Apply the plan's crash/stall/straggler faults to one daemon.

    Returns ``(time, alive)``: the payload is available at ``time``
    (transient delays absorbed, the retries spent charged to ``stats``),
    or the daemon is lost and ``time`` is when its parent gives up on it.
    """
    if faults is None:
        return ready, True
    when, alive, spent = faults.leaf_outcome(rank, ready, policy, detect_s)
    if spent:
        stats.retries += spent
        PERF.add(TBON_RETRIES, spent)
    if not alive:
        declare_dead(stats, rank, on_daemon_failure, DaemonFailure(
            f"daemon {rank} lost to injected fault"))
    return when, alive


def transmit(stats, faults: Optional[FaultInjector], policy: RetryPolicy,
             node_id: int, slot: int, level: int, payload: Any,
             nbytes: int, ranks: Sequence[int],
             ) -> Generator[Tuple[str, float], None, bool]:
    """Move one payload over child ``slot``'s link into node ``node_id``.

    A generator of ``(WAIT, seconds)`` / ``(SEND, nbytes)`` steps that
    *returns* whether the payload was delivered.  Every attempt is one
    real transmission: a drop burns the per-attempt timeout, a corruption
    is caught by the receiver's checksum, each failure is retried after
    the policy's backoff, and an exhausted budget loses the sender's
    whole subtree — ``ranks``, the daemons alive in ``payload``, join
    ``stats.missing_daemons``.  Fault-free is the one-attempt case: a
    single ``SEND`` step, then ``True``.
    """
    for attempt in range(policy.max_retries + 1):
        fate = "ok" if faults is None else \
            faults.link_fate(node_id, slot, attempt)
        if fate == "drop":
            stats.dropped_messages += 1
            yield WAIT, policy.timeout_s
        else:
            yield SEND, nbytes
            stats.bytes_total += nbytes
            stats.messages += 1
            stats.per_level_bytes[level] = \
                stats.per_level_bytes.get(level, 0) + nbytes
            if fate == "ok" or faults.deliver_ok(payload, fate):
                if attempt:
                    faults.note_absorbed()
                return True
            stats.corrupt_detected += 1
            PERF.add(TBON_CORRUPT_DETECTED)
        if attempt < policy.max_retries:
            stats.retries += 1
            PERF.add(TBON_RETRIES)
            yield WAIT, policy.backoff_s(attempt)
    stats.missing_subtrees += 1
    stats.missing_daemons.extend(sorted(ranks))
    return False
