"""A small MPI runtime on the discrete-event engine.

Each rank is a generator-coroutine process; the runtime provides genuine
nonblocking point-to-point matching (posted-receive and unexpected-message
queues), ``waitall``, and a collective barrier.  The Section III bug —
"MPI task 1 to hang before its send" — therefore propagates exactly as on
a real machine: task 2's receive never matches, its ``Waitall`` never
returns, and every other task blocks in ``Barrier`` waiting for tasks 1
and 2.

For the stack sampler, every rank tracks a :class:`RankState` that says
*where in the MPI/user code it is blocked or running* — the moral
equivalent of what a StackWalker reads out of a stopped process.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Tuple

from repro.sim.engine import Engine, Event, SimulationError
from repro.sim.process import Process

__all__ = ["ANY_SOURCE", "ANY_TAG", "Request", "RankState", "RankContext",
           "MPIRuntime", "StateInterner", "STATES"]

#: Wildcard source for receives.
ANY_SOURCE = -1
#: Wildcard tag.
ANY_TAG = -1


@dataclass
class Request:
    """A nonblocking operation handle (send or receive)."""

    kind: str                 # "send" | "recv"
    rank: int                 # owning rank
    peer: int                 # destination (send) / source filter (recv)
    tag: int
    event: Event
    payload: Any = None

    @property
    def completed(self) -> bool:
        """True once the operation has finished."""
        return self.event.triggered


@dataclass
class RankState:
    """Sampler-visible execution state of one rank.

    ``kind`` is one of: ``init``, ``compute``, ``isend``, ``irecv``,
    ``waitall``, ``barrier``, ``stall``, ``recv_wait``, ``done``.
    ``where`` names the user function for app-level states (e.g. the
    injected ``do_SendOrStall``).
    """

    kind: str = "init"
    where: str = "main"
    since: float = 0.0


class StateInterner:
    """Process-wide dense ids for sampler-visible ``(kind, where)`` pairs.

    The forest build kernel (:mod:`repro.core.forest`) moves rank
    states around as small integers the way :data:`repro.core.interning.FRAMES`
    moves frames; ``since`` is sampling-irrelevant (stack models never read
    it), so two states sharing ``(kind, where)`` share an id.  Ids are
    process-local: anything that crosses a process boundary must carry the
    ``(kind, where)`` pairs, not the ids.
    """

    __slots__ = ("_ids", "_keys")

    def __init__(self) -> None:
        self._ids: Dict[Tuple[str, str], int] = {}
        self._keys: List[Tuple[str, str]] = []

    def intern(self, kind: str, where: str = "main") -> int:
        """The dense id for ``(kind, where)``, allocating on first use."""
        key = (kind, where)
        sid = self._ids.get(key)
        if sid is None:
            sid = self._ids[key] = len(self._keys)
            self._keys.append(key)
        return sid

    def key_of(self, sid: int) -> Tuple[str, str]:
        """The ``(kind, where)`` pair of an interned id."""
        return self._keys[sid]

    def state_of(self, sid: int) -> RankState:
        """A canonical :class:`RankState` carrying an interned id's pair."""
        kind, where = self._keys[sid]
        return RankState(kind, where)

    def __len__(self) -> int:
        return len(self._keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StateInterner states={len(self._keys)}>"


#: The process-wide state registry (the batch sampling path's id space).
STATES = StateInterner()


@dataclass
class _Message:
    src: int
    tag: int
    payload: Any
    arrival: float
    send_req: Request


class RankContext:
    """Per-rank handle passed to application programs.

    Application programs are generators; MPI operations that can block are
    used with ``yield from`` (they may yield engine events internally)::

        def program(ctx):
            req = ctx.irecv(ctx.prev, tag=0)
            ctx.isend(ctx.next, tag=0, payload=ctx.rank)
            yield from ctx.waitall([req])
            yield from ctx.barrier()
    """

    def __init__(self, runtime: "MPIRuntime", rank: int) -> None:
        self.runtime = runtime
        self.rank = rank
        self.size = runtime.size
        self.state = RankState(since=runtime.engine.now)

    # -- convenience -------------------------------------------------------
    @property
    def prev(self) -> int:
        """Previous rank on the ring."""
        return (self.rank - 1) % self.size

    @property
    def next(self) -> int:
        """Next rank on the ring."""
        return (self.rank + 1) % self.size

    def _set_state(self, kind: str, where: str = None) -> None:
        self.state.kind = kind
        if where is not None:
            self.state.where = where
        self.state.since = self.runtime.engine.now

    # -- computation and faults ---------------------------------------------
    def compute(self, seconds: float, where: str = "do_work"):
        """Pure computation for ``seconds`` (state: ``compute``)."""
        self._set_state("compute", where)
        yield self.runtime.engine.timeout(seconds)
        self._set_state("compute", "main")

    def stall(self, where: str = "do_SendOrStall"):
        """The injected bug: block forever in user code (state ``stall``).

        This is the paper's hang — task 1 stalls *before its send*.
        """
        self._set_state("stall", where)
        yield self.runtime.engine.event(name=f"stall-rank{self.rank}")

    # -- point to point ------------------------------------------------------
    def isend(self, dest: int, tag: int = 0, payload: Any = None,
              nbytes: int = 64) -> Request:
        """Nonblocking send (eager protocol for these small messages)."""
        self._set_state("isend")
        req = self.runtime._post_send(self.rank, dest, tag, payload, nbytes)
        self._set_state("compute", self.state.where)
        return req

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive."""
        req = self.runtime._post_recv(self.rank, source, tag)
        return req

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking receive (state ``recv_wait``); returns the payload."""
        req = self.irecv(source, tag)
        self._set_state("recv_wait")
        payload = yield req.event
        req.payload = payload
        self._set_state("compute", self.state.where)
        return payload

    def send(self, dest: int, tag: int = 0, payload: Any = None,
             nbytes: int = 64):
        """Blocking send (eager: completes after local hand-off)."""
        req = self.isend(dest, tag, payload, nbytes)
        yield req.event
        return req

    def waitall(self, requests: List[Request]):
        """Block until every request completes (state ``waitall``)."""
        pending = [r for r in requests if not r.completed]
        if pending:
            self._set_state("waitall")
            yield self.runtime.engine.all_of([r.event for r in pending])
        self._set_state("compute", self.state.where)
        for req in requests:
            if req.kind == "recv":
                req.payload = req.event.value if req.event.ok else None

    def barrier(self):
        """Block until all ranks arrive (state ``barrier``)."""
        self._set_state("barrier")
        yield self.runtime._barrier_arrive(self.rank)
        self._set_state("compute", self.state.where)

    def allreduce(self, value: Any, op: Callable[[Any, Any], Any] = None):
        """Combine ``value`` across all ranks; everyone gets the result.

        Blocks (state ``allreduce``) until every rank has contributed —
        a rank that skips its call deadlocks the communicator, which is
        exactly the bug class :mod:`repro.apps.solver` injects.
        """
        self._set_state("allreduce")
        result = yield self.runtime._collective_arrive(
            "allreduce", self.rank, value, op)
        self._set_state("compute", self.state.where)
        return result

    def bcast(self, value: Any = None, root: int = 0):
        """Broadcast ``value`` from ``root`` to every rank (state ``bcast``)."""
        self._set_state("bcast")
        result = yield self.runtime._collective_arrive(
            "bcast", self.rank, value if self.rank == root else None,
            lambda a, b: a if a is not None else b)
        self._set_state("compute", self.state.where)
        return result


class MPIRuntime:
    """The communicator: matching engine plus rank bookkeeping."""

    def __init__(self, engine: Engine, size: int,
                 latency_s: float = 2.0e-6,
                 bandwidth_Bps: float = 1.0e9) -> None:
        if size < 1:
            raise SimulationError(f"size must be >= 1, got {size}")
        self.engine = engine
        self.size = size
        self.latency_s = latency_s
        self.bandwidth_Bps = bandwidth_Bps
        self.contexts: List[RankContext] = [
            RankContext(self, r) for r in range(size)]
        self.processes: List[Optional[Process]] = [None] * size
        self._posted: List[Deque[Request]] = [deque() for _ in range(size)]
        self._unexpected: List[Deque[_Message]] = [deque() for _ in range(size)]
        self._barrier_waiters: List[Tuple[int, Event]] = []
        self._barrier_generation = 0
        #: per-collective per-rank call counts (instance matching)
        self._coll_calls: Dict[str, List[int]] = {}
        #: (name, instance) -> (waiting events, contributed values)
        self._coll_pending: Dict[Tuple[str, int],
                                 Tuple[List[Event], List[Any]]] = {}
        self.messages_sent = 0

    # -- program launching ---------------------------------------------------
    def run_program(self,
                    program: Callable[[RankContext], Generator],
                    max_steps: Optional[int] = None) -> "MPIRuntime":
        """Start ``program(ctx)`` on every rank and run to quiescence.

        Returns self; inspect :meth:`unfinished_ranks` afterwards — a
        non-empty result is the simulated equivalent of "the job hangs".
        """
        for rank, ctx in enumerate(self.contexts):
            def wrapped(ctx=ctx):
                ctx._set_state("compute", "main")
                result = yield from program(ctx)
                ctx._set_state("done", "exited")
                return result

            self.processes[rank] = Process(
                self.engine, wrapped(), name=f"rank{rank}")
        self.engine.run(max_steps=max_steps)
        return self

    def unfinished_ranks(self) -> List[int]:
        """Ranks whose programs did not complete (the hung set)."""
        return [r for r, p in enumerate(self.processes)
                if p is not None and not p.triggered]

    def state_of(self, rank: int) -> RankState:
        """Sampler entry point: the rank's current execution state."""
        return self.contexts[rank].state

    # -- transfer model -------------------------------------------------------
    def _transfer_delay(self, nbytes: int) -> float:
        return self.latency_s + nbytes / self.bandwidth_Bps

    # -- matching -------------------------------------------------------------
    @staticmethod
    def _matches(req: Request, src: int, tag: int) -> bool:
        return ((req.peer == ANY_SOURCE or req.peer == src)
                and (req.tag == ANY_TAG or req.tag == tag))

    def _post_send(self, src: int, dest: int, tag: int, payload: Any,
                   nbytes: int) -> Request:
        if not 0 <= dest < self.size:
            raise SimulationError(f"send to invalid rank {dest}")
        send_req = Request("send", src, dest, tag,
                           self.engine.event(name=f"send{src}->{dest}"))
        self.messages_sent += 1
        arrival = self.engine.now + self._transfer_delay(nbytes)

        posted = self._posted[dest]
        for req in posted:
            if self._matches(req, src, tag):
                posted.remove(req)
                self.engine.schedule(
                    arrival, lambda r=req, p=payload: r.event.succeed(p))
                break
        else:
            self._unexpected[dest].append(
                _Message(src, tag, payload, arrival, send_req))
        # Eager protocol: the send buffer is reusable after local hand-off.
        self.engine.schedule(self.engine.now + self.latency_s,
                             lambda: send_req.event.succeed(None))
        return send_req

    def _post_recv(self, dst: int, source: int, tag: int) -> Request:
        recv_req = Request("recv", dst, source, tag,
                           self.engine.event(name=f"recv@{dst}"))
        unexpected = self._unexpected[dst]
        for msg in unexpected:
            if ((source == ANY_SOURCE or source == msg.src)
                    and (tag == ANY_TAG or tag == msg.tag)):
                unexpected.remove(msg)
                when = max(self.engine.now, msg.arrival)
                self.engine.schedule(
                    when, lambda r=recv_req, m=msg: r.event.succeed(m.payload))
                return recv_req
        self._posted[dst].append(recv_req)
        return recv_req

    # -- collectives ------------------------------------------------------------
    def _collective_arrive(self, name: str, rank: int, value: Any,
                           op: Optional[Callable[[Any, Any], Any]]) -> Event:
        """Join this rank's next instance of collective ``name``.

        Instance matching follows MPI semantics: a rank's n-th call to a
        collective matches every other rank's n-th call.  The instance
        completes — after log2(P) exchange rounds — only when all ranks
        have arrived.
        """
        calls = self._coll_calls.setdefault(name, [0] * self.size)
        instance = calls[rank]
        calls[rank] += 1
        key = (name, instance)
        waiters, values = self._coll_pending.setdefault(key, ([], []))
        event = self.engine.event(name=f"{name}#{instance}@{rank}")
        waiters.append(event)
        values.append(value)
        if len(waiters) == self.size:
            del self._coll_pending[key]
            if op is None:
                op = lambda a, b: a + b  # noqa: E731 - MPI_SUM default
            result = values[0]
            for v in values[1:]:
                result = op(result, v)
            import math
            rounds = max(1, math.ceil(math.log2(self.size))) \
                if self.size > 1 else 0
            release = self.engine.now + rounds * self._transfer_delay(64)
            for ev in waiters:
                self.engine.schedule(release,
                                     lambda e=ev: e.succeed(result))
        return event

    # -- barrier ---------------------------------------------------------------
    def _barrier_arrive(self, rank: int) -> Event:
        event = self.engine.event(name=f"barrier@{rank}")
        self._barrier_waiters.append((rank, event))
        if len(self._barrier_waiters) == self.size:
            waiters, self._barrier_waiters = self._barrier_waiters, []
            self._barrier_generation += 1
            # Dissemination barrier: log2(P) exchange rounds.
            import math
            rounds = max(1, math.ceil(math.log2(self.size))) \
                if self.size > 1 else 0
            release = self.engine.now + rounds * self._transfer_delay(8)
            for _, ev in waiters:
                self.engine.schedule(release, ev.succeed)
        return event

    def __repr__(self) -> str:
        return f"<MPIRuntime size={self.size} t={self.engine.now:.6g}>"
