"""Event-driven TBO̅N: asynchronous daemons, incremental folds.

The batch :class:`~repro.tbon.network.TBONetwork` reduces
fully-materialized trees in lockstep postorder rounds — it cannot
express what the paper actually fought at 208K: stragglers, daemons
dying mid-merge, and jittery links.  This module re-runs the same
reduction as a discrete-event simulation over :mod:`repro.sim`:

* every daemon is a :class:`~repro.sim.process.Process` that emits its
  sampled payload at a per-daemon time drawn from a seeded
  :class:`~repro.sim.random.SeedStream` (exponential jitter plus an
  optional straggler tail);
* every transfer serializes on the receiving node's ingress NIC (a
  capacity-1 :class:`~repro.sim.resources.Resource`), with optional
  per-transfer link jitter;
* every interior node folds each arriving child payload into a running
  partial — one ``merge_fn([partial, arriving])`` per arrival.  With the
  STAT filter (:meth:`STATBenchEmulator.merge_filter
  <repro.statbench.emulator.STATBenchEmulator.merge_filter>`) a fold is
  bookkeeping: the merged :class:`~repro.statbench.emulator.DaemonTrees`
  defers its k-way merge until it is read, and a partial is read when it
  crosses its uplink, so each node runs one k-way over its live
  children, as the batch reduce does;
* the front end can snapshot a best-effort merged tree at **any**
  simulated instant, covering exactly the daemons whose payloads have
  entered the network so far.

Determinism and bit-identity
----------------------------
Arrival order at a node depends on jitter, but folds are applied in
*canonical child order*: child ``i`` is folded only once children
``0..i-1`` are resolved (folded or declared dead), buffering
out-of-order arrivals.  Because the array merge kernels are associative
in first-seen structure order, contributor grouping, and label bytes
(see :meth:`repro.core.merge.LabelScheme.merge`), the final
streamed tree is ``arrays_equal`` to the batch merge for every arrival
order — the property tests in ``tests/test_tbon_streaming.py`` pin this
across randomized topologies × schemes × seeds.

Failure degrades, never raises: a daemon is declared dead by the bound
:class:`~repro.faults.plan.FaultPlan` (a crash, or a stall outlasting
the retry budget) or by its leaf source raising ``DaemonFailure``; its
parent gives up after the detection timeout and the reduction completes
with that rank listed in :attr:`StreamResult.missing_daemons` — the
same contract, and the same code (:mod:`repro.tbon.retry`), as the
batch path's ``on_daemon_failure="skip"``.  A daemon that crashed at
``t <= 0`` never emitted, so its detection clock starts at 0, not at
the jittered emit time it never reached.

Snapshot exactly-once invariant: a payload is attributed to exactly one
place at every instant — its emitting/owning node while queued or in
flight (ownership transfers atomically on arrival), the receiving
node's reorder buffer once arrived, and the receiver's committed
partial once folded.  Hierarchical-label concatenation is *not*
idempotent, so this invariant is what makes mid-run snapshots honest:
no daemon's samples are counted twice, none are dropped, and coverage
is monotone non-decreasing in simulated time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.faults.inject import FaultInjector
from repro.faults.plan import RetryPolicy
from repro.perf.counters import (
    PERF,
    TBON_BYTES,
    TBON_MESSAGES,
    TBON_PARTIAL_MERGES,
    TBON_REDUCTIONS,
    TBON_SNAPSHOTS,
    TBON_STREAM_WALL_SECONDS,
)
from repro.sim import Engine, Process, Resource, SeedStream
from repro.tbon.network import ReduceResult, TBONCostBase
from repro.tbon.retry import (
    WAIT,
    AllDaemonsFailed,
    DaemonFailure,
    declare_dead,
    failure_policy,
    resolve_leaf,
    transmit,
)
from repro.tbon.topology import TopologyNode

__all__ = [
    "StreamConfig",
    "StreamResult",
    "Snapshot",
    "StreamingReduction",
    "StreamingTBON",
]


@dataclass(frozen=True)
class StreamConfig:
    """Stochastic environment for one streamed reduction.

    All draws come from a :class:`SeedStream` rooted at ``seed`` with
    per-consumer labels, so the same config replays bit-identically and
    adding a new random consumer never perturbs existing draws.
    """

    #: root seed for every distribution below
    seed: int = 208_000
    #: mean of the per-daemon exponential emit jitter (seconds; 0 = none)
    jitter_mean_s: float = 0.05
    #: fraction of daemons designated stragglers (Section V's slow nodes)
    straggler_fraction: float = 0.0
    #: mean extra exponential emit delay for each straggler (seconds)
    straggler_extra_s: float = 0.0
    #: per-transfer link slowdown: factor ~ U(1, 1 + link_jitter)
    link_jitter: float = 0.0
    #: socket-timeout before a parent declares a silent child dead
    failure_detect_s: float = 5.0


@dataclass
class Snapshot:
    """A best-effort front-end tree at one simulated instant."""

    #: merged payload over everything emitted so far (None before TTFT)
    payload: Any
    #: sorted daemon ranks covered by this snapshot
    ranks: Tuple[int, ...]
    #: simulated time the snapshot was taken
    sim_time: float
    #: number of in-network partial payloads merged to produce it
    num_parts: int

    @property
    def empty(self) -> bool:
        """True before any daemon has emitted."""
        return self.payload is None


@dataclass
class StreamResult(ReduceResult):
    """Outcome of one full streamed reduction to the front end.

    A :class:`~repro.tbon.network.ReduceResult` (``sim_time`` is the
    time-to-final; ``missing_daemons`` are the daemons that died
    in-flight and were degraded to missing ranklists) plus what only an
    event-driven reduction can report.
    """

    #: earliest instant a best-effort snapshot is non-empty
    first_tree_time: float = 0.0
    #: incremental folds (``merge_fn`` calls) across all interior
    #: nodes; with a deferred payload such as ``DaemonTrees`` a fold is
    #: bookkeeping, and the merge kernel runs when the partial is read
    partial_merges: int = 0


# -- per-node simulation state ------------------------------------------------

_WAITING = 0
_ARRIVED = 1
_MISSING = 2
_FOLDED = 3


class _LeafState:
    """A daemon leaf: owns its payload — a one-daemon ``partial`` — from
    emission until arrival.  It receives nothing: ``buffer`` stays empty."""

    __slots__ = ("node", "partial", "partial_ranks", "buffer")

    def __init__(self, node: TopologyNode) -> None:
        self.node = node
        self.partial: Any = None
        self.partial_ranks: Tuple[int, ...] = ()
        self.buffer: Dict[int, Tuple[Any, int, Tuple[int, ...]]] = {}


class _InteriorState:
    """An interior node: reorder buffer + running canonical-order fold."""

    __slots__ = ("node", "level", "parent", "slot_in_parent", "slots",
                 "buffer", "partial", "partial_ranks", "next_slot",
                 "folding", "done", "ingress_bytes", "nic", "link_rng")

    def __init__(self, node: TopologyNode, level: int,
                 parent: Optional["_InteriorState"],
                 slot_in_parent: int, nic: Resource, link_rng) -> None:
        self.node = node
        self.level = level
        self.parent = parent
        self.slot_in_parent = slot_in_parent
        self.slots = [_WAITING] * len(node.children)
        #: slot -> (payload, nbytes, ranks) arrived but not yet folded
        self.buffer: Dict[int, Tuple[Any, int, Tuple[int, ...]]] = {}
        self.partial: Any = None
        self.partial_ranks: Tuple[int, ...] = ()
        self.next_slot = 0
        self.folding = False
        self.done = False
        self.ingress_bytes = 0
        self.nic = nic
        self.link_rng = link_rng


class StreamingReduction:
    """One in-progress streamed reduction: run, pause, snapshot, resume.

    Created by :meth:`StreamingTBON.stream`; drive it with
    :meth:`run_until` + :meth:`snapshot` for mid-run views, then
    :meth:`run` for the final :class:`StreamResult`.
    """

    def __init__(self, net: "StreamingTBON",
                 leaf_payload_fn: Callable[[int], Any],
                 merge_fn: Callable[[List[Any]], Any],
                 payload_nbytes: Callable[[Any], int],
                 payload_nodes: Optional[Callable[[Any], int]],
                 leaf_ready_time: Callable[[int], float],
                 on_daemon_failure: str,
                 config: StreamConfig,
                 progress_fn: Optional[
                     Callable[[str, Dict[str, float]], None]] = None,
                 faults: Optional[FaultInjector] = None,
                 retry: Optional[RetryPolicy] = None,
                 ) -> None:
        self._retry = failure_policy(on_daemon_failure, faults, retry)
        self.net = net
        self.config = config
        self._faults = faults
        self.engine = Engine()
        self._leaf_payload_fn = leaf_payload_fn
        self._merge_fn = merge_fn
        self._payload_nbytes = payload_nbytes
        self._payload_nodes = payload_nodes or (lambda p: 0)
        self._on_daemon_failure = on_daemon_failure
        self._progress_fn = progress_fn
        self._error: Optional[BaseException] = None
        self._result: Optional[StreamResult] = None
        self._stats = StreamResult(payload=None, sim_time=0.0,
                                   first_tree_time=-1.0)
        self._states: Dict[int, Any] = {}
        self._root: Optional[_InteriorState] = None
        self._wire(leaf_ready_time)

    # -- construction ------------------------------------------------------
    def _emit_times(self, leaf_ready_time: Callable[[int], float],
                    num_daemons: int) -> Dict[int, float]:
        cfg = self.config
        stream = SeedStream(cfg.seed).child("tbon-stream")
        stragglers: frozenset = frozenset()
        n_straggle = int(cfg.straggler_fraction * num_daemons)
        if n_straggle > 0:
            picks = stream.rng("stragglers").choice(
                num_daemons, size=n_straggle, replace=False)
            stragglers = frozenset(int(r) for r in picks)
        emit: Dict[int, float] = {}
        for rank in range(num_daemons):
            t = float(leaf_ready_time(rank))
            if cfg.jitter_mean_s > 0:
                t += float(stream.rng(f"emit/{rank}")
                           .exponential(cfg.jitter_mean_s))
            if rank in stragglers and cfg.straggler_extra_s > 0:
                t += float(stream.rng(f"straggle/{rank}")
                           .exponential(cfg.straggler_extra_s))
            emit[rank] = t
        return emit

    def _wire(self, leaf_ready_time: Callable[[int], float]) -> None:
        net, engine = self.net, self.engine
        stream = SeedStream(self.config.seed).child("tbon-stream")
        emit = self._emit_times(leaf_ready_time, net.topology.num_daemons)
        queue: Deque[Tuple[TopologyNode, int,
                           Optional[_InteriorState], int]] = \
            deque([(net.topology.root, 0, None, -1)])
        while queue:
            node, level, parent_st, slot = queue.popleft()
            if node.is_leaf:
                leaf_st = _LeafState(node)
                self._states[node.node_id] = leaf_st
                Process(engine,
                        self._guard(self._daemon(
                            leaf_st, parent_st, slot, emit[node.rank])),
                        name=f"daemon-{node.rank}")
                continue
            net._check_fanout(node)
            st = _InteriorState(
                node, level, parent_st, slot,
                nic=Resource(engine, 1, name=f"nic-{node.node_id}"),
                link_rng=stream.rng(f"link/{node.node_id}"))
            self._states[node.node_id] = st
            if parent_st is None:
                self._root = st
            for i, child in enumerate(node.children):
                queue.append((child, level + 1, st, i))

    # -- process plumbing --------------------------------------------------
    def _guard(self, gen):
        """Record a process failure and halt the engine instead of
        letting :class:`~repro.sim.process.Process` swallow it."""
        try:
            yield from gen
        except Exception as error:
            if self._error is None:
                self._error = error
            self.engine.stop()

    def _daemon(self, leaf_st: _LeafState, parent_st: _InteriorState,
                slot: int, emit_time: float):
        rank = leaf_st.node.rank
        detect = self.config.failure_detect_s
        emit_time, alive = resolve_leaf(
            self._stats, rank, emit_time, self._faults, self._retry,
            detect, self._on_daemon_failure)
        if not alive:
            # The parent gives up at `emit_time` — crash detection
            # timeout, or the end of an exhausted retry budget.
            self._missing_at(emit_time, parent_st, slot)
            return
        yield self.engine.timeout(emit_time)
        try:
            payload = self._leaf_payload_fn(rank)
        except DaemonFailure as err:
            declare_dead(self._stats, rank, self._on_daemon_failure, err)
            self._missing_at(self.engine.now + detect, parent_st, slot)
            return
        leaf_st.partial = payload
        leaf_st.partial_ranks = (rank,)
        if self._stats.first_tree_time < 0:
            # Events run in time order, so the first emission seen is
            # the earliest: a best-effort snapshot is non-empty from
            # this instant on.
            self._stats.first_tree_time = self.engine.now
            self._emit_progress("first_tree",
                                {"sim_time": self.engine.now})
        yield from self._transfer(leaf_st, parent_st, slot,
                                  payload, (rank,))

    def _missing_at(self, when: float, parent_st: _InteriorState,
                    slot: int) -> None:
        self.engine.schedule(
            when, lambda: self._mark_missing(parent_st, slot))

    def _mark_missing(self, st: _InteriorState, slot: int) -> None:
        st.slots[slot] = _MISSING
        self._advance(st)

    def _transfer(self, sender_st, parent_st: _InteriorState, slot: int,
                  payload: Any, ranks: Tuple[int, ...]):
        """Move one payload across a link: serialize on the receiver's
        ingress NIC, then hand ownership over atomically on arrival.

        Plays :func:`repro.tbon.retry.transmit`'s steps as engine
        events; an exhausted retry budget degrades the sender's whole
        subtree to missing ranklists (the exactly-once invariant holds:
        the payload leaves the network in the same event that declares
        it lost).
        """
        stats = self._stats
        nbytes = self._payload_nbytes(payload)
        steps = transmit(stats, self._faults, self._retry,
                         parent_st.node.node_id, slot, parent_st.level,
                         payload, nbytes, ranks)
        try:
            while True:
                kind, amount = next(steps)
                if kind == WAIT:
                    yield self.engine.timeout(amount)
                    continue
                yield parent_st.nic.acquire()
                try:
                    seconds = self.net.machine.transfer_time(amount)
                    if self.config.link_jitter > 0:
                        seconds *= 1.0 + float(
                            parent_st.link_rng.uniform(
                                0.0, self.config.link_jitter))
                    yield self.engine.timeout(seconds)
                finally:
                    parent_st.nic.release()
        except StopIteration as verdict:
            delivered = verdict.value
        # Arrival or loss: the payload leaves the sender in this event —
        # into the receiver's reorder buffer, or out of the network —
        # never double-counted, never silently dropped.
        sender_st.partial = None
        sender_st.partial_ranks = ()
        if not delivered:
            self._mark_missing(parent_st, slot)
            return
        parent_st.ingress_bytes += nbytes
        self.net._check_ingress(parent_st.node, parent_st.ingress_bytes,
                                stats)
        parent_st.buffer[slot] = (payload, nbytes, ranks)
        parent_st.slots[slot] = _ARRIVED
        self._advance(parent_st)

    # -- canonical-order incremental folding -------------------------------
    def _advance(self, st: _InteriorState) -> None:
        """Fold the next in-order child if it has arrived; skip dead
        ones.  Folds serialize on the node's (single) filter CPU.

        The fold charges filter CPU for the merged node count; a
        deferred payload answers that without merging (see
        :class:`~repro.statbench.emulator.DaemonTrees`), so the k-way
        runs once, when the finished partial is read for its uplink."""
        if st.folding or st.done:
            return
        while st.next_slot < len(st.slots) and \
                st.slots[st.next_slot] == _MISSING:
            st.next_slot += 1
        if st.next_slot >= len(st.slots):
            self._complete(st)
            return
        if st.slots[st.next_slot] != _ARRIVED:
            return  # canonical order: wait for the next child in line
        slot = st.next_slot
        payload, nbytes, ranks = st.buffer[slot]
        if st.partial is None:
            merged = payload  # first live child passes through unmerged
            merged_ranks = ranks
        else:
            merged = self._merge_fn([st.partial, payload])
            merged_ranks = st.partial_ranks + ranks
            self._stats.partial_merges += 1
        cpu = self.net.filter_seconds(
            st.node, 1, nbytes, self._payload_nodes(merged))
        self._stats.filter_seconds += cpu
        st.folding = True

        def commit() -> None:
            del st.buffer[slot]
            st.slots[slot] = _FOLDED
            st.partial = merged
            st.partial_ranks = merged_ranks
            st.next_slot = slot + 1
            st.folding = False
            if st.parent is None:
                self._emit_progress("root_fold", {
                    "sim_time": self.engine.now,
                    "covered": float(len(merged_ranks)),
                    "daemons": float(self.net.topology.num_daemons),
                })
            self._advance(st)

        self.engine.schedule(self.engine.now + cpu, commit)

    def _emit_progress(self, event: str, info: Dict[str, float]) -> None:
        if self._progress_fn is not None:
            self._progress_fn(event, info)

    def _complete(self, st: _InteriorState) -> None:
        st.done = True
        if st.parent is None:
            return  # front end holds the final tree; run() collects it
        if st.partial is None:
            # Whole subtree dead: close the stream to the parent.
            self._mark_missing(st.parent, st.slot_in_parent)
            return
        Process(self.engine,
                self._guard(self._transfer(
                    st, st.parent, st.slot_in_parent,
                    st.partial, st.partial_ranks)),
                name=f"uplink-{st.node.node_id}")

    # -- driving -----------------------------------------------------------
    def run_until(self, sim_time: float) -> "StreamingReduction":
        """Advance the simulation to ``sim_time`` and pause."""
        self.engine.run(until=sim_time)
        if self._error is not None:
            raise self._error
        return self

    def run(self) -> StreamResult:
        """Drain the simulation and return the final result."""
        if self._result is not None:
            return self._result
        with PERF.timer(TBON_STREAM_WALL_SECONDS):
            self.engine.run()
        if self._error is not None:
            raise self._error
        root = self._root
        assert root is not None
        if root.partial is None:
            raise AllDaemonsFailed(len(self._stats.missing_daemons),
                                   self.net.topology.num_daemons)
        stats = self._stats
        stats.payload = root.partial
        stats.sim_time = self.engine.now
        stats.missing_daemons.sort()
        if stats.first_tree_time < 0:
            stats.first_tree_time = 0.0
        PERF.add(TBON_REDUCTIONS)
        PERF.add(TBON_BYTES, stats.bytes_total)
        PERF.add(TBON_MESSAGES, stats.messages)
        PERF.add(TBON_PARTIAL_MERGES, stats.partial_merges)
        self._result = stats
        return stats

    # -- snapshots ---------------------------------------------------------
    def coverage(self) -> int:
        """Daemon ranks currently represented in-network (no merging).

        A cheap alternative to :meth:`snapshot` for progress reporting —
        a state scan, no k-way merge.  Monotone non-decreasing in time.
        """
        count = 0
        for st in self._states.values():
            count += len(st.partial_ranks)
            for _, _, slot_ranks in st.buffer.values():
                count += len(slot_ranks)
        return count

    def snapshot(self) -> Snapshot:
        """Best-effort merged tree over everything emitted so far.

        Deterministic for a fixed config at a fixed instant: payloads
        are collected in BFS node order (committed partial first, then
        the reorder buffer in child order at each interior node) and
        merged k-way.  Coverage is monotone non-decreasing in time.
        """
        payloads: List[Any] = []
        ranks: List[int] = []
        for node in self.net.topology.nodes:
            st = self._states[node.node_id]
            if st.partial is not None:
                payloads.append(st.partial)
                ranks.extend(st.partial_ranks)
            for slot in sorted(st.buffer):
                payload, _, slot_ranks = st.buffer[slot]
                payloads.append(payload)
                ranks.extend(slot_ranks)
        PERF.add(TBON_SNAPSHOTS)
        if not payloads:
            return Snapshot(payload=None, ranks=(),
                            sim_time=self.engine.now, num_parts=0)
        merged = self._merge_fn(payloads) if len(payloads) > 1 \
            else payloads[0]
        return Snapshot(payload=merged, ranks=tuple(sorted(ranks)),
                        sim_time=self.engine.now,
                        num_parts=len(payloads))


class StreamingTBON(TBONCostBase):
    """An event-driven TBO̅N sharing :class:`TBONCostBase`'s cost model.

    Identical placement, CPU dilation, capacity limits, and transfer
    times as the batch :class:`~repro.tbon.network.TBONetwork` — the two
    modes differ only in *scheduling* (lockstep rounds vs. event-driven
    arrivals), so streamed and batch results are directly comparable.
    """

    def stream(self,
               leaf_payload_fn: Callable[[int], Any],
               merge_fn: Callable[[List[Any]], Any],
               payload_nbytes: Callable[[Any], int],
               payload_nodes: Optional[Callable[[Any], int]] = None,
               leaf_ready_time: Callable[[int], float] = lambda d: 0.0,
               on_daemon_failure: str = "skip",
               config: Optional[StreamConfig] = None,
               progress_fn: Optional[
                   Callable[[str, Dict[str, float]], None]] = None,
               faults: Optional[FaultInjector] = None,
               retry: Optional[RetryPolicy] = None,
               ) -> StreamingReduction:
        """Wire up (but do not run) one streamed reduction.

        Parameters mirror :meth:`TBONetwork.reduce`; ``config`` adds the
        stochastic environment.  ``on_daemon_failure`` defaults to
        ``"skip"`` here — degrading to missing ranklists is the point of
        streaming.  ``progress_fn(event, info)`` is invoked inside the
        simulation at ``"first_tree"`` (earliest emission) and every
        ``"root_fold"`` (front-end commit, with coverage counts).
        ``faults`` / ``retry`` bind a fault plan exactly as in the batch
        reduce (same failure path, :mod:`repro.tbon.retry`).
        """
        return StreamingReduction(
            self, leaf_payload_fn, merge_fn, payload_nbytes,
            payload_nodes, leaf_ready_time, on_daemon_failure,
            config or StreamConfig(), progress_fn=progress_fn,
            faults=faults, retry=retry)

    def reduce(self, *args: Any, **kwargs: Any) -> StreamResult:
        """Convenience: :meth:`stream` then run to completion."""
        return self.stream(*args, **kwargs).run()
