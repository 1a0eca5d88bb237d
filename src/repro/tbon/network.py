"""Timed TBO̅N reduction and broadcast.

The network executes filters **for real** — the merge callable receives the
actual child payloads (prefix trees) and produces the actual merged payload
— while a deterministic timing recursion charges the simulated clock for:

* per-hop transfer: ``latency + bytes / bandwidth``, with real byte counts
  taken from the payloads' serialized sizes;
* **ingress serialization**: transfers arriving at one tree node share that
  node's NIC, so a flat 1-to-N star pays N back-to-back transfer times at
  the front end — the linear term of Figures 4 and 5;
* filter CPU: linear in bytes processed and output-tree nodes, dilated when
  several communication processes share a login node (BG/L's 14-login-node
  constraint);
* a per-child message overhead (packet unpack + syscall path).

Failure modeling: real MRNet on BG/L could not merge a flat tree beyond
256 I/O-node connections (Section V-A).  ``max_children`` reproduces this
as a hard :class:`TBONOverflowError`; ``max_ingress_bytes`` is an optional
alternative trigger on buffered bytes.

Payloads are produced lazily (``leaf_payload_fn``) and children are merged
and released in postorder, so peak memory is about one node's children and
grandchildren (a deferred merge keeps its children until the parent reads
it) — this is what makes full-scale 1,664-daemon runs feasible in-process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults.inject import FaultInjector
from repro.faults.plan import RetryPolicy
from repro.machine.base import MachineModel
from repro.perf.counters import (
    PERF,
    TBON_BYTES,
    TBON_MESSAGES,
    TBON_REDUCE_WALL_SECONDS,
    TBON_REDUCTIONS,
)
from repro.tbon.retry import (
    WAIT,
    AllDaemonsFailed,
    DaemonFailure,
    declare_dead,
    failure_policy,
    resolve_leaf,
    transmit,
)
from repro.tbon.topology import Role, Topology, TopologyNode

__all__ = [
    "FilterCostModel",
    "ReduceResult",
    "BroadcastResult",
    "TBONCostBase",
    "TBONetwork",
    "TBONOverflowError",
    "DaemonFailure",
]


class TBONOverflowError(RuntimeError):
    """A tree node exceeded its connection or buffering capacity.

    Models the Section V-A observation that the flat topology "fails to
    merge the graphs at 16,384 compute nodes (256 I/O nodes)" on BG/L.
    """


@dataclass(frozen=True)
class FilterCostModel:
    """CPU cost of running a filter over one node's children.

    ``seconds = scale * (per_message * n_children + per_byte * bytes_in
    + per_tree_node * merged_nodes)`` — then dilated by host sharing.
    ``cpu_scale`` lets slower hosts (BG/L's 1.6 GHz Power5 login nodes vs
    Atlas's dedicated Opterons) reuse one set of base constants.
    """

    per_byte: float = 4.0e-9
    per_tree_node: float = 1.5e-6
    per_message: float = 2.5e-4
    cpu_scale: float = 1.0

    def cost(self, n_children: int, bytes_in: int, merged_nodes: int) -> float:
        """Filter seconds before host dilation."""
        return self.cpu_scale * (self.per_message * n_children
                                 + self.per_byte * bytes_in
                                 + self.per_tree_node * merged_nodes)


@dataclass
class ReduceResult:
    """Outcome of one full reduction to the front end."""

    payload: Any
    sim_time: float
    bytes_total: int = 0
    messages: int = 0
    max_node_ingress_bytes: int = 0
    filter_seconds: float = 0.0
    per_level_bytes: Dict[int, int] = field(default_factory=dict)
    #: daemons that failed and were skipped (on_daemon_failure="skip")
    missing_daemons: List[int] = field(default_factory=list)
    #: bounded retry attempts spent absorbing injected faults
    retries: int = 0
    #: transmissions lost in flight on faulted links
    dropped_messages: int = 0
    #: corrupted payloads caught by the receiver-side checksum
    corrupt_detected: int = 0
    #: degradation events (leaf deaths + exhausted-uplink subtree losses)
    missing_subtrees: int = 0

    def network_profile(self) -> str:
        """Human-readable transfer/filter accounting (per tree level)."""
        lines = [
            f"reduction completed at t={self.sim_time:.4f}s: "
            f"{self.messages} messages, {self.bytes_total / 1e6:.2f} MB "
            f"total, filter CPU {self.filter_seconds:.4f}s",
            f"  max single-node ingress: "
            f"{self.max_node_ingress_bytes / 1e6:.3f} MB",
        ]
        for level in sorted(self.per_level_bytes):
            mb = self.per_level_bytes[level] / 1e6
            lines.append(f"  level {level} ingress: {mb:.3f} MB")
        if self.retries or self.dropped_messages or self.corrupt_detected:
            lines.append(
                f"  faults: {self.retries} retries, "
                f"{self.dropped_messages} dropped, "
                f"{self.corrupt_detected} corrupt (detected)")
        if self.missing_daemons:
            lines.append(f"  MISSING daemons: {self.missing_daemons}")
        return "\n".join(lines)


@dataclass
class BroadcastResult:
    """Outcome of a front-end-to-all-daemons broadcast."""

    sim_time: float
    bytes_total: int = 0
    messages: int = 0


class TBONCostBase:
    """Placement, CPU-dilation, and capacity model shared by TBO̅N modes.

    Both the batch :class:`TBONetwork` and the event-driven
    :class:`~repro.tbon.streaming.StreamingTBON` bind a topology to a
    machine the same way: communication processes are packed onto login
    nodes (dilating their filter CPU), fan-in and ingress buffering are
    capped per Section V-A, and filter cost follows one
    :class:`FilterCostModel`.  Keeping this here guarantees the two modes
    charge identical costs for identical work, so their timings differ
    only by *scheduling* (lockstep rounds vs. event-driven arrivals).
    """

    def __init__(self, topology: Topology, machine: MachineModel,
                 filter_cost: Optional[FilterCostModel] = None,
                 max_children: Optional[int] = None,
                 max_ingress_bytes: Optional[int] = None) -> None:
        topology.validate()
        self.topology = topology
        self.machine = machine
        self.filter_cost = filter_cost or FilterCostModel()
        if max_children is None and "max_tool_children" in machine.extras:
            max_children = int(machine.extras["max_tool_children"])
        self.max_children = max_children
        self.max_ingress_bytes = max_ingress_bytes
        # Host placement / CPU dilation for communication processes.
        topology.assign_hosts(machine.cp_hosts.host_of)
        cps_per_host: Dict[int, int] = {}
        for cp in topology.comm_processes:
            cps_per_host[cp.host] = cps_per_host.get(cp.host, 0) + 1
        self._host_slowdown = {
            host: machine.cp_hosts.slowdown(count)
            for host, count in cps_per_host.items()
        }

    def _slowdown(self, node: TopologyNode) -> float:
        if node.role is Role.COMM:
            return self._host_slowdown.get(node.host, 1.0)
        return 1.0  # front end runs on a dedicated node

    def _check_fanout(self, node: TopologyNode) -> None:
        if self.max_children is not None and \
                len(node.children) > self.max_children:
            raise TBONOverflowError(
                f"{node.role.value} node {node.node_id} has "
                f"{len(node.children)} children; limit is "
                f"{self.max_children} on {self.machine.name}")

    def _check_ingress(self, node: TopologyNode, ingress_bytes: int,
                       stats: "ReduceResult") -> None:
        if self.max_ingress_bytes is not None and \
                ingress_bytes > self.max_ingress_bytes:
            raise TBONOverflowError(
                f"node {node.node_id} buffered {ingress_bytes} bytes; "
                f"limit is {self.max_ingress_bytes}")
        stats.max_node_ingress_bytes = max(
            stats.max_node_ingress_bytes, ingress_bytes)

    def filter_seconds(self, node: TopologyNode, n_children: int,
                       bytes_in: int, merged_nodes: int) -> float:
        """Host-dilated filter CPU seconds for one merge at ``node``."""
        return self.filter_cost.cost(
            n_children, bytes_in, merged_nodes) * self._slowdown(node)

    def __repr__(self) -> str:
        return (f"<{type(self).__name__} {self.topology.describe()} "
                f"on {self.machine.name}>")

    # -- broadcast ---------------------------------------------------------
    def broadcast(self, nbytes: int,
                  start_time: float = 0.0) -> BroadcastResult:
        """Time a front-end-to-daemons broadcast of an ``nbytes`` message.

        Each node forwards to its children serially on its egress NIC
        (MRNet unicasts per child); children forward in parallel with each
        other.  Used for control messages and by SBRS file distribution.
        """
        if nbytes < 0:
            raise ValueError(f"negative broadcast size: {nbytes}")
        result = BroadcastResult(sim_time=start_time)

        def visit(node: TopologyNode, t_have: float) -> None:
            t_send = t_have
            for child in node.children:
                t_send += self.machine.transfer_time(nbytes)
                result.messages += 1
                result.bytes_total += nbytes
                if child.is_leaf:
                    result.sim_time = max(result.sim_time, t_send)
                else:
                    visit(child, t_send)

        visit(self.topology.root, start_time)
        return result


class TBONetwork(TBONCostBase):
    """A batch-mode TBO̅N instance bound to a topology and a machine.

    Reduces fully-materialized trees in postorder lockstep; see
    :mod:`repro.tbon.streaming` for the event-driven variant sharing this
    cost model.
    """

    # -- reduction ---------------------------------------------------------
    def reduce(self,
               leaf_payload_fn: Callable[[int], Any],
               merge_fn: Callable[[List[Any]], Any],
               payload_nbytes: Callable[[Any], int],
               payload_nodes: Optional[Callable[[Any], int]] = None,
               leaf_ready_time: Callable[[int], float] = lambda d: 0.0,
               on_daemon_failure: str = "raise",
               failure_detect_s: float = 5.0,
               faults: Optional[FaultInjector] = None,
               retry: Optional[RetryPolicy] = None,
               ) -> ReduceResult:
        """Run one filtered reduction from all daemons to the front end.

        Parameters
        ----------
        leaf_payload_fn:
            ``daemon_rank -> payload`` — called lazily, once per daemon.
        merge_fn:
            The filter body: merges a list of child payloads into one.
            It may return a deferred payload that merges when first
            read, as :meth:`STATBenchEmulator.merge_filter
            <repro.statbench.emulator.STATBenchEmulator.merge_filter>`
            does; ``payload_nbytes`` reads every payload that crosses a
            link, and the caller reads the root.
        payload_nbytes:
            Wire-size model for a payload (drives transfer times).
        payload_nodes:
            Optional payload complexity measure (prefix-tree node count)
            for the filter CPU model; defaults to 0.
        leaf_ready_time:
            Simulated time at which each daemon's payload is available
            (e.g. end of its local sampling/merge phase).
        on_daemon_failure:
            ``"raise"`` propagates :class:`DaemonFailure` from the leaf
            source; ``"skip"`` drops the dead daemon's subtree, records it
            in :attr:`ReduceResult.missing_daemons`, and charges a
            ``failure_detect_s`` socket-timeout to its parent.
        faults:
            Optional bound :class:`~repro.faults.inject.FaultInjector`.
            Injected crashes/stalls/stragglers apply at the leaves;
            link drop/corruption applies per transmission, each failed
            attempt retried under the retry policy and charged as
            simulated cost.  An injector bound from an empty plan is a
            guaranteed no-op (bit-identical result and timing).
        retry:
            Optional :class:`~repro.faults.plan.RetryPolicy` override;
            defaults to ``faults.retry``.

        Returns
        -------
        :class:`ReduceResult` with the real merged payload and the
        simulated completion time at the front end.

        Raises
        ------
        TBONOverflowError
            On fan-in or buffering limits.
        DaemonFailure
            When every daemon failed (there is nothing to merge), or on
            the first failure with ``on_daemon_failure="raise"``.
        """
        policy = failure_policy(on_daemon_failure, faults, retry)
        nodes_of = payload_nodes or (lambda p: 0)
        stats = ReduceResult(payload=None, sim_time=0.0)
        _DEAD = object()

        def visit(node: TopologyNode,
                  level: int) -> Tuple[Any, float, Sequence[int]]:
            """-> (payload | _DEAD, time available, live ranks in it)."""
            if node.is_leaf:
                rank = node.rank
                when, alive = resolve_leaf(
                    stats, rank, leaf_ready_time(rank), faults, policy,
                    failure_detect_s, on_daemon_failure)
                if not alive:
                    return _DEAD, when, ()
                try:
                    return leaf_payload_fn(rank), when, (rank,)
                except DaemonFailure as err:
                    declare_dead(stats, rank, on_daemon_failure, err)
                    return _DEAD, failure_detect_s, ()

            self._check_fanout(node)

            ends: List[float] = []
            nic_free = 0.0
            ingress_bytes = 0
            child_results = [visit(child, level + 1)
                             for child in node.children]
            # Transfers serialize on the NIC earliest-ready-first (MRNet's
            # event-driven receive; ties keep child order), but payloads
            # merge in canonical child order so the merged tree never
            # depends on the timing model — the invariant that lets the
            # streaming path (any arrival order) reproduce this result
            # bit for bit.
            order = sorted(range(len(child_results)),
                           key=lambda i: (child_results[i][1], i))
            for i in order:
                payload, ready, ranks = child_results[i]
                if payload is _DEAD:
                    # No transfer; the parent still waits out the timeout.
                    ends.append(ready)
                    continue
                nbytes = payload_nbytes(payload)
                # The shared transmission steps, summed into a clock:
                # fault-free that is one SEND, i.e. max(ready, nic_free)
                # + transfer_time.
                t = max(ready, nic_free)
                steps = transmit(stats, faults, policy, node.node_id, i,
                                 level, payload, nbytes, ranks)
                try:
                    while True:
                        kind, amount = next(steps)
                        t += amount if kind == WAIT else \
                            self.machine.transfer_time(amount)
                except StopIteration as verdict:
                    if verdict.value:
                        ingress_bytes += nbytes
                    else:  # retry budget exhausted: the subtree is lost
                        child_results[i] = (_DEAD, t, ())
                nic_free = t
                ends.append(t)
            payloads = [payload for payload, _, _ in child_results
                        if payload is not _DEAD]
            ranks = [rank for _, _, live in child_results for rank in live]
            del child_results

            self._check_ingress(node, ingress_bytes, stats)

            if not payloads:  # the whole subtree is dead
                return _DEAD, max(ends), ()
            merged = merge_fn(payloads) if len(payloads) > 1 else payloads[0]
            del payloads
            cpu = self.filter_seconds(
                node, len(node.children), ingress_bytes, nodes_of(merged))
            stats.filter_seconds += cpu
            return merged, max(ends) + cpu, ranks

        with PERF.timer(TBON_REDUCE_WALL_SECONDS):
            payload, t_done, _ = visit(self.topology.root, 0)
        if payload is _DEAD:
            raise AllDaemonsFailed(len(stats.missing_daemons),
                                   self.topology.num_daemons)
        stats.payload = payload
        stats.sim_time = t_done
        # Aggregate perf accounting: one update per reduction, not per hop.
        PERF.add(TBON_REDUCTIONS)
        PERF.add(TBON_BYTES, stats.bytes_total)
        PERF.add(TBON_MESSAGES, stats.messages)
        return stats
