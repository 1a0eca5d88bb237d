"""TBO̅N topology construction with the paper's fanout rules.

Depth terminology follows the paper: an *n-deep* tree has n hops from the
front end down to the daemons, so 1-deep is the flat 1-to-N star (no
communication processes), 2-deep has one CP layer, 3-deep has two.

Section III specifies exactly how the evaluation trees were shaped:

* Atlas balanced trees — "for an n-deep tree, the maximum fanout is set to
  the nth root of the number of daemons" (:meth:`Topology.balanced`).
* BG/L 2-deep — "a fanout from the front end equal to the square root of
  the number of daemons or 28, whichever is less"
  (:meth:`Topology.bgl_two_deep`).
* BG/L 3-deep — "the 3-deep tree has a fanout from the front end equal
  to 4. The next level employs either 16 or 24 communication processes,
  depending on the job scale" (:meth:`Topology.bgl_three_deep`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, List, Optional, Sequence

__all__ = ["Role", "TopologyNode", "Topology"]


class Role(Enum):
    """What kind of tool process occupies a tree node."""

    FRONTEND = "frontend"
    COMM = "comm"
    DAEMON = "daemon"


@dataclass
class TopologyNode:
    """One process in the overlay tree."""

    node_id: int
    role: Role
    parent: Optional["TopologyNode"] = None
    children: List["TopologyNode"] = field(default_factory=list)
    #: daemon index for leaves (0..D-1); CP index for comm processes
    rank: int = -1
    #: placement host id (meaningful for comm processes; -1 = dedicated)
    host: int = -1

    @property
    def is_leaf(self) -> bool:
        """True for daemon nodes."""
        return self.role is Role.DAEMON

    def __repr__(self) -> str:
        return (f"<TopologyNode {self.node_id} {self.role.value}"
                f" rank={self.rank} children={len(self.children)}>")


def _split_evenly(count: int, parts: int) -> List[int]:
    """Split ``count`` items into ``parts`` contiguous groups, sizes within 1."""
    base, extra = divmod(count, parts)
    return [base + (1 if i < extra else 0) for i in range(parts)]


class Topology:
    """An immutable overlay tree over ``num_daemons`` leaves.

    Nodes are created breadth-first with stable integer ids (front end is
    node 0); leaves carry daemon ranks 0..D-1 in left-to-right order so
    that hierarchical-label concatenation order is deterministic.
    """

    def __init__(self, root: TopologyNode, num_daemons: int, label: str) -> None:
        self.root = root
        self.num_daemons = num_daemons
        self.label = label
        self._nodes: List[TopologyNode] = []
        self._leaves: List[TopologyNode] = []
        self._index(root)
        if len(self._leaves) != num_daemons:
            raise ValueError(
                f"topology has {len(self._leaves)} leaves, expected {num_daemons}")

    def _index(self, root: TopologyNode) -> None:
        # Breadth-first: the node list is its own queue, walked by index.
        nodes = self._nodes
        nodes.append(root)
        i = 0
        while i < len(nodes):
            nodes.extend(nodes[i].children)
            i += 1
        for node in nodes:
            if node.is_leaf:
                node.rank = len(self._leaves)
                self._leaves.append(node)

    # -- construction ------------------------------------------------------
    @classmethod
    def flat(cls, num_daemons: int) -> "Topology":
        """1-deep: the front end is directly connected to every daemon."""
        cls._check_daemons(num_daemons)
        root = TopologyNode(0, Role.FRONTEND)
        for i in range(num_daemons):
            leaf = TopologyNode(i + 1, Role.DAEMON, parent=root)
            root.children.append(leaf)
        return cls(root, num_daemons, "1-deep")

    @classmethod
    def balanced(cls, num_daemons: int, depth: int) -> "Topology":
        """n-deep tree with max fanout = ceil(D ** (1/depth)) (Atlas rule)."""
        cls._check_daemons(num_daemons)
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if depth == 1:
            return cls.flat(num_daemons)
        fanout = max(2, math.ceil(num_daemons ** (1.0 / depth)))
        counter = [0]

        def new_node(role: Role, parent: Optional[TopologyNode]) -> TopologyNode:
            node = TopologyNode(counter[0], role, parent=parent)
            counter[0] += 1
            if parent is not None:
                parent.children.append(node)
            return node

        root = new_node(Role.FRONTEND, None)

        def build(parent: TopologyNode, leaves: int, levels_left: int) -> None:
            if levels_left == 1:
                for _ in range(leaves):
                    new_node(Role.DAEMON, parent)
                return
            groups = _split_evenly(leaves, min(fanout, leaves))
            for size in groups:
                if size == 0:
                    continue
                cp = new_node(Role.COMM, parent)
                build(cp, size, levels_left - 1)

        build(root, num_daemons, depth)
        return cls(root, num_daemons, f"{depth}-deep")

    @classmethod
    def two_deep(cls, num_daemons: int, num_cps: int,
                 label: str = "2-deep") -> "Topology":
        """One CP layer of exactly ``num_cps`` processes."""
        cls._check_daemons(num_daemons)
        if not 1 <= num_cps <= num_daemons:
            raise ValueError(
                f"num_cps must be in [1, {num_daemons}], got {num_cps}")
        counter = [0]
        root = TopologyNode(0, Role.FRONTEND)
        counter[0] = 1
        for size in _split_evenly(num_daemons, num_cps):
            cp = TopologyNode(counter[0], Role.COMM, parent=root)
            counter[0] += 1
            root.children.append(cp)
            for _ in range(size):
                leaf = TopologyNode(counter[0], Role.DAEMON, parent=cp)
                counter[0] += 1
                cp.children.append(leaf)
        return cls(root, num_daemons, label)

    @classmethod
    def bgl_two_deep(cls, num_daemons: int) -> "Topology":
        """The paper's BG/L 2-deep rule: min(round(sqrt(D)), 28) CPs."""
        cls._check_daemons(num_daemons)
        num_cps = min(max(1, round(math.sqrt(num_daemons))), 28)
        return cls.two_deep(num_daemons, num_cps, label="2-deep")

    @classmethod
    def bgl_three_deep(cls, num_daemons: int,
                       mid_cps: Optional[int] = None) -> "Topology":
        """The paper's BG/L 3-deep rule: FE fanout 4, then 16 or 24 CPs.

        ``mid_cps`` defaults to 16 for jobs up to 512 daemons and 24 beyond
        ("depending on the job scale").
        """
        cls._check_daemons(num_daemons)
        if mid_cps is None:
            mid_cps = 16 if num_daemons <= 512 else 24
        if mid_cps % 4:
            raise ValueError("mid_cps must be divisible by the FE fanout of 4")
        mid_cps = min(mid_cps, num_daemons)
        fe_fanout = min(4, mid_cps)
        counter = [1]
        root = TopologyNode(0, Role.FRONTEND)

        def new_node(role: Role, parent: TopologyNode) -> TopologyNode:
            node = TopologyNode(counter[0], role, parent=parent)
            counter[0] += 1
            parent.children.append(node)
            return node

        level1 = [new_node(Role.COMM, root) for _ in range(fe_fanout)]
        mids_per_l1 = _split_evenly(mid_cps, fe_fanout)
        level2: List[TopologyNode] = []
        for l1, n_mid in zip(level1, mids_per_l1):
            level2.extend(new_node(Role.COMM, l1) for _ in range(n_mid))
        for l2, size in zip(level2, _split_evenly(num_daemons, len(level2))):
            for _ in range(size):
                new_node(Role.DAEMON, l2)
        # Drop any CP that received no daemons (tiny jobs).
        topo = cls(root, num_daemons, "3-deep")
        topo._prune_empty()
        return topo

    def _prune_empty(self) -> None:
        """Remove CP nodes with no leaves below them, then re-index."""

        def has_leaf(node: TopologyNode) -> bool:
            if node.is_leaf:
                return True
            node.children = [c for c in node.children if has_leaf(c)]
            return bool(node.children) or node.role is Role.FRONTEND

        has_leaf(self.root)
        self._nodes.clear()
        self._leaves.clear()
        self._index(self.root)

    @staticmethod
    def _check_daemons(num_daemons: int) -> None:
        if num_daemons < 1:
            raise ValueError(f"num_daemons must be >= 1, got {num_daemons}")

    # -- queries ---------------------------------------------------------
    @property
    def nodes(self) -> Sequence[TopologyNode]:
        """All nodes, breadth-first (front end first)."""
        return self._nodes

    @property
    def leaves(self) -> Sequence[TopologyNode]:
        """Daemon nodes in rank order."""
        return self._leaves

    @property
    def comm_processes(self) -> List[TopologyNode]:
        """Internal CP nodes, breadth-first."""
        return [n for n in self._nodes if n.role is Role.COMM]

    @property
    def depth(self) -> int:
        """Hops from the front end to the deepest daemon."""
        best = 0

        def rec(node: TopologyNode, d: int) -> None:
            nonlocal best
            if node.is_leaf:
                best = max(best, d)
            for child in node.children:
                rec(child, d + 1)

        rec(self.root, 0)
        return best

    @property
    def max_fanout(self) -> int:
        """Largest child count over all internal nodes."""
        return max((len(n.children) for n in self._nodes if n.children),
                   default=0)

    def assign_hosts(self, host_of_cp: "callable") -> None:
        """Place CPs on hosts (``host_of_cp(cp_index) -> host id``)."""
        for i, cp in enumerate(self.comm_processes):
            cp.host = host_of_cp(i)
            cp.rank = i

    def postorder(self) -> Iterator[TopologyNode]:
        """Children-before-parents traversal (the reduction order)."""
        stack: List[tuple] = [(self.root, False)]
        while stack:
            node, visited = stack.pop()
            if visited:
                yield node
            else:
                stack.append((node, True))
                for child in reversed(node.children):
                    stack.append((child, False))

    def validate(self) -> None:
        """Structural invariants; raises ``ValueError`` on violation."""
        if self.root.role is not Role.FRONTEND:
            raise ValueError("root must be the front end")
        seen_ids = set()
        for node in self._nodes:
            if node.node_id in seen_ids:
                raise ValueError(f"duplicate node id {node.node_id}")
            seen_ids.add(node.node_id)
            for child in node.children:
                if child.parent is not node:
                    raise ValueError("child/parent link mismatch")
            if node.role is Role.DAEMON and node.children:
                raise ValueError("daemons must be leaves")
            if node.role is Role.COMM and not node.children:
                raise ValueError("communication process with no children")
        ranks = [leaf.rank for leaf in self._leaves]
        if ranks != list(range(self.num_daemons)):
            raise ValueError("leaf ranks are not 0..D-1 in order")

    def describe(self) -> str:
        """Summary like ``2-deep: D=512 cps=23 depth=2 fanout<=23``."""
        return (f"{self.label}: D={self.num_daemons} "
                f"cps={len(self.comm_processes)} depth={self.depth} "
                f"fanout<={self.max_fanout}")

    def __repr__(self) -> str:
        return f"<Topology {self.describe()}>"
