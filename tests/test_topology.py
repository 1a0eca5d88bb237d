"""Unit tests for TBO̅N topology construction (Section III rules)."""

import hashlib
import math
from collections import deque

import pytest

from repro.tbon.spec import parse_shape, to_topology_file
from repro.tbon.topology import Role, Topology, TopologyNode


class TestFlat:
    def test_structure(self):
        topo = Topology.flat(16)
        topo.validate()
        assert topo.depth == 1
        assert len(topo.comm_processes) == 0
        assert len(topo.leaves) == 16
        assert topo.max_fanout == 16

    def test_single_daemon(self):
        topo = Topology.flat(1)
        topo.validate()
        assert topo.depth == 1

    def test_zero_daemons_rejected(self):
        with pytest.raises(ValueError):
            Topology.flat(0)


class TestBalanced:
    def test_depth_one_is_flat(self):
        assert Topology.balanced(16, 1).label == "1-deep"

    @pytest.mark.parametrize("daemons,depth", [
        (16, 2), (512, 2), (512, 3), (1000, 3), (7, 2),
    ])
    def test_fanout_rule(self, daemons, depth):
        """'maximum fanout is set to the nth root of the number of daemons'"""
        topo = Topology.balanced(daemons, depth)
        topo.validate()
        assert topo.depth == depth
        limit = max(2, math.ceil(daemons ** (1.0 / depth)))
        # the root may take the remainder; allow +1 from even splitting
        assert topo.max_fanout <= limit + 1

    def test_all_daemons_present(self):
        topo = Topology.balanced(100, 3)
        assert len(topo.leaves) == 100
        assert [leaf.rank for leaf in topo.leaves] == list(range(100))

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            Topology.balanced(16, 0)


class TestBglTwoDeep:
    def test_sqrt_rule_small(self):
        """CPs = round(sqrt(D)) when below the 28 cap."""
        topo = Topology.bgl_two_deep(256)
        assert len(topo.comm_processes) == 16

    def test_cap_at_28(self):
        """'the square root of the number of daemons or 28, whichever is
        less' — full machine: sqrt(1664) ~ 41 -> 28."""
        topo = Topology.bgl_two_deep(1664)
        assert len(topo.comm_processes) == 28

    def test_children_balanced_within_one(self):
        topo = Topology.bgl_two_deep(1664)
        sizes = [len(cp.children) for cp in topo.comm_processes]
        assert max(sizes) - min(sizes) <= 1

    def test_explicit_two_deep_validation(self):
        with pytest.raises(ValueError):
            Topology.two_deep(8, 0)
        with pytest.raises(ValueError):
            Topology.two_deep(8, 9)


class TestBglThreeDeep:
    def test_fe_fanout_is_four(self):
        topo = Topology.bgl_three_deep(1664)
        assert len(topo.root.children) == 4

    def test_mid_layer_16_small_jobs(self):
        """'either 16 or 24 communication processes, depending on scale'"""
        topo = Topology.bgl_three_deep(512)
        assert len(topo.comm_processes) == 4 + 16

    def test_mid_layer_24_large_jobs(self):
        topo = Topology.bgl_three_deep(1664)
        assert len(topo.comm_processes) == 4 + 24

    def test_depth_is_three(self):
        assert Topology.bgl_three_deep(1664).depth == 3

    def test_small_job_pruning(self):
        """Tiny jobs must not leave childless CPs behind."""
        topo = Topology.bgl_three_deep(8)
        topo.validate()
        for cp in topo.comm_processes:
            assert cp.children

    def test_mid_cps_divisibility(self):
        with pytest.raises(ValueError):
            Topology.bgl_three_deep(64, mid_cps=6)


class TestTopologyInfrastructure:
    def test_postorder_children_before_parents(self):
        topo = Topology.balanced(8, 2)
        seen = set()
        for node in topo.postorder():
            for child in node.children:
                assert child.node_id in seen
            seen.add(node.node_id)

    def test_assign_hosts_round_robin(self):
        topo = Topology.bgl_two_deep(1664)
        topo.assign_hosts(lambda i: i % 14)
        hosts = [cp.host for cp in topo.comm_processes]
        assert max(hosts) == 13
        assert hosts[0] == 0 and hosts[14] == 0

    def test_describe_mentions_shape(self):
        text = Topology.bgl_two_deep(1664).describe()
        assert "D=1664" in text and "cps=28" in text

    def test_validate_catches_broken_parent_link(self):
        topo = Topology.flat(2)
        topo.leaves[0].parent = topo.leaves[1]
        with pytest.raises(ValueError):
            topo.validate()

    def test_leaf_ranks_in_order(self):
        topo = Topology.bgl_three_deep(100)
        assert [leaf.rank for leaf in topo.leaves] == list(range(100))

    def test_roles(self):
        topo = Topology.bgl_two_deep(16)
        assert topo.root.role is Role.FRONTEND
        assert all(n.role is Role.DAEMON for n in topo.leaves)


def _pruned_topology() -> Topology:
    """Three CPs under the front end; the middle one has only an empty CP."""
    root = TopologyNode(0, Role.FRONTEND)
    next_id = [1]

    def add(role, parent):
        node = TopologyNode(next_id[0], role, parent=parent)
        next_id[0] += 1
        parent.children.append(node)
        return node

    left, middle, right = (add(Role.COMM, root) for _ in range(3))
    add(Role.COMM, middle)
    for parent, count in ((left, 2), (right, 3)):
        for _ in range(count):
            add(Role.DAEMON, parent)
    topo = Topology(root, 5, "pruned")
    topo._prune_empty()
    return topo


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestIndexOrder:
    """``Topology._index`` keeps node ids, BFS order, leaf ranks and bytes.

    Each case pins sha256 prefixes of the node-id sequence, the rank
    sequence and the ``to_topology_file`` text, and checks the node
    order against an independent ``deque`` breadth-first walk.
    """

    #: (shape, daemons) -> (node ids, ranks, topology file)
    PINS = {
        ("flat", 7): ("1eacc8c10d0cdd8e", "b5094077e0d11571",
                      "0578235691a03310"),
        ("flat", 1664): ("35054ca6081e61c4", "1c974c8e2dac5e67",
                         "3285841ad3bfd6d0"),
        ("balanced:2", 7): ("62cf2984a1e677f8", "858d8fd769da3c84",
                            "a54bc867c7972881"),
        ("balanced:2", 1664): ("a7ff0411e44bfdce", "10fe202c4d35899f",
                               "f9bb07fac2571288"),
        ("balanced:3", 7): ("efd720d0a2498191", "19129d2300c39fec",
                            "033c639cc1279171"),
        ("balanced:3", 1664): ("fe82ff0f28661365", "a6fd42f1c129fc99",
                               "62b366d87247a209"),
        ("bgl-2deep", 7): ("62cf2984a1e677f8", "858d8fd769da3c84",
                           "a54bc867c7972881"),
        ("bgl-2deep", 1664): ("90dd702ddb330a57", "e8f8d8c547a4ed5a",
                              "1e74ac913451610a"),
        ("bgl-3deep", 7): ("381e1b362cade6ac", "0789b4fad077f2c2",
                           "51233ab079e5630c"),
        ("bgl-3deep", 1664): ("9883b48cd0ddba76", "e8f8d8c547a4ed5a",
                              "78ecb8493c0ddab4"),
        ("pruned", 5): ("7e20b7d20b45d219", "e67bd78068e73cb1",
                        "6ab7fe30b7d6b41d"),
    }

    @pytest.mark.parametrize("shape,daemons", sorted(PINS))
    def test_index_is_unchanged(self, shape, daemons):
        topo = _pruned_topology() if shape == "pruned" \
            else parse_shape(shape, daemons)
        topo.validate()
        queue, bfs = deque([topo.root]), []
        while queue:
            node = queue.popleft()
            bfs.append(node)
            queue.extend(node.children)
        assert [id(n) for n in topo.nodes] == [id(n) for n in bfs]
        assert list(topo.leaves) == [n for n in bfs if n.is_leaf]
        assert [leaf.rank for leaf in topo.leaves] == list(range(daemons))
        got = (_digest(",".join(str(n.node_id) for n in topo.nodes)),
               _digest(",".join(str(n.rank) for n in topo.nodes)),
               _digest(to_topology_file(topo)))
        assert got == self.PINS[(shape, daemons)]
