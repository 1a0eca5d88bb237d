"""Property-based tests (hypothesis) on the core data structures.

These verify the algebraic laws the tool's correctness rests on: set
algebra of both label representations, losslessness of the remap, rank
list round trips, merge associativity/commutativity, and topology
invariants under arbitrary sizes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_arrays
from per_object_oracle import (
    DenseBitVector,
    HierarchicalTaskSet,
    ObjectTree,
    daemon_label,
)
from repro.core.frames import StackTrace
from repro.core.merge import DenseLabelScheme, HierarchicalLabelScheme
from repro.core.ranklist import format_rank_list, parse_rank_list
from repro.core.taskset import DaemonLayout, RankRemapper, TaskMap, row_ranks
from repro.tbon.topology import Topology

# -- strategies ------------------------------------------------------------

widths = st.integers(min_value=1, max_value=300)


@st.composite
def dense_pair(draw):
    """Two dense vectors of one width."""
    width = draw(widths)
    ranks = st.lists(st.integers(0, width - 1), max_size=width)
    a = DenseBitVector.from_ranks(draw(ranks), width)
    b = DenseBitVector.from_ranks(draw(ranks), width)
    return a, b


@st.composite
def task_maps(draw):
    """A small task map with 1-6 daemons and mixed placement."""
    daemons = draw(st.integers(1, 6))
    per = draw(st.integers(1, 24))
    kind = draw(st.sampled_from(["block", "cyclic", "shuffled"]))
    if kind == "block":
        return TaskMap.block(daemons, per)
    if kind == "cyclic":
        return TaskMap.cyclic(daemons, per)
    seed = draw(st.integers(0, 2**16))
    return TaskMap.shuffled(daemons, per, np.random.default_rng(seed))


@st.composite
def rank_lists(draw):
    return sorted(set(draw(st.lists(st.integers(0, 10_000), max_size=60))))


# -- dense bit vectors ---------------------------------------------------------

class TestDenseAlgebra:
    @given(dense_pair())
    def test_union_commutative(self, pair):
        a, b = pair
        assert a | b == b | a

    @given(dense_pair())
    def test_union_idempotent(self, pair):
        a, _ = pair
        assert a | a == a

    @given(dense_pair())
    def test_union_superset(self, pair):
        a, b = pair
        u = a | b
        assert set(a.to_ranks()) <= set(u.to_ranks())
        assert u.count() <= a.count() + b.count()

    @given(dense_pair())
    def test_de_morgan(self, pair):
        a, b = pair
        left = (a | b).complement()
        right = a.complement() & b.complement()
        assert left == right

    @given(dense_pair())
    def test_difference_disjoint_from_subtrahend(self, pair):
        a, b = pair
        assert ((a - b) & b).is_empty()

    @given(st.lists(st.integers(0, 127), max_size=64), st.just(128))
    def test_roundtrip_ranks(self, ranks, width):
        v = DenseBitVector.from_ranks(ranks, width)
        assert v.to_ranks().tolist() == sorted(set(ranks))


# -- hierarchical task sets -----------------------------------------------------

class TestHierarchicalAlgebra:
    @given(task_maps(), st.data())
    def test_concat_count_is_sum(self, tm, data):
        sets = []
        for d in sorted(tm.daemons()):
            width = tm.tasks_of(d)
            slots = data.draw(st.lists(st.integers(0, width - 1),
                                       max_size=width))
            sets.append(HierarchicalTaskSet.for_daemon(d, width, slots))
        cat = HierarchicalTaskSet.concat(sets)
        assert cat.count() == sum(s.count() for s in sets)

    @given(task_maps(), st.data())
    def test_remap_lossless(self, tm, data):
        """remap(concat(labels)) holds exactly the chosen global ranks."""
        sets, expected = [], set()
        for d in sorted(tm.daemons()):
            width = tm.tasks_of(d)
            slots = sorted(set(data.draw(
                st.lists(st.integers(0, width - 1), max_size=width))))
            sets.append(HierarchicalTaskSet.for_daemon(d, width, slots))
            expected |= {int(tm.ranks_of(d)[s]) for s in slots}
        cat = HierarchicalTaskSet.concat(sets)
        dense = RankRemapper(cat.layout, tm).remap_rows(cat.data[None, :])
        assert set(row_ranks(dense[0], tm.total_tasks).tolist()) == expected

    @given(task_maps())
    def test_serialized_bits_subtree_bound(self, tm):
        layout = DaemonLayout.from_task_map(tm)
        full = HierarchicalTaskSet.full(layout)
        assert full.serialized_bits() == tm.total_tasks + 64 * len(tm)

    @given(task_maps(), st.data())
    def test_union_matches_slot_union(self, tm, data):
        d = sorted(tm.daemons())[0]
        width = tm.tasks_of(d)
        s1 = set(data.draw(st.lists(st.integers(0, width - 1),
                                    max_size=width)))
        s2 = set(data.draw(st.lists(st.integers(0, width - 1),
                                    max_size=width)))
        a = HierarchicalTaskSet.for_daemon(d, width, s1)
        b = HierarchicalTaskSet.for_daemon(d, width, s2)
        u = a | b
        assert set(u.local_slots()[d].tolist()) == (s1 | s2)


# -- rank lists -----------------------------------------------------------------

class TestRankListProperties:
    @given(rank_lists())
    def test_format_parse_roundtrip(self, ranks):
        assert parse_rank_list(format_rank_list(ranks)) == ranks

    @given(rank_lists())
    def test_format_is_compact(self, ranks):
        """No adjacent runs: a-b,c where c == b+1 never appears."""
        text = format_rank_list(ranks)
        parsed = parse_rank_list(text)
        # reformatting is a fixed point
        assert format_rank_list(parsed) == text


# -- merge laws ------------------------------------------------------------------

def _daemon_tree(scheme, daemon, tm, assignment):
    tree = ObjectTree()
    width = tm.tasks_of(daemon)
    by_path = {}
    for slot in range(width):
        by_path.setdefault(assignment(daemon, slot), []).append(slot)
    for path, slots in by_path.items():
        tree.insert(StackTrace.from_names(path),
                    daemon_label(scheme, daemon, width, slots, tm))
    return tree


@st.composite
def merge_cases(draw):
    tm = draw(task_maps())
    paths = [("main", "a"), ("main", "b", "c"), ("main", "b", "d"),
             ("main",)]
    choices = draw(st.lists(st.integers(0, len(paths) - 1),
                            min_size=tm.total_tasks,
                            max_size=tm.total_tasks))
    rank_index = {}
    for d in sorted(tm.daemons()):
        for slot, r in enumerate(tm.ranks_of(d)):
            rank_index[(d, slot)] = int(r)
    def assignment(daemon, slot):
        return paths[choices[rank_index[(daemon, slot)]]]
    return tm, assignment


class TestMergeLaws:
    @settings(max_examples=25, deadline=None)
    @given(merge_cases())
    def test_schemes_agree(self, case):
        tm, assignment = case
        finals = []
        for scheme in (DenseLabelScheme(tm.total_tasks),
                       HierarchicalLabelScheme()):
            trees = as_arrays(scheme, [
                _daemon_tree(scheme, d, tm, assignment)
                for d in sorted(tm.daemons())])
            merged = trees[0] if len(trees) == 1 else scheme.merge(trees)
            finals.append(scheme.finalize(merged, tm))
        assert finals[0].structurally_equal(finals[1])

    @settings(max_examples=25, deadline=None)
    @given(merge_cases(), st.integers(1, 4))
    def test_merge_associative_over_groupings(self, case, split):
        """Any bracketing of the daemon list merges to the same tree."""
        tm, assignment = case
        daemons = sorted(tm.daemons())
        if len(daemons) < 2:
            return
        scheme = HierarchicalLabelScheme()
        trees = as_arrays(scheme, [_daemon_tree(scheme, d, tm, assignment)
                                   for d in daemons])
        flat = scheme.merge(trees)
        k = max(1, min(split, len(trees) - 1))
        left = scheme.merge(trees[:k]) if k > 1 else trees[0]
        right = scheme.merge(trees[k:]) if len(trees) - k > 1 else trees[k]
        nested = scheme.merge([left, right])
        assert scheme.finalize(flat, tm).structurally_equal(
            scheme.finalize(nested, tm))


# -- topologies -----------------------------------------------------------------

class TestTopologyProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 400), st.integers(1, 3))
    def test_balanced_invariants(self, daemons, depth):
        topo = Topology.balanced(daemons, depth)
        topo.validate()
        assert len(topo.leaves) == daemons
        assert topo.depth <= depth

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 2000))
    def test_bgl_rules_cover_all_daemons(self, daemons):
        daemons = min(daemons, 1664)
        for topo in (Topology.bgl_two_deep(daemons),
                     Topology.bgl_three_deep(daemons)):
            topo.validate()
            assert len(topo.leaves) == daemons
            assert len(topo.comm_processes) <= 28
