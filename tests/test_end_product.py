"""The array-native end product is bit-identical to the per-rank oracle.

``equivalence_classes`` and the rank-list formatters keep rank sets as
``int64`` arrays end to end; ``end_product_oracle`` holds the per-rank
bodies they replaced.  Equal means equal: same classes in the same
order, same path order, ``ranks`` tuples of Python ``int``, and the same
bytes in every rendering and in the archive.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import end_product_oracle as oracle
from repro.api.pipeline import SessionPipeline
from repro.api.spec import SessionSpec
from repro.core import equivalence, prefix_tree, visualize
from repro.core.equivalence import (
    equivalence_classes,
    mpi_api_boundary,
    triage_classes,
)
from repro.core.frames import StackTrace
from repro.core.prefix_tree import PrefixTree
from repro.core.ranklist import (
    compress_ranks,
    format_edge_label,
    format_rank_list,
    parse_rank_list,
)
from repro.core.session import load_session, save_session
from repro.core.taskset import DenseBitVector
from repro.core.visualize import to_ascii, to_dot

# -- strategies ------------------------------------------------------------

#: few names, so traces share prefixes and one trace is often a prefix of
#: another (its ranks then terminate at an internal node); two of them
#: are MPI entry points, so ``triage_classes`` truncates for real
_NAMES = ("main", "solve", "poll", "MPI_Wait", "PMPI_Barrier")

traces = st.lists(st.sampled_from(_NAMES), min_size=1, max_size=5).map(
    StackTrace.from_names)


@st.composite
def trees(draw, max_paths_per_rank):
    """A dense-labelled tree over up to 48 ranks, some of them absent.

    ``max_paths_per_rank=1`` gives a 2D tree (one trace per rank); more
    gives a 3D tree whose ranks lie on several paths.  Ranks not drawn
    are the gaps dead daemons leave in a real session.
    """
    width = draw(st.integers(1, 48))
    pool = draw(st.lists(traces, min_size=1, max_size=8))
    live = draw(st.sets(st.integers(0, width - 1)))
    tree = PrefixTree()
    for rank in sorted(live):
        picks = draw(st.lists(st.sampled_from(pool), min_size=1,
                              max_size=max_paths_per_rank))
        for trace in picks:
            tree.insert(trace, DenseBitVector.from_ranks([rank], width))
    return tree


def views(tree):
    """The tree, its triage view and two depth cuts."""
    return (tree, tree.truncated(mpi_api_boundary),
            tree.truncated_at_depth(1), tree.truncated_at_depth(3))


def as_pairs(classes):
    return [(c.paths, c.ranks) for c in classes]


# -- equivalence classes ----------------------------------------------------

class TestClassesMatchOracle:
    @given(trees(max_paths_per_rank=1))
    @settings(max_examples=150, deadline=None)
    def test_2d_trees(self, tree):
        for view in views(tree):
            assert as_pairs(equivalence_classes(view)) == \
                as_pairs(oracle.oracle_equivalence_classes(view))

    @given(trees(max_paths_per_rank=4))
    @settings(max_examples=150, deadline=None)
    def test_3d_trees(self, tree):
        for view in views(tree):
            assert as_pairs(equivalence_classes(view)) == \
                as_pairs(oracle.oracle_equivalence_classes(view))
        assert as_pairs(triage_classes(tree)) == \
            as_pairs(oracle.oracle_triage_classes(tree))

    def test_rank_terminal_at_several_nodes_groups_by_the_whole_set(self):
        tree = PrefixTree()
        a, b, c = (StackTrace.from_names(n) for n in
                   (["m", "a"], ["m", "b"], ["m", "c"]))
        for trace, ranks in ((a, [0, 1, 2, 5]), (b, [1, 2, 3]), (c, [2, 5])):
            tree.insert(trace, DenseBitVector.from_ranks(ranks, 8))
        got = as_pairs(equivalence_classes(tree))
        assert got == as_pairs(oracle.oracle_equivalence_classes(tree))
        assert got == [((a,), (0,)), ((a, b), (1,)), ((a, b, c), (2,)),
                       ((b,), (3,)), ((a, c), (5,))]

    def test_empty_tree_and_empty_labels(self):
        assert equivalence_classes(PrefixTree()) == []
        tree = PrefixTree()
        tree.insert(StackTrace.from_names(["m", "a"]), DenseBitVector.empty(4))
        assert equivalence_classes(tree) == []

    def test_label_whose_to_ranks_returns_a_list(self):
        class ListLabel:
            def __init__(self, ranks):
                self.ranks = list(ranks)

            def to_ranks(self):
                return self.ranks

            def union_inplace(self, other):
                self.ranks += other.ranks
                return self

            def copy(self):
                return ListLabel(self.ranks)

        tree = PrefixTree()
        tree.insert(StackTrace.from_names(["m", "a"]), ListLabel([7, 3, 3]))
        tree.insert(StackTrace.from_names(["m", "a", "b"]), ListLabel([9]))
        tree.insert(StackTrace.from_names(["m"]), ListLabel([200]))
        got = equivalence_classes(tree)
        assert as_pairs(got) == \
            as_pairs(oracle.oracle_equivalence_classes(tree))
        assert [c.ranks for c in got] == [(3, 7), (9,), (200,)]

    def test_child_ranks_outside_the_parent_are_ignored(self):
        """A hand-built tree that breaks the label invariant still agrees."""
        tree = PrefixTree()
        tree.insert(StackTrace.from_names(["m", "a"]),
                    DenseBitVector.from_ranks([1], 64))
        tree.find(StackTrace.from_names(["m", "a"])).tasks = \
            DenseBitVector.from_ranks([1, 40], 64)
        assert as_pairs(equivalence_classes(tree)) == \
            as_pairs(oracle.oracle_equivalence_classes(tree))

    def test_ranks_are_python_ints_and_json_serialisable(self):
        tree = PrefixTree()
        for trace, ranks in ((["m", "a"], range(0, 40)),
                             (["m", "a", "b"], range(10, 20)),
                             (["m", "c"], range(15, 50, 3))):
            tree.insert(StackTrace.from_names(trace),
                        DenseBitVector.from_ranks(ranks, 64))
        classes = equivalence_classes(tree)  # 3D: ranks on several paths
        assert len({r for c in classes for r in c.ranks}) == \
            sum(c.size for c in classes)
        for cls in classes:
            assert all(type(r) is int for r in cls.ranks)
            assert type(cls.representative) is int
        summary = [{"label": c.label(), "size": c.size,
                    "representative": c.representative} for c in classes]
        assert json.loads(json.dumps(summary)) == summary


# -- rank lists ---------------------------------------------------------------

rank_values = st.lists(st.integers(0, 5000), max_size=80)


class TestFormattersMatchOracle:
    @given(rank_values, st.sampled_from([None, 1, 2, 4]))
    @settings(max_examples=200, deadline=None)
    def test_lists_and_arrays(self, ranks, max_runs):
        want_runs = oracle.oracle_compress_ranks(ranks)
        want_list = oracle.oracle_format_rank_list(ranks, max_runs)
        want_label = oracle.oracle_format_edge_label(ranks, max_runs)
        for form in (ranks, np.asarray(ranks, dtype=np.int64),
                     np.asarray(ranks, dtype=np.uint16), tuple(ranks)):
            runs = compress_ranks(form)
            assert runs == want_runs
            assert all(type(x) is int for run in runs for x in run)
            assert format_rank_list(form, max_runs) == want_list
            assert format_edge_label(form, max_runs) == want_label

    @given(rank_values)
    @settings(max_examples=200, deadline=None)
    def test_parse_inverts_format_over_arrays(self, ranks):
        arr = np.asarray(ranks, dtype=np.int64)
        assert parse_rank_list(format_rank_list(arr)) == sorted(set(ranks))


# -- renderings and the archive -----------------------------------------------

@pytest.fixture(scope="module")
def session():
    """A small 3-sample session: a 3D tree with ranks on several paths."""
    spec = SessionSpec(machine="bgl", daemons=4, num_samples=3,
                       workload="uniform:8", dead_daemons=(2,))
    return spec, SessionPipeline.from_spec(spec).run()


@pytest.fixture
def oracle_formatter(monkeypatch):
    """Swap every ``format_edge_label`` binding for the oracle's."""
    def install():
        for module in (visualize, prefix_tree, equivalence):
            monkeypatch.setattr(module, "format_edge_label",
                                oracle.oracle_format_edge_label)
    return install


class TestBytesMatchOracle:
    def test_renderings(self, session, oracle_formatter):
        _, result = session

        def render():
            return [out for tree in (result.tree_2d, result.tree_3d)
                    for out in (to_dot(tree), to_dot(tree, max_runs=None),
                                to_ascii(tree), tree.render_text(),
                                tree.render_text(max_runs=2))]

        got = render()
        oracle_formatter()
        assert got == render()

    def test_archive(self, session, oracle_formatter, tmp_path):
        spec, result = session
        assert as_pairs(result.classes) == \
            as_pairs(oracle.oracle_triage_classes(result.tree_2d))
        save_session(result, tmp_path / "new", spec=spec)
        loaded = load_session(tmp_path / "new")
        assert as_pairs(loaded.classes) == as_pairs(result.classes)

        oracle_formatter()
        frozen = dataclasses.replace(
            result, classes=oracle.oracle_triage_classes(result.tree_2d))
        save_session(frozen, tmp_path / "old", spec=spec)
        for name in ("session.json", "tree_3d.dot",
                     "tree_2d.stpt", "tree_3d.stpt"):
            assert (tmp_path / "new" / name).read_bytes() == \
                (tmp_path / "old" / name).read_bytes(), name
