"""Unit tests for equivalence-class extraction and triage."""

import pytest

from repro.core.equivalence import (
    equivalence_classes,
    mpi_api_boundary,
    representatives,
    triage_classes,
)
from per_object_oracle import DenseBitVector, ObjectTree
from repro.core.frames import Frame, StackTrace
from repro.core.treearrays import TreeArrays


def trace(*names):
    return StackTrace.from_names(names)


def label(*ranks, width=1024):
    return DenseBitVector.from_ranks(ranks, width)


def tree_of(*inserts) -> TreeArrays:
    """The tree of ``(trace, label)`` insertions, in order."""
    tree = ObjectTree()
    for path, tasks in inserts:
        tree.insert(path, tasks)
    return tree.to_arrays()


def figure1_tree() -> TreeArrays:
    """The paper's hang population as a dense-labelled tree."""
    barrier = [0] + list(range(3, 1024))
    return tree_of(
        (trace("_start", "main", "PMPI_Barrier", "progress"),
         label(*barrier)),
        (trace("_start", "main", "do_SendOrStall"), label(1)),
        (trace("_start", "main", "PMPI_Waitall", "wait"), label(2)))


class TestEquivalenceClasses:
    def test_figure1_population(self):
        classes = equivalence_classes(figure1_tree())
        assert [c.size for c in classes] == [1022, 1, 1]
        assert classes[0].representative == 0
        assert {classes[1].ranks, classes[2].ranks} == {(1,), (2,)}

    def test_classes_sorted_largest_first(self):
        tree = tree_of((trace("m", "a"), label(0)),
                       (trace("m", "b"), label(1, 2, 3)))
        classes = equivalence_classes(tree)
        assert classes[0].size == 3

    def test_terminal_ranks_at_internal_nodes(self):
        """A shallower trace must not vanish from the classes."""
        tree = tree_of((trace("m", "barrier"), label(0, 1)),       # shallow
                       (trace("m", "barrier", "poll"), label(1)))  # deeper
        classes = equivalence_classes(tree)
        all_ranks = sorted(r for c in classes for r in c.ranks)
        assert all_ranks == [0, 1]
        # rank 0 terminates at the internal 'barrier' node
        zero_cls = next(c for c in classes if 0 in c.ranks)
        assert str(zero_cls.paths[0]).endswith("barrier")

    def test_class_label_format(self):
        classes = equivalence_classes(figure1_tree())
        assert classes[0].label() == "1022:[0,3-1023]"

    def test_describe_mentions_representative(self):
        classes = equivalence_classes(figure1_tree())
        assert "representative rank 0" in classes[0].describe()


class TestTriage:
    def test_mpi_api_boundary_predicate(self):
        assert mpi_api_boundary(trace("main"), Frame("PMPI_Barrier"))
        assert mpi_api_boundary(trace("main"), Frame("MPI_Waitall"))
        assert not mpi_api_boundary(trace("main"), Frame("do_work"))

    def test_triage_collapses_progress_depth(self):
        tree = tree_of((trace("m", "PMPI_Barrier", "poll"), label(0)),
                       (trace("m", "PMPI_Barrier", "poll", "poll2"),
                        label(1)))
        assert len(equivalence_classes(tree)) == 2
        assert len(triage_classes(tree)) == 1

    def test_triage_keeps_user_code_split(self):
        tree = figure1_tree()
        classes = triage_classes(tree)
        assert [c.size for c in classes] == [1022, 1, 1]


class TestRepresentatives:
    def test_one_per_class(self):
        reps = representatives(equivalence_classes(figure1_tree()))
        assert reps == [0, 1, 2]

    def test_multiple_per_class(self):
        reps = representatives(equivalence_classes(figure1_tree()),
                               per_class=2)
        assert reps == [0, 3, 1, 2]  # class sizes 1022, 1, 1

    def test_per_class_validation(self):
        with pytest.raises(ValueError):
            representatives([], per_class=0)

    def test_search_space_reduction(self):
        """The paper's point: 1024 tasks -> 3 debugger attach points."""
        classes = equivalence_classes(figure1_tree())
        assert len(representatives(classes)) == 3
