"""Unit tests for DOT and ASCII tree rendering."""

import pytest

from per_object_oracle import DenseBitVector, HierarchicalTaskSet, ObjectTree
from repro.core.frames import StackTrace
from repro.core.treearrays import TreeArrays
from repro.core.visualize import to_ascii, to_dot


def make_tree() -> TreeArrays:
    tree = ObjectTree()
    w = 8
    tree.insert(StackTrace.from_names(["main", "PMPI_Barrier"]),
                DenseBitVector.from_ranks([0, 3, 4, 5, 6, 7], w))
    tree.insert(StackTrace.from_names(["main", "do_SendOrStall"]),
                DenseBitVector.from_ranks([1], w))
    tree.insert(StackTrace.from_names(["main", "PMPI_Waitall"]),
                DenseBitVector.from_ranks([2], w))
    return tree.to_arrays()


class TestDot:
    def test_valid_digraph_structure(self):
        dot = to_dot(make_tree())
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")

    def test_every_function_becomes_a_node(self):
        dot = to_dot(make_tree())
        for fn in ("main", "PMPI_Barrier", "do_SendOrStall", "PMPI_Waitall"):
            assert f'label="{fn}"' in dot

    def test_edges_carry_rank_labels(self):
        dot = to_dot(make_tree())
        assert 'label="6:[0,3-7]"' in dot
        assert 'label="1:[1]"' in dot

    def test_quotes_escaped(self):
        tree = ObjectTree()
        tree.insert(StackTrace.from_names(['fn"quoted']),
                    DenseBitVector.from_ranks([0], 4))
        dot = to_dot(tree.to_arrays())
        assert '\\"' in dot

    def test_node_ids_unique(self):
        dot = to_dot(make_tree())
        ids = [line.split()[0] for line in dot.splitlines()
               if line.strip().startswith("n") and "[label=" in line
               and "->" not in line]
        assert len(ids) == len(set(ids))

    def test_graph_name(self):
        assert '"my_tree"' in to_dot(make_tree(), graph_name="my_tree")


class TestAscii:
    def test_contains_box_drawing(self):
        text = to_ascii(make_tree())
        assert "└──" in text and "├──" in text

    def test_labels_present(self):
        text = to_ascii(make_tree())
        assert "6:[0,3-7]" in text
        assert "do_SendOrStall" in text

    def test_root_on_first_line(self):
        assert to_ascii(make_tree()).splitlines()[0] == "/"

    def test_truncation_respected(self):
        text = to_ascii(make_tree(), max_runs=1)
        assert "6:[0,...]" in text

    def test_hierarchical_tree_needs_finalize(self):
        """Renderings read dense rows: a tree still carrying subtree-local
        labels is refused, not misread."""
        tree = ObjectTree()
        tree.insert(StackTrace.from_names(["main"]),
                    HierarchicalTaskSet.for_daemon(0, 2, [0, 1]))
        with pytest.raises(TypeError, match="finalize"):
            to_ascii(tree.to_arrays())


class TestNodeOrder:
    """Both renderings enumerate nodes in preorder, siblings in
    insertion order, whatever order the BFS arrays keep a level in."""

    def test_dot_ids_and_ascii_lines_follow_preorder(self):
        tree = ObjectTree()
        for names, rank in ((["main", "b", "z"], 0), (["main", "a"], 1),
                            (["main", "b", "y"], 2)):
            tree.insert(StackTrace.from_names(names),
                        DenseBitVector.from_ranks([rank], 4))
        arrays = tree.to_arrays()
        assert to_ascii(arrays).splitlines() == [
            "/",
            "└── main  3:[0-2]",
            "    ├── b  2:[0,2]",
            "    │   ├── z  1:[0]",
            "    │   └── y  1:[2]",
            "    └── a  1:[1]",
        ]
        dot = to_dot(arrays)
        assert 'n2 [label="b"]' in dot and 'n5 [label="a"]' in dot
        assert 'n2 -> n4 [label="1:[2]"]' in dot
