"""Property-based tests for the wire codec and topology formats."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_arrays
from per_object_oracle import ObjectTree, daemon_label
from repro.core.codec import pack_tree, unpack_tree, verify_size_model
from repro.core.frames import StackTrace
from repro.core.merge import DenseLabelScheme, HierarchicalLabelScheme
from repro.core.taskset import TaskMap
from repro.tbon.spec import from_topology_file, parse_shape, \
    to_topology_file
from repro.tbon.topology import Topology

# -- tree strategies ---------------------------------------------------------

_FUNCTIONS = ["main", "solve", "poll", "barrier", "wait", "do_x", "do_y"]


@st.composite
def labelled_trees(draw):
    """A random daemon-population tree with either label scheme."""
    daemons = draw(st.integers(1, 4))
    per = draw(st.integers(1, 16))
    tm = TaskMap.cyclic(daemons, per)
    scheme = draw(st.sampled_from(["dense", "hier"]))
    scheme = (DenseLabelScheme(tm.total_tasks) if scheme == "dense"
              else HierarchicalLabelScheme())
    paths = draw(st.lists(
        st.lists(st.sampled_from(_FUNCTIONS), min_size=1, max_size=5),
        min_size=1, max_size=6))
    trees = []
    for d in range(daemons):
        t = ObjectTree()
        for i, path in enumerate(paths):
            slots = draw(st.lists(st.integers(0, per - 1), max_size=per))
            if not slots:
                continue
            t.insert(StackTrace.from_names(path),
                     daemon_label(scheme, d, per, sorted(set(slots)), tm))
        if not t.root.children:
            t.insert(StackTrace.from_names(["main"]),
                     daemon_label(scheme, d, per, [0], tm))
        trees.append(t)
    return scheme.merge(as_arrays(scheme, trees))


class TestCodecProperties:
    @settings(max_examples=40, deadline=None)
    @given(labelled_trees())
    def test_roundtrip_identity(self, tree):
        assert tree.structurally_equal(unpack_tree(pack_tree(tree)))

    @settings(max_examples=40, deadline=None)
    @given(labelled_trees())
    def test_size_model_tracks_encoding(self, tree):
        verify_size_model(tree, tolerance=0.2)

    @settings(max_examples=25, deadline=None)
    @given(labelled_trees())
    def test_double_roundtrip_stable(self, tree):
        once = pack_tree(tree)
        twice = pack_tree(unpack_tree(once))
        assert once == twice


class TestTopologyFormatProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 3))
    def test_file_roundtrip_balanced(self, daemons, depth):
        topo = Topology.balanced(daemons, depth)
        clone = from_topology_file(to_topology_file(topo))
        assert clone.num_daemons == topo.num_daemons
        assert clone.depth == topo.depth
        assert len(clone.comm_processes) == len(topo.comm_processes)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 6), st.integers(1, 500))
    def test_fanout_shapes_cover_all_daemons(self, f1, f2, daemons):
        shape = f"{f1}" if f2 == 0 else f"{f1}x{max(1, f2)}"
        bottom = f1 * max(1, f2) if f2 else f1
        if bottom > daemons:
            return
        topo = parse_shape(shape, daemons)
        topo.validate()
        assert topo.num_daemons == daemons
