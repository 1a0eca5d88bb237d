"""Block-wide tree structures pinned to the per-object build.

:func:`repro.core.buildarrays.build_structures` builds every cache-
missing trace tuple of a forest block in one pass.  Each tuple's
:class:`TreeStructure` must equal what the frozen per-object daemon in
``tests/per_object_oracle.py`` flattens from a prefix tree of the same
traces — BFS arrays, and the first-use dedup of per-node contributor
sets as ``combo_refs`` plus the CSR ``(combo_ptr, combo_pos)`` — and the
chain-head combinations must equal a naive first-use dedup of per-node
``frozenset``s.  The batches mix traces that are prefixes of others,
single-trace tuples and tuples sharing long prefixes.

The cache test pins ``build_forest``'s probe counters: one probe per
distinct trace tuple, one build for every miss.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from per_object_oracle import STATDaemon, _slot_tree
from repro.core.buildarrays import build_structures
from repro.core.frames import StackTrace
from repro.core.interning import PATHS
from repro.core.merge import HierarchicalLabelScheme
from repro.core.taskset import TaskMap
from repro.mpi.stacks import BGLStackModel
from repro.perf.counters import BUILD_STRUCT_HITS, BUILD_STRUCT_MISSES, PERF
from repro.statbench.emulator import STATBenchEmulator
from repro.statbench.generator import ring_hang_states

#: frame names of the path universe: few, so random traces collide
FRAMES = ("main", "poll", "wait", "send")


@st.composite
def trace_batches(draw):
    """``(universe, tuples)``: distinct traces, and ordered tuples of
    distinct indices into them (empty tuples included)."""
    base = draw(st.lists(
        st.lists(st.sampled_from(FRAMES), min_size=1, max_size=6)
        .map(tuple), min_size=1, max_size=8))
    # Every drawn trace's prefixes may join the universe too.
    prefixes = [t[:j] for t in base for j in range(1, len(t))]
    extra = draw(st.lists(st.sampled_from(prefixes), max_size=4)) \
        if prefixes else []
    universe = list(dict.fromkeys(base + extra))
    tuples = draw(st.lists(
        st.lists(st.integers(0, len(universe) - 1), unique=True,
                 max_size=len(universe)), min_size=1, max_size=6))
    return universe, tuples


def path_matrix(universe):
    """The ``-1``-padded path-id rows of the universe's traces."""
    paths = np.full((len(universe), max(map(len, universe))), -1,
                    dtype=np.int64)
    for t, names in enumerate(universe):
        frames = np.asarray(StackTrace.from_names(names).frame_ids(),
                            dtype=np.int64)
        paths[t, :frames.size] = PATHS.ids_of(
            frames, np.arange(-1, frames.size - 1, dtype=np.int64))
    return paths


def oracle_flatten(universe, members):
    """The per-object daemon's flattened tree: trace ``i`` of the tuple
    labels its nodes with slot ``i``."""
    tree = _slot_tree()
    for pos, t in enumerate(members):
        tree.insert(StackTrace.from_names(universe[t]), {pos})
    daemon = STATDaemon(0, TaskMap.block(1, len(members)),
                        HierarchicalLabelScheme(), BGLStackModel())
    return daemon._materialize_arrays(tree, {})


def naive_combos(paths, members, path_ids):
    """First-use dedup of every node's set of contributing positions."""
    index = {}
    refs = []
    for pid in path_ids.tolist():
        key = frozenset(pos for pos, t in enumerate(members)
                        if pid in paths[t])
        refs.append(index.setdefault(key, len(index)))
    return refs, [sorted(key) for key in index]


def csr_combos(struct):
    ptr = struct.combo_ptr.tolist()
    return [struct.combo_pos[a:b].tolist() for a, b in zip(ptr, ptr[1:])]


class TestBuildStructures:
    @settings(max_examples=200, deadline=None)
    @given(trace_batches())
    def test_matches_per_object_flatten(self, batch):
        universe, tuples = batch
        paths = path_matrix(universe)
        structs = build_structures(
            paths, np.asarray([t for m in tuples for t in m], dtype=np.int64),
            np.asarray([len(m) for m in tuples], dtype=np.int64))
        assert len(structs) == len(tuples)
        for members, struct in zip(tuples, structs):
            arrays = (struct.frame_ids, struct.parents, struct.level_offsets,
                      struct.combo_refs, struct.combo_ptr, struct.combo_pos,
                      struct.path_ids)
            assert all(a.dtype == np.int64 for a in arrays)
            if not members:
                assert struct.level_offsets.tolist() == [0]
                assert struct.frame_ids.size == struct.combo_pos.size == 0
                continue
            want = oracle_flatten(universe, members)
            assert np.array_equal(struct.frame_ids, want.frame_ids)
            assert np.array_equal(struct.parents, want.parents)
            assert np.array_equal(struct.level_offsets, want.level_offsets)
            assert np.array_equal(struct.combo_refs, want.label_refs)
            slots = np.unpackbits(want.labels, axis=1)
            assert csr_combos(struct) == [
                np.flatnonzero(row[:len(members)]).tolist()
                for row in slots]
            assert np.array_equal(struct.path_ids, PATHS.ids_of(
                struct.frame_ids, struct.parents))
            refs, combos = naive_combos(paths, members, struct.path_ids)
            assert struct.combo_refs.tolist() == refs
            assert csr_combos(struct) == combos

    def test_single_and_nested_traces(self):
        universe = [("main",), ("main", "poll"), ("main", "poll", "wait"),
                    ("main", "send")]
        paths = path_matrix(universe)
        single, nested, empty = build_structures(
            paths, np.asarray([2, 2, 1, 0, 3], dtype=np.int64),
            np.asarray([1, 4, 0], dtype=np.int64))
        assert single.parents.tolist() == [-1, 0, 1]
        assert csr_combos(single) == [[0]]
        assert single.combo_refs.tolist() == [0, 0, 0]
        # main:{0,1,2,3} -> poll:{0,1}, send:{3}; poll -> wait:{0}
        assert nested.parents.tolist() == [-1, 0, 0, 1]
        assert nested.level_offsets.tolist() == [0, 1, 3, 4]
        assert csr_combos(nested) == [[0, 1, 2, 3], [0, 1], [3], [0]]
        assert nested.combo_refs.tolist() == [0, 1, 2, 3]
        assert empty.level_offsets.tolist() == [0]

    def test_no_tuples(self):
        paths = path_matrix([("main",)])
        assert build_structures(paths, np.zeros(0, dtype=np.int64),
                                np.zeros(0, dtype=np.int64)) == []


def _forest(model):
    """A 16-daemon ring-hang forest, two instants, on ``model``: daemons
    share trace tuples, so groups and rows differ."""
    task_map = TaskMap.block(16, 8)
    emulator = STATBenchEmulator(
        task_map, HierarchicalLabelScheme(), model,
        ring_hang_states(task_map.total_tasks), num_samples=2, seed=7)
    return emulator.build_forest()


def _counted(model):
    PERF.reset()
    pairs = _forest(model)
    return pairs, PERF.get(BUILD_STRUCT_HITS), PERF.get(BUILD_STRUCT_MISSES)


def _assert_same_trees(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.tree_2d.arrays_equal(w.tree_2d)
        assert g.tree_3d.arrays_equal(w.tree_3d)


class TestStructCache:
    def test_half_cached_forest(self):
        cold = _forest(BGLStackModel())
        model = BGLStackModel()
        _forest(model)  # registers the traces and fills the cache
        keys = list(model.struct_cache)
        assert len(keys) >= 4
        dropped = keys[1::2]
        for key in dropped:
            del model.struct_cache[key]
        pairs, hits, misses = _counted(model)
        rows = 2 * len(pairs)  # a 2D and a 3D tree per daemon
        assert len(keys) < rows
        assert misses == len(dropped)
        assert hits == rows - len(dropped)
        assert list(model.struct_cache) == keys[::2] + dropped
        _assert_same_trees(pairs, cold)

        again, hits, misses = _counted(model)
        assert (hits, misses) == (rows, 0)
        _assert_same_trees(again, pairs)
