"""Merge *order* pinned: the path-interned kernel vs the per-level oracle.

``test_merge_equivalence.py`` holds the merge kernels to the recursive
reference with ``structurally_equal``, which ignores child and label-row
order; node order was pinned only indirectly (stream == batch, golden
digests).  Here every output of
:func:`repro.core.treearrays.merge_structure` — ``frame_ids``,
``parents``, ``level_offsets``, ``group_refs`` and every ``groups[g]``
pair — must equal, element for element, what the frozen per-level body
(``merge_structure_oracle.py``) computes, on random forests of both
schemes: emulator populations (``ring_hang`` / ``uniform:k`` /
``distinct``), hand-grown object trees with empty contributors and
unequal depths, fan-ins 2 to 64, merges of merges, and the left folds
the streaming TBO̅N performs.

Path ids are a process-local accelerator: carried ids must equal ids
re-derived from ``(frame_ids, parents)``, and a pickle must neither
contain them nor depend on them.
"""

import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import as_arrays
from merge_structure_oracle import oracle_getstate, oracle_merge_structure
from repro.api.workloads import resolve_workload
from repro.core.interning import PATHS
from repro.core.merge import DenseLabelScheme, HierarchicalLabelScheme
from repro.core.taskset import TaskMap
from repro.core.treearrays import TreeArrays, merge_structure
from repro.mpi.stacks import BGLStackModel
from repro.statbench import STATBenchEmulator
from test_merge_equivalence import random_daemon_tree

SRC = str(Path(__file__).resolve().parents[1] / "src")
SCHEMES = ("dense", "hier")
POPULATIONS = ("ring_hang", "uniform:3", "uniform:8", "uniform:64",
               "distinct")


def assert_same_order(trees):
    """All five oracle outputs equal; carried ids equal derived ids."""
    got = merge_structure(trees)
    want = oracle_merge_structure(trees)
    for name, g, w in zip(("frame_ids", "parents", "level_offsets",
                           "group_refs"), got, want):
        assert g.dtype == w.dtype == np.int64, name
        assert np.array_equal(g, w), name
    assert len(got[4]) == len(want[4])
    for (gt, gr), (wt, wr) in zip(got[4], want[4]):
        assert np.array_equal(gt, wt) and np.array_equal(gr, wr)
    assert np.array_equal(got[5], PATHS.ids_of(got[0], got[1]))


def make_scheme(name, task_map):
    return DenseLabelScheme(task_map.total_tasks) if name == "dense" \
        else HierarchicalLabelScheme()


def emulated_forest(population, scheme_name, daemons, seed, width=32):
    """``(scheme, 2D trees, 3D trees)`` of one emulated population."""
    task_map = [TaskMap.block, TaskMap.cyclic][seed % 2](daemons, width)
    scheme = make_scheme(scheme_name, task_map)
    states = resolve_workload(population, task_map.total_tasks, seed)
    pairs = STATBenchEmulator(task_map, scheme, BGLStackModel(), states,
                              num_samples=3, seed=seed).build_forest()
    return (scheme, [p.tree_2d for p in pairs],
            [p.tree_3d for p in pairs])


class TestOrderMatchesPerLevelOracle:
    @pytest.mark.parametrize("scheme_name", SCHEMES)
    @pytest.mark.parametrize("population", POPULATIONS)
    def test_populations_kway_folds_and_merges_of_merges(
            self, population, scheme_name):
        rng = np.random.default_rng(len(population) * 7 + len(scheme_name))
        for daemons in (2, 5, 16, 64):
            seed = int(rng.integers(1 << 16))
            scheme, flat, deep = emulated_forest(
                population, scheme_name, daemons, seed)
            for trees in (flat, deep):
                assert_same_order(trees)
                # Merges of merges: random contiguous groups, then the
                # partial results together (the TBO̅N's interior nodes).
                cuts = np.unique(rng.integers(1, daemons, size=3))
                parts = [list(p) for p in np.split(
                    np.arange(daemons), cuts)]
                partials = []
                for part in parts:
                    group = [trees[i] for i in part]
                    assert_same_order(group)
                    partials.append(scheme.merge(group))
                assert_same_order(partials)
                merged = scheme.merge(partials)
                assert merged.arrays_equal(scheme.merge(trees))
                assert np.array_equal(
                    merged.path_ids,
                    PATHS.ids_of(merged.frame_ids, merged.parents))

    @pytest.mark.parametrize("scheme_name", SCHEMES)
    @pytest.mark.parametrize("population", POPULATIONS)
    def test_left_folds_as_the_stream_performs_them(self, population,
                                                    scheme_name):
        scheme, _, trees = emulated_forest(population, scheme_name, 24,
                                           seed=len(population))
        partial = trees[0]
        for arriving in trees[1:]:
            assert_same_order([partial, arriving])
            partial = scheme.merge([partial, arriving])
        assert partial.arrays_equal(scheme.merge(trees))

    @pytest.mark.parametrize("scheme_name", SCHEMES)
    @pytest.mark.parametrize("seed", range(10))
    def test_object_grown_trees_empty_and_unequal_depths(self, seed,
                                                         scheme_name):
        """Trees that arrive *without* ids (``ObjectTree.to_arrays`` via
        ``conftest.as_arrays``)."""
        rng = np.random.default_rng(4000 + seed)
        task_map = TaskMap.block(64, 4)
        scheme = make_scheme(scheme_name, task_map)
        fanin = int(rng.integers(2, 65))
        trees = as_arrays(scheme, [
            random_daemon_tree(rng, scheme, d, task_map,
                               allow_empty=scheme_name == "dense")
            for d in range(fanin)])
        assert all(t._path_ids is None for t in trees)
        assert_same_order(trees)
        half = fanin // 2
        if half:
            assert_same_order([scheme.merge(trees[:half])] + trees[half:])

    def test_all_empty_and_single_tree(self):
        empty = TreeArrays.empty("dense", width=16)
        assert_same_order([empty, empty])
        _, _, trees = emulated_forest("uniform:8", "dense", 2, seed=3)
        assert_same_order(trees[:1])
        assert_same_order([empty, trees[0], empty, trees[1]])


class TestPathIdsStayProcessLocal:
    def test_build_hands_ids_over_and_they_match_derivation(self):
        for population in POPULATIONS:
            _, flat, deep = emulated_forest(population, "hier", 6, seed=11)
            for tree in flat + deep:
                assert tree._path_ids is not None
                assert np.array_equal(
                    tree.path_ids,
                    PATHS.ids_of(tree.frame_ids, tree.parents))
                levels = np.repeat(np.arange(tree.level_offsets.size - 1),
                                   np.diff(tree.level_offsets))
                assert np.array_equal(PATHS.level_of[tree.path_ids],
                                      levels)

    def test_getstate_is_the_parents_byte_for_byte(self):
        scheme, flat, deep = emulated_forest("uniform:8", "dense", 4,
                                             seed=5)
        for tree in (flat[0], deep[1], scheme.merge(deep),
                     TreeArrays.empty("dense", width=32)):
            state = tree.__getstate__()
            assert list(state) == [
                "kind", "frame_local", "frame_table", "parents",
                "label_refs", "level_offsets", "labels", "spans", "width",
                "layout"]
            assert pickle.dumps(state) == pickle.dumps(oracle_getstate(tree))

    def test_pickle_drops_ids_and_rederives_on_first_use(self):
        scheme, _, trees = emulated_forest("uniform:8", "hier", 3, seed=9)
        clone = pickle.loads(pickle.dumps(trees[0]))
        assert clone._path_ids is None
        assert clone.arrays_equal(trees[0])
        assert np.array_equal(clone.path_ids, trees[0].path_ids)

    def test_unpickled_in_a_process_with_another_path_order(self, tmp_path):
        """The child fills its own ``PATHS`` junk-first and last tree
        first, so every path gets a different id than here; the merge of
        the unpickled trees must still be the tree merged here."""
        scheme, _, trees = emulated_forest("uniform:8", "dense", 4, seed=2)
        blob = tmp_path / "trees.pkl"
        blob.write_bytes(pickle.dumps({
            "trees": trees, "merged": scheme.merge(trees),
            "ids": [t.path_ids.tolist() for t in trees]}))
        child = (
            "import pickle, sys\n"
            "import numpy as np\n"
            "from repro.core.interning import PATHS\n"
            "from repro.core.merge import DenseLabelScheme\n"
            "for junk in range(300):\n"
            "    PATHS.intern(junk - 1, 0)\n"
            "sent = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "trees = sent['trees']\n"
            "assert all(t._path_ids is None for t in trees)\n"
            "for t in reversed(trees):\n"
            "    t.path_ids\n"
            "assert all(t.path_ids.tolist() != ids\n"
            "           for t, ids in zip(trees, sent['ids']))\n"
            "merged = DenseLabelScheme(trees[0].width).merge(trees)\n"
            "assert merged.arrays_equal(sent['merged'])\n"
            "assert np.array_equal(merged.path_ids, PATHS.ids_of(\n"
            "    merged.frame_ids, merged.parents))\n"
            "print('child-ok')\n")
        done = subprocess.run(
            [sys.executable, "-c", child, str(blob)],
            env={"PYTHONPATH": SRC, "REPRO_CONTRACTS": "1"},
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "child-ok" in done.stdout
