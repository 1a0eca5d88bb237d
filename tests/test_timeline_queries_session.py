"""Tests for timeline sampling, triage queries, and session persistence."""

import numpy as np
import pytest

from conftest import leaf_paths
from end_product_oracle import oracle_class_of
from repro.api.spec import SessionSpec
from repro.apps import ring_program
from repro.apps.bugs import NO_BUG, HangBeforeSend
from repro.core.frames import StackTrace
from repro.core.frontend import STATFrontEnd
from repro.core.merge import HierarchicalLabelScheme
from repro.core.queries import TreeQuery
from repro.core.session import load_session, save_session
from repro.core.taskset import DaemonLayout, TaskMap
from repro.core.treearrays import TreeArrays
from repro.core.timeline import TimelineSampler
from repro.statbench import ring_hang_states


@pytest.fixture
def timeline_sampler(atlas_small, linux_stacks):
    tm = TaskMap.block(atlas_small.num_daemons,
                       atlas_small.tasks_per_daemon)
    return TimelineSampler(atlas_small, tm, HierarchicalLabelScheme(),
                           linux_stacks, seed=3)


class TestTimeline:
    def test_healthy_app_shows_multiple_states_over_time(
            self, timeline_sampler):
        """A *running* app's 3D tree spans genuinely different states."""
        result = timeline_sampler.run(
            ring_program(bug=NO_BUG, compute_seconds=2.0e-4),
            sample_times=[1e-4, 3e-4, 1.0])
        assert not result.hung
        all_kinds = set().union(*result.states_seen)
        assert "compute" in all_kinds
        assert "done" in all_kinds
        # 3D tree saw more behaviours than the final 2D snapshot
        assert result.tree_3d.node_count() > result.tree_2d.node_count()

    def test_hung_app_converges_to_figure1(self, timeline_sampler):
        result = timeline_sampler.run(
            ring_program(bug=HangBeforeSend(rank=1)),
            sample_times=[0.5, 1.0])
        assert result.hung
        fns = {p.leaf.function for p, _ in leaf_paths(result.tree_3d)}
        assert "do_SendOrStall" in fns

    def test_sample_times_validated(self, timeline_sampler):
        with pytest.raises(ValueError):
            timeline_sampler.run(ring_program(), sample_times=[])
        with pytest.raises(ValueError):
            timeline_sampler.run(ring_program(), sample_times=[2.0, 1.0])

    def test_task_map_must_match_machine(self, atlas_small, linux_stacks):
        with pytest.raises(ValueError, match="task map"):
            TimelineSampler(atlas_small, TaskMap.block(2, 4),
                            HierarchicalLabelScheme(), linux_stacks)


@pytest.fixture
def session_result(bgl_small):
    fe = STATFrontEnd(bgl_small, seed=5)
    return fe.attach_and_analyze(ring_hang_states(bgl_small.total_tasks))


class TestTreeQuery:
    def test_requires_dense_labels(self):
        with pytest.raises(ValueError):
            TreeQuery(TreeArrays.empty("dense", width=4))
        with pytest.raises(ValueError):
            TreeQuery(TreeArrays.empty("hier", layout=DaemonLayout([0], [4])))

    def test_all_tasks(self, session_result):
        q = TreeQuery(session_result.tree_2d)
        assert q.all_tasks().tolist() == list(range(1024))
        assert q.absent_tasks().size == 0

    def test_tasks_in_function(self, session_result):
        q = TreeQuery(session_result.tree_3d)
        assert q.tasks_in_function("do_SendOrStall").tolist() \
            == [1]
        assert q.tasks_in_function("PMPI_Barrier").size == 1022

    def test_reached_but_not(self, session_result):
        """The hang question: in main but never at the barrier."""
        q = TreeQuery(session_result.tree_3d)
        suspects = q.reached_but_not("main", "PMPI_Barrier")
        assert suspects.tolist() == [1, 2]

    def test_outliers_find_the_bug(self, session_result):
        q = TreeQuery(session_result.tree_3d)
        outliers = q.outliers(max_class_size=1)
        ranks = {r for _, rs in outliers for r in rs}
        assert ranks == {1, 2}

    def test_where_is_rank_one(self, session_result):
        q = TreeQuery(session_result.tree_3d)
        paths = q.where_is(1)
        assert paths
        assert all(p.leaf.function == "do_SendOrStall" for p in paths)

    def test_tasks_at_path(self, session_result):
        q = TreeQuery(session_result.tree_3d)
        path = StackTrace.from_names(
            ["_start_blrts", "main", "PMPI_Waitall"],
            module="ring_test_bgl")
        assert q.tasks_at(path).tolist() == [2]

    def test_missing_path_is_empty(self, session_result):
        q = TreeQuery(session_result.tree_3d)
        nowhere = StackTrace.from_names(["nope"])
        assert q.tasks_at(nowhere).size == 0

    def test_class_of(self, session_result):
        q = TreeQuery(session_result.tree_2d)
        assert q.class_of(1).tolist() == [1]


class TestClassOfMatchesOracle:
    """``class_of`` reads the equivalence classes; the oracle is the
    definition it replaced, a ``where_is`` scan per observed rank."""

    @pytest.mark.parametrize("scheme", ["dense", "hierarchical"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_every_rank(self, scheme, seed):
        spec = SessionSpec(machine="atlas", daemons=4, num_samples=3,
                           seed=seed, scheme=scheme, workload="uniform:5",
                           dead_daemons=(2,))
        result = spec.run().result
        for tree in (result.tree_2d, result.tree_3d):
            q = TreeQuery(tree)
            unobserved = 0
            for rank in range(q.total_tasks + 2):
                got = q.class_of(rank)
                assert got.dtype == np.int64
                assert np.array_equal(got, oracle_class_of(q, rank)), rank
                unobserved += got.size == 0
            assert unobserved == 8 + 2  # dead daemon 2's ranks, past the end


class TestSessionPersistence:
    def test_save_load_roundtrip(self, session_result, tmp_path):
        save_session(session_result, tmp_path / "s1", machine_name="bgl-16")
        archive = load_session(tmp_path / "s1")
        assert archive.tree_3d.structurally_equal(session_result.tree_3d)
        assert [c.label() for c in archive.classes] == \
            [c.label() for c in session_result.classes]
        assert archive.meta["machine"] == "bgl-16"
        assert archive.timings.keys() == session_result.timings.keys()

    def test_saved_files_present(self, session_result, tmp_path):
        out = save_session(session_result, tmp_path / "s2")
        for name in ("tree_2d.stpt", "tree_3d.stpt", "tree_3d.dot",
                     "session.json"):
            assert (out / name).exists()
        dot = (out / "tree_3d.dot").read_text()
        assert dot.startswith("digraph")

    def test_queries_work_on_archive(self, session_result, tmp_path):
        save_session(session_result, tmp_path / "s3")
        archive = load_session(tmp_path / "s3")
        q = TreeQuery(archive.tree_3d)
        assert q.tasks_in_function("do_SendOrStall").size == 1

    def test_load_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_session(tmp_path / "nope")

    def test_version_check(self, session_result, tmp_path):
        out = save_session(session_result, tmp_path / "s4")
        meta = (out / "session.json").read_text().replace(
            '"format_version": 2', '"format_version": 9')
        (out / "session.json").write_text(meta)
        with pytest.raises(ValueError, match="version"):
            load_session(out)
