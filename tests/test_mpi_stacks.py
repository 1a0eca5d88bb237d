"""Unit tests for the platform stack models (Figure 1 frames)."""

import numpy as np

from repro.core.sampling import walk_words
from repro.mpi.runtime import RankState


class TestBGLStackModel:
    def test_barrier_has_figure1_frames(self, bgl_stacks, word):
        trace = bgl_stacks.trace_for(RankState("barrier"), word)
        names = [f.function for f in trace]
        assert names[:2] == ["_start_blrts", "main"]
        assert "PMPI_Barrier" in names
        assert "MPIDI_BGLGI_Barrier" in names
        assert "BGLMP_GIBarrier" in names
        assert "BGLML_Messager_CMadvance" in names

    def test_stall_shows_user_function(self, bgl_stacks):
        trace = bgl_stacks.trace_for(RankState("stall", "do_SendOrStall"))
        assert trace.leaf.function == "do_SendOrStall"
        assert trace.depth == 3

    def test_waitall_progress_frames(self, bgl_stacks, word):
        trace = bgl_stacks.trace_for(RankState("waitall"), word)
        names = [f.function for f in trace]
        assert "PMPI_Waitall" in names
        assert "MPID_Progress_wait" in names

    def test_gettimeofday_leaf_appears_sometimes(self, bgl_stacks):
        leaves = {bgl_stacks.trace_for(RankState("waitall"), w).leaf.function
                  for w in walk_words(0, 0, np.arange(200), 0, 0).tolist()}
        assert "__gettimeofday" in leaves
        assert "BGLML_Messager_CMadvance" in leaves

    def test_depth_varies_over_samples(self, bgl_stacks):
        depths = {bgl_stacks.trace_for(RankState("barrier"), w).depth
                  for w in walk_words(1, 0, np.arange(100), 0, 0).tolist()}
        assert len(depths) >= 2  # the 3D-over-time variation

    def test_no_word_gives_fixed_depth(self, bgl_stacks):
        a = bgl_stacks.trace_for(RankState("barrier"))
        b = bgl_stacks.trace_for(RankState("barrier"))
        assert a == b

    def test_worker_thread_stack(self, bgl_stacks, word):
        trace = bgl_stacks.trace_for(RankState("barrier"), word, thread_id=2)
        names = [f.function for f in trace]
        assert "omp_worker_loop" in names
        assert "PMPI_Barrier" not in names
        assert trace.thread_id == 2

    def test_identical_traces_share_instances(self, bgl_stacks):
        a = bgl_stacks.trace_for(RankState("stall", "f"))
        b = bgl_stacks.trace_for(RankState("stall", "f"))
        assert a is b  # memoized

    def test_static_binary_single_module(self, bgl_stacks, word):
        trace = bgl_stacks.trace_for(RankState("barrier"), word)
        assert {f.module for f in trace} == {bgl_stacks.app_module}


class TestLinuxStackModel:
    def test_base_frames(self, linux_stacks, word):
        trace = linux_stacks.trace_for(RankState("barrier"), word)
        names = [f.function for f in trace]
        assert names[:3] == ["_start", "__libc_start_main", "main"]

    def test_mpi_frames_in_mpi_module(self, linux_stacks, word):
        trace = linux_stacks.trace_for(RankState("waitall"), word)
        modules = {f.function: f.module for f in trace}
        assert modules["main"] == linux_stacks.app_module
        assert modules["PMPI_Waitall"] == linux_stacks.mpi_module

    def test_recv_wait_uses_recv_entry(self, linux_stacks, word):
        trace = linux_stacks.trace_for(RankState("recv_wait"), word)
        assert "PMPI_Recv" in [f.function for f in trace]

    def test_compute_state_shows_user_frame(self, linux_stacks):
        trace = linux_stacks.trace_for(RankState("compute", "do_setup"))
        assert trace.leaf.function == "do_setup"

    def test_mean_depth_positive(self, linux_stacks, bgl_stacks):
        assert linux_stacks.mean_depth() > 0
        assert bgl_stacks.mean_depth() > linux_stacks.mean_depth()

    def test_done_state_minimal(self, linux_stacks):
        assert linux_stacks.trace_for(RankState("done")).depth == 1
