"""Unit tests for the three launchers and the process table."""

import pickle

import numpy as np
import pytest

from repro.launch import (
    BglSystemLauncher,
    LaunchError,
    LaunchHang,
    LaunchMonLauncher,
    SerialRshLauncher,
    build_process_table,
)
from repro.launch.process_table import pack_table
from repro.machine.atlas import AtlasMachine
from repro.machine.bgl import BGLMachine
from repro.tbon.topology import Topology


class TestProcessTable:
    def test_block_mapping_entries(self):
        table = build_process_table(2, 4, "block")
        assert table.daemon_of(0) == 0
        assert table.daemon_of(4) == 1
        assert table.local_slot_of(5) == 1

    def test_cyclic_mapping_entries(self):
        table = build_process_table(2, 2, "cyclic")
        assert table.daemon_of(0) == 0
        assert table.daemon_of(1) == 1
        assert table.daemon_of(2) == 0

    def test_shuffled_requires_rng(self):
        with pytest.raises(ValueError):
            build_process_table(2, 2, "shuffled")
        table = build_process_table(2, 2, "shuffled",
                                    rng=np.random.default_rng(1))
        assert table.num_tasks == 4

    def test_unknown_mapping(self):
        with pytest.raises(ValueError):
            build_process_table(2, 2, "diagonal")

    def test_pids_unique(self):
        table = build_process_table(4, 8, "block")
        pids = [table.pid_of(r) for r in range(32)]
        assert len(set(pids)) == 32

    @pytest.mark.parametrize("mapping", ["block", "cyclic", "shuffled"])
    def test_derived_entries_equal_the_per_rank_loop(self, mapping):
        table = build_process_table(5, 7, mapping, base_pid=400,
                                    rng=np.random.default_rng(3))
        # the loop build_process_table ran before entries were derived
        looped = [(-1, -1, -1)] * table.num_tasks
        for daemon in range(table.num_daemons):
            for slot, rank in enumerate(table.task_map.ranks_of(daemon)):
                looped[int(rank)] = (daemon, slot, 400 + int(rank))
        assert table.entries == looped
        assert {type(v) for row in table.entries for v in row} == {int}

    def test_entries_are_neither_stored_nor_pickled(self):
        table = build_process_table(64, 64, "cyclic")
        assert "entries" not in vars(table)
        blob = pickle.dumps(table)
        assert len(blob) - len(pickle.dumps(table.task_map)) < 256
        assert pickle.loads(blob).entries == table.entries

    def test_task_map_consistent_with_entries(self):
        table = build_process_table(3, 4, "cyclic")
        for rank in range(12):
            d = table.daemon_of(rank)
            assert rank in table.task_map.ranks_of(d)


class TestPackTable:
    def test_strcat_and_cursor_agree(self):
        table = build_process_table(4, 16, "block")
        assert pack_table(table, use_strcat=True) == \
            pack_table(table, use_strcat=False)

    def test_packed_bytes(self):
        assert pack_table(build_process_table(2, 2, "cyclic")) == \
            b"0:0:0:1000;1:1:0:1001;2:0:1:1002;3:1:1:1003;"

    def test_packed_contains_every_rank(self):
        table = build_process_table(2, 4, "block")
        packed = pack_table(table)
        for rank in range(8):
            assert f"{rank}:".encode() in packed

    def test_strcat_is_asymptotically_worse(self):
        """The pre-patch packing really does quadratic scanning work."""
        import time

        def cost(tasks, strcat):
            table = build_process_table(tasks // 16, 16, "block")
            best = float("inf")
            for _ in range(3):  # best-of: one scheduler hiccup is not growth
                t0 = time.perf_counter()
                pack_table(table, use_strcat=strcat)
                best = min(best, time.perf_counter() - t0)
            return best

        # Growth factor over a 4x size increase: linear path ~4x,
        # strcat path ~16x. Compare their ratio with a margin.
        slow_growth = cost(8192, True) / max(cost(2048, True), 1e-9)
        fast_growth = cost(8192, False) / max(cost(2048, False), 1e-9)
        assert slow_growth > fast_growth * 1.5


class TestSerialRsh:
    def test_linear_scaling(self):
        launcher = SerialRshLauncher("rsh")
        machine = AtlasMachine.with_nodes(64)
        t64 = launcher.launch(machine, Topology.flat(64)).sim_time
        t128 = launcher.launch(AtlasMachine.with_nodes(128),
                               Topology.flat(128)).sim_time
        assert t128 / t64 == pytest.approx(2.0, rel=0.1)

    def test_rsh_fails_at_512(self):
        """'At 512 nodes, MRNet consistently fails ... when using rsh.'"""
        launcher = SerialRshLauncher("rsh")
        with pytest.raises(LaunchError, match="512"):
            launcher.launch(AtlasMachine.with_nodes(512),
                            Topology.flat(512))

    def test_ssh_does_not_fail_at_512(self):
        """Thunder scaled past 512 using ssh (Section IV-A)."""
        launcher = SerialRshLauncher("ssh")
        result = launcher.launch(AtlasMachine.with_nodes(512),
                                 Topology.flat(512))
        assert result.sim_time > 120  # over 2 minutes, as extrapolated

    def test_invalid_protocol(self):
        with pytest.raises(ValueError):
            SerialRshLauncher("telnet")

    def test_counts_comm_processes(self):
        launcher = SerialRshLauncher("rsh")
        topo = Topology.balanced(64, 2)
        res = launcher.launch(AtlasMachine.with_nodes(64), topo)
        assert res.cps_launched == len(topo.comm_processes)

    def test_breakdown_phases(self):
        res = SerialRshLauncher("rsh").launch(
            AtlasMachine.with_nodes(16), Topology.flat(16))
        assert set(res.breakdown) == {"tool.daemons", "tool.comm_processes",
                                      "tool.connect"}
        assert res.system_software_fraction() == 0.0


class TestLaunchMon:
    def test_512_daemons_near_paper_anchor(self):
        """'STAT starts 512 daemons in 5.6 seconds'"""
        res = LaunchMonLauncher().launch(AtlasMachine.with_nodes(512),
                                         Topology.flat(512))
        assert 4.5 <= res.sim_time <= 7.0

    def test_order_of_magnitude_faster_than_serial(self):
        machine = AtlasMachine.with_nodes(256)
        topo = Topology.flat(256)
        serial = SerialRshLauncher("rsh").launch(machine, topo).sim_time
        bulk = LaunchMonLauncher().launch(machine, topo).sim_time
        assert serial / bulk > 10

    def test_sublinear_scaling(self):
        lm = LaunchMonLauncher()
        t64 = lm.launch(AtlasMachine.with_nodes(64),
                        Topology.flat(64)).sim_time
        t512 = lm.launch(AtlasMachine.with_nodes(512),
                         Topology.flat(512)).sim_time
        assert t512 / t64 < 8 * 0.5  # far below linear


class TestBglCiod:
    def test_over_100s_at_1024_nodes(self):
        m = BGLMachine.with_compute_nodes(1024, "co")
        res = BglSystemLauncher(patched=True).launch(
            m, Topology.bgl_two_deep(m.num_daemons))
        assert res.sim_time >= 99.0

    def test_system_software_dominates_at_64k_vn(self):
        """'the system software accounts for over 86% of the startup'"""
        m = BGLMachine.with_compute_nodes(65536, "vn")
        res = BglSystemLauncher(patched=False).launch(
            m, Topology.bgl_two_deep(m.num_daemons))
        assert res.system_software_fraction() > 0.86

    def test_prepatch_hangs_at_208k(self):
        m = BGLMachine.full_machine("vn")
        with pytest.raises(LaunchHang):
            BglSystemLauncher(patched=False).launch(
                m, Topology.bgl_two_deep(m.num_daemons))

    def test_patched_completes_at_208k(self):
        m = BGLMachine.full_machine("vn")
        res = BglSystemLauncher(patched=True).launch(
            m, Topology.bgl_two_deep(m.num_daemons))
        assert res.sim_time > 0

    def test_patch_speedup_at_104k_co(self):
        """'more than a two fold speedup at 104K processes in the 2-deep
        CO case'"""
        m = BGLMachine.full_machine("co")
        topo = Topology.bgl_two_deep(m.num_daemons)
        pre = BglSystemLauncher(patched=False).launch(m, topo).sim_time
        post = BglSystemLauncher(patched=True).launch(m, topo).sim_time
        assert pre / post > 2.0

    def test_linear_scaling_patched(self):
        launcher = BglSystemLauncher(patched=True)
        times = []
        for cn in (16384, 32768, 65536):
            m = BGLMachine.with_compute_nodes(cn, "co")
            times.append(launcher.launch(
                m, Topology.bgl_two_deep(m.num_daemons)).sim_time)
        d1 = times[1] - times[0]
        d2 = times[2] - times[1]
        assert d2 / d1 == pytest.approx(2.0, rel=0.3)  # linear in CN

    def test_task_map_produced(self):
        m = BGLMachine.with_compute_nodes(1024, "co")
        res = BglSystemLauncher(True).launch(
            m, Topology.bgl_two_deep(m.num_daemons), mapping="cyclic")
        assert res.process_table.task_map.total_tasks == m.total_tasks
        assert not res.process_table.task_map.is_rank_ordered()
