"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments import REGISTRY


class TestParser:
    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.machine == "bgl" and args.daemons == 16

    def test_figure_requires_known_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_kernel_benchmarks_are_not_a_subcommand(self):
        # they live in benchmarks/kernels/run.py, beside their baselines
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "merge"])


class TestCommands:
    def test_list_prints_registry(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for key in REGISTRY:
            assert key in out

    def test_demo_bgl(self, capsys):
        assert main(["demo", "--daemons", "4", "--samples", "3"]) == 0
        out = capsys.readouterr().out
        assert "equivalence classes: 3" in out
        assert "do_SendOrStall" in out
        assert "attach a heavyweight debugger to ranks" in out

    def test_demo_atlas_with_sbrs(self, capsys):
        assert main(["demo", "--machine", "atlas", "--daemons", "4",
                     "--samples", "2", "--sbrs"]) == 0
        out = capsys.readouterr().out
        assert "sbrs" in out

    def test_figure_quick_runs(self, capsys):
        assert main(["figure", "fig2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "launchmon" in out
        assert "FAIL" in out  # the rsh line at 512

    def test_figure_fig6_quick(self, capsys):
        assert main(["figure", "fig6", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "1 megabit" in out

    def test_demo_with_topology_shape(self, capsys):
        assert main(["demo", "--daemons", "8", "--samples", "2",
                     "--topology", "2x4"]) == 0
        assert "equivalence classes" in capsys.readouterr().out

    def test_run_spec_matches_legacy_timings(self, tmp_path, capsys):
        """Acceptance: `run --spec` reproduces attach_and_analyze exactly."""
        from repro.api import SessionSpec
        from repro.core.frontend import STATFrontEnd
        from repro.statbench import ring_hang_states

        spec = SessionSpec(machine="bgl", daemons=4, num_samples=2, seed=9)
        path = spec.save(tmp_path / "spec.json")
        assert main(["run", "--spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert "STAT session summary" in out

        machine = spec.build_machine()
        legacy = STATFrontEnd(machine, seed=9).attach_and_analyze(
            ring_hang_states(machine.total_tasks), num_samples=2)
        for name, seconds in legacy.timings.items():
            assert f"{name:<12} {seconds:10.3f} s" in out

    def test_run_spec_save_embeds_spec(self, tmp_path, capsys):
        from repro.api import SessionSpec
        from repro.core.session import load_session

        spec = SessionSpec(machine="bgl", daemons=4, num_samples=2)
        path = spec.save(tmp_path / "spec.json")
        sess = tmp_path / "sess"
        assert main(["run", "--spec", str(path),
                     "--save", str(sess)]) == 0
        capsys.readouterr()
        assert load_session(sess).spec == spec

    def test_run_spec_partial_session(self, tmp_path, capsys):
        from repro.api import SessionSpec

        spec = SessionSpec(machine="bgl", daemons=4, stop_after="launch")
        path = spec.save(tmp_path / "spec.json")
        assert main(["run", "--spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert "launch" in out and "merge" not in out

    def test_run_spec_partial_session_warns_on_save(self, tmp_path, capsys):
        from repro.api import SessionSpec

        spec = SessionSpec(machine="bgl", daemons=4, stop_after="launch")
        path = spec.save(tmp_path / "spec.json")
        sess = tmp_path / "sess"
        assert main(["run", "--spec", str(path), "--save", str(sess)]) == 0
        assert "nothing to save" in capsys.readouterr().out
        assert not sess.exists()

    def test_run_bad_spec_exits_cleanly(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(SystemExit, match="invalid spec"):
            main(["run", "--spec", str(bad)])
        with pytest.raises(SystemExit, match="cannot read spec"):
            main(["run", "--spec", str(tmp_path / "missing.json")])

    def test_sweep_four_specs(self, tmp_path, capsys):
        from repro.api import SessionSpec

        spec = SessionSpec(machine="bgl", daemons=4, num_samples=2)
        path = spec.save(tmp_path / "spec.json")
        assert main(["sweep", str(path),
                     "--vary", "daemons=3,4,5,6"]) == 0
        out = capsys.readouterr().out
        assert "4 scenarios" in out
        for daemons in (3, 4, 5, 6):
            assert f"daemons={daemons}" in out

    def test_sweep_reports_failures_nonzero(self, tmp_path, capsys):
        from repro.api import SessionSpec

        spec = SessionSpec(machine="atlas", daemons=512, launcher="rsh",
                           topology="flat", stop_after="launch")
        path = spec.save(tmp_path / "spec.json")
        assert main(["sweep", str(path), "--serial"]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_sweep_bad_vary_exits(self, tmp_path):
        from repro.api import SessionSpec

        path = SessionSpec(machine="bgl",
                           daemons=4).save(tmp_path / "spec.json")
        with pytest.raises(SystemExit):
            main(["sweep", str(path), "--vary", "daemons"])

    def test_sweep_vary_shuffled_mapping_exits(self, tmp_path):
        from repro.api import SessionSpec

        path = SessionSpec(machine="bgl",
                           daemons=4).save(tmp_path / "spec.json")
        with pytest.raises(SystemExit, match="mapping must be one of"):
            main(["sweep", str(path), "--vary", "mapping=shuffled"])

    def test_save_and_inspect_roundtrip(self, tmp_path, capsys):
        session_dir = str(tmp_path / "sess")
        assert main(["demo", "--daemons", "4", "--samples", "2",
                     "--save", session_dir]) == 0
        capsys.readouterr()

        assert main(["inspect", session_dir]) == 0
        out = capsys.readouterr().out
        assert "classes:" in out and "do_SendOrStall" in out

        assert main(["inspect", session_dir, "--rank", "1"]) == 0
        out = capsys.readouterr().out
        assert "do_SendOrStall" in out

        assert main(["inspect", session_dir,
                     "--function", "PMPI_Waitall"]) == 0
        out = capsys.readouterr().out
        assert "1:[2]" in out
