"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments import REGISTRY

#: per bench kind: a table column, and the baseline field (and factor)
#: that makes a baseline impossible to meet
BENCH_KINDS = {"merge": ("speedup", "speedup", 1000.0),
               "build": ("speedup", "speedup", 1000.0),
               "stream": ("ttfinal", "wall_ratio", 0.001)}


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

    def test_bench_takes_one_kind_and_eight_options(self):
        args = build_parser().parse_args(["bench", "stream"])
        assert args.kind == "stream" and args.out is None
        assert sorted(set(vars(args)) - {"command", "kind"}) == \
            ["baseline", "daemons", "out", "quick", "repeats", "samples",
             "scale", "seed"]

    @pytest.mark.parametrize("argv", [
        ["bench"], ["bench", "finalize"], ["bench", "merge", "build"],
        ["bench", "merge", "--build"], ["bench", "merge", "--stream"],
        ["bench", "merge", "--build-out", "x.json"],
        ["bench", "merge", "--build-baseline", "x.json"],
        ["bench", "merge", "--stream-out", "x.json"],
        ["bench", "merge", "--stream-baseline", "x.json"]])
    def test_bench_without_a_kind_or_with_a_removed_flag_is_a_usage_error(
            self, argv):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(argv)
        assert err.value.code == 2


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

    @pytest.mark.parametrize("kind", BENCH_KINDS)
    def test_bench_quick_writes_json(self, kind, tmp_path, capsys,
                                     monkeypatch):
        import json
        monkeypatch.chdir(tmp_path)  # --out defaults to BENCH_<kind>.json
        assert main(["bench", kind, "--daemons", "4", "--samples", "2",
                     "--repeats", "1"]) == 0
        stdout = capsys.readouterr().out
        assert BENCH_KINDS[kind][0] in stdout
        assert f"report written to BENCH_{kind}.json" in stdout
        data = json.loads((tmp_path / f"BENCH_{kind}.json").read_text())
        assert {e["scheme"] for e in data["entries"]} == \
            {"original", "optimized"}

    @pytest.mark.parametrize("kind", BENCH_KINDS)
    def test_bench_baseline_gate(self, kind, tmp_path, capsys):
        import json
        out = tmp_path / "bench.json"
        argv = ["bench", kind, "--daemons", "4", "--samples", "2",
                "--repeats", "1", "--out", str(out)]
        assert main(argv) == 0
        assert main(argv + ["--baseline", str(out)]) == 0
        assert "baseline: " in capsys.readouterr().out
        # impossible baseline -> nonzero exit and a REGRESSION message
        _, field, factor = BENCH_KINDS[kind]
        data = json.loads(out.read_text())
        for entry in data["entries"]:
            entry[field] *= factor
        base = tmp_path / "base.json"
        base.write_text(json.dumps(data))
        assert main(argv + ["--baseline", str(base)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    @pytest.mark.parametrize("kind, scale", [("merge", "ten-million"),
                                             ("stream", "million")])
    def test_bench_scale_the_kind_lacks_is_a_usage_error(self, kind, scale,
                                                         capsys):
        assert main(["bench", kind, "--scale", scale]) == 2
        assert f"bench {kind} has no scale" in capsys.readouterr().err

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
        import json
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
