"""Tests for the kernel benchmark harness, ``benchmarks/kernels/run.py``.

Tier-1 runs them: ``benchmarks/kernels`` is in the pytest ``testpaths``.
The harness module is loaded from its file under its own name, so it
never shadows ``benchmarks/e2e/run.py``.
"""

import copy
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BASELINES = ROOT / "benchmarks" / "baselines"

_spec = importlib.util.spec_from_file_location("kernel_bench",
                                               HERE / "run.py")
kernel_bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = kernel_bench  # dataclasses resolve through it
_spec.loader.exec_module(kernel_bench)
build_parser = kernel_bench.build_parser
check_baseline = kernel_bench.check_baseline
main = kernel_bench.main
run_bench = kernel_bench.run_bench

#: per bench kind: a table column, and the baseline field (and factor)
#: that makes a baseline impossible to meet
CLI_KINDS = {"merge": ("speedup", "speedup", 1000.0),
             "build": ("speedup", "speedup", 1000.0),
             "stream": ("ttfinal", "wall_ratio", 0.001)}


class TestParser:
    def test_bench_takes_one_kind_and_eight_options(self):
        args = build_parser().parse_args(["stream"])
        assert args.kind == "stream" and args.out is None
        assert sorted(set(vars(args)) - {"kind"}) == \
            ["baseline", "daemons", "out", "quick", "repeats", "samples",
             "scale", "seed"]

    @pytest.mark.parametrize("argv", [
        [], ["finalize"], ["merge", "build"],
        ["merge", "--build"], ["merge", "--stream"],
        ["merge", "--build-out", "x.json"],
        ["merge", "--build-baseline", "x.json"],
        ["merge", "--stream-out", "x.json"],
        ["merge", "--stream-baseline", "x.json"]])
    def test_bench_without_a_kind_or_with_a_removed_flag_is_a_usage_error(
            self, argv):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(argv)
        assert err.value.code == 2


class TestCommands:
    @pytest.mark.parametrize("kind", CLI_KINDS)
    def test_bench_quick_writes_json(self, kind, tmp_path, capsys,
                                     monkeypatch):
        monkeypatch.chdir(tmp_path)  # --out defaults to BENCH_<kind>.json
        assert main([kind, "--daemons", "4", "--samples", "2",
                     "--repeats", "1"]) == 0
        stdout = capsys.readouterr().out
        assert CLI_KINDS[kind][0] in stdout
        assert f"report written to BENCH_{kind}.json" in stdout
        data = json.loads((tmp_path / f"BENCH_{kind}.json").read_text())
        assert {e["scheme"] for e in data["entries"]} == \
            {"original", "optimized"}

    @pytest.mark.parametrize("kind", CLI_KINDS)
    def test_bench_baseline_gate(self, kind, tmp_path, capsys):
        out = tmp_path / "bench.json"
        argv = [kind, "--daemons", "4", "--samples", "2",
                "--repeats", "1", "--out", str(out)]
        assert main(argv) == 0
        assert main(argv + ["--baseline", str(out)]) == 0
        assert "baseline: " in capsys.readouterr().out
        # impossible baseline -> nonzero exit and a REGRESSION message
        _, field, factor = CLI_KINDS[kind]
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
        assert main([kind, "--scale", scale]) == 2
        assert f"bench {kind} has no scale" in capsys.readouterr().err

    def test_script_runs_from_any_directory_without_pythonpath(
            self, tmp_path):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "merge", "--daemons",
             "2", "--samples", "1", "--repeats", "1", "--out",
             str(tmp_path / "m.json"), "--baseline",
             str(tmp_path / "m.json")],
            cwd=tmp_path, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-2000:]
        assert "baseline: original-vn-2: ok (" in done.stdout


BENCH_KINDS = ("merge", "build", "stream")
#: per kind: the baseline field an impossible baseline inflates, and by what
REGRESSION_FIELD = {"merge": ("speedup", 100.0), "build": ("speedup", 100.0),
                    "stream": ("wall_ratio", 0.01)}


def small_bench(kind, **kwargs):
    return run_bench(kind, daemons=4, samples=2, repeats=1,
                     progress=lambda *_: None, **kwargs)


def tampered(report, **changes):
    """A copy of ``report`` whose first entry has ``changes`` applied."""
    clone = copy.deepcopy(report)
    for name, value in changes.items():
        setattr(clone.entries[0], name, value)
    return clone


class TestBenchHarness:
    @pytest.fixture(scope="class")
    def reports(self):
        return {kind: small_bench(kind) for kind in BENCH_KINDS}

    @pytest.fixture
    def own_baseline(self, reports, tmp_path):
        """Each kind's report written out as its own baseline file."""
        paths = {}
        for kind, report in reports.items():
            paths[kind] = tmp_path / f"BENCH_{kind}.json"
            report.write(str(paths[kind]))
        return paths

    def test_bench_emits_valid_json(self, reports, own_baseline):
        data = json.loads(own_baseline["merge"].read_text())
        assert data["version"] == 1
        assert len(data["entries"]) == 2
        schemes = {e["scheme"] for e in data["entries"]}
        assert schemes == {"original", "optimized"}
        for entry in data["entries"]:
            assert entry["equal"] is True
            assert entry["reference_seconds"] > 0
            assert entry["vectorized_seconds"] > 0
            assert entry["tasks"] == 4 * 128
        assert reports["merge"].ok
        assert "speedup" in reports["merge"].table()

    def test_bench_build_report(self, reports, own_baseline):
        # ring-hang under both schemes + the low-sharing uniform:64 mix
        report = reports["build"]
        assert len(report.entries) == 3
        for entry in report.entries:
            assert entry.equal is True
            assert entry.reference_skipped is False
            assert entry.vectorized_seconds > 0
            assert entry.reference_seconds > 0
            assert entry.build_seconds == entry.vectorized_seconds
        data = json.loads(own_baseline["build"].read_text())
        assert data["workload"] == "fig07-ring-hang-bgl-build"
        assert {e["name"] for e in data["entries"]} == \
            {"build-original-vn-4", "build-optimized-vn-4",
             "build-optimized-vn-4-uniform64"}

    def test_bench_stream_report(self, reports, own_baseline):
        report = reports["stream"]
        assert report.ok and "ttfinal" in report.table()
        assert "fault demo: faults.injected=" in report.table()
        data = json.loads(own_baseline["stream"].read_text())
        assert data["workload"] == "fig07-ring-hang-bgl-stream"
        assert set(data["fault_counters"]) == \
            {"faults.injected", "tbon.retries", "tbon.corrupt_detected"}
        for entry in data["entries"]:
            assert entry["equal"] is True
            assert 0 < entry["ttft"] < 0.2 * entry["ttfinal"]
            assert entry["partial_merges"] == 3
            assert entry["wall_ratio"] > 0

    @pytest.mark.parametrize("kind", BENCH_KINDS)
    def test_report_fields_are_the_checked_in_baselines(self, kind, reports):
        """The six baselines under benchmarks/baselines gate the harness
        unregenerated: same top-level fields, entry names and entry keys."""
        checked_in = json.loads(
            (BASELINES / f"BENCH_{kind}_quick.json").read_text())
        data = reports[kind].to_dict()
        assert sorted(data) == sorted(checked_in)
        assert data["workload"] == checked_in["workload"]
        assert [e["name"].replace("-vn-4", "-vn-64")
                for e in data["entries"]] == \
            [e["name"] for e in checked_in["entries"]]
        for entry, base in zip(data["entries"], checked_in["entries"]):
            assert sorted(entry) == sorted(base)

    def test_quick_does_not_override_explicit_values(self):
        report = small_bench("merge", quick=True)
        assert all(e.daemons == 4 for e in report.entries)
        assert all(e.samples == 2 for e in report.entries)
        with pytest.raises(ValueError):
            run_bench("merge", daemons=0, progress=lambda *_: None)

    def test_unknown_kind_and_scale_are_rejected(self):
        with pytest.raises(ValueError, match="unknown bench kind"):
            small_bench("finalize")
        for kind, scale in [("merge", "ten-million"), ("stream", "million")]:
            with pytest.raises(ValueError, match="has no scale"):
                small_bench(kind, scale=scale)

    @pytest.mark.parametrize("kind", BENCH_KINDS)
    def test_baseline_regression_detection(self, kind, reports,
                                           own_baseline):
        report, base = reports[kind], own_baseline[kind]
        ok, messages = check_baseline(report, str(base))
        assert ok and len(messages) == len(report.entries)
        assert all(": ok (" in m for m in messages)
        # a baseline claiming a 100x better ratio must trip the 2x gate
        field, factor = REGRESSION_FIELD[kind]
        better = report.to_dict()
        for entry in better["entries"]:
            entry[field] *= factor
        base.write_text(json.dumps(better))
        ok, messages = check_baseline(report, str(base))
        assert not ok
        assert all("REGRESSION" in m for m in messages)

    @pytest.mark.parametrize("kind", BENCH_KINDS)
    def test_divergence_fails_before_any_baseline(self, kind, reports,
                                                  own_baseline):
        broken = tampered(reports[kind], equal=False)
        assert not broken.ok
        assert len(broken.failures()) == 1
        ok, messages = check_baseline(broken, str(own_baseline[kind]))
        assert not ok
        assert "diverged" in messages[0] and ": ok (" in messages[1]

    @pytest.mark.parametrize("kind", BENCH_KINDS)
    def test_missing_baseline_entry_is_strict(self, kind, reports, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"entries": []}))
        ok, messages = check_baseline(reports[kind], str(empty))
        assert not ok
        assert all("no matching baseline entry" in m for m in messages)

    def test_stream_ttft_gate(self, reports, own_baseline):
        late = tampered(reports["stream"], ttft_ratio=0.25)
        assert not late.ok
        ok, messages = check_baseline(late, str(own_baseline["stream"]))
        assert not ok and "TTFT GATE" in messages[0]

    def test_stream_wall_ratio_gate(self, reports, own_baseline):
        slow = tampered(reports["stream"], wall_ratio=6.0)
        assert not slow.ok
        ok, messages = check_baseline(slow, str(own_baseline["stream"]))
        assert not ok and "WALL RATIO GATE" in messages[0]
        assert ": ok (" in messages[1]

    def test_stream_simulated_time_drift(self, reports, own_baseline):
        base = own_baseline["stream"]
        moved = json.loads(base.read_text())
        moved["entries"][0]["ttfinal"] *= 1.001
        base.write_text(json.dumps(moved))
        ok, messages = check_baseline(reports["stream"], str(base))
        assert not ok
        assert "simulated ttfinal drifted" in messages[0]
        assert ": ok (" in messages[1]
