"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Outside ``testpaths = ["tests"]``, so tier-1 never runs it.  Drives
``run.py --quick`` exactly as a user would and checks its report against
``BENCHMARK.json``.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def quick(*flags):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", *flags],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    assert done.returncode == 0, done.stdout[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace, section",
                         [("0", "end_to_end"), ("1", "per_layer")])
def test_quick_reports_every_declared_metric(trace, section):
    report = quick("--trace", trace)
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert list(report) == [w["name"] for w in BENCHMARK["workloads"]]
    for workload, result in report.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, workload
        assert result["failed"] == 0 and result["attempted"] >= 1
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        assert units == declared, workload
        for name, metric in result["metrics"].items():
            value = metric["value"]
            assert isinstance(value, (int, float)) and math.isfinite(value)
            if section == "end_to_end":
                assert value > 0, (workload, name)


def test_single_workload_prints_result_object_last():
    name = BENCHMARK["workloads"][0]["name"]
    result = quick("--workload", name, "--seed", "7", "--seconds", "0.5",
                   "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"]
                                      for m in BENCHMARK["end_to_end"]}


def test_benchmark_json_matches_the_workload_definitions():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["workloads"] == [{"name": w.name, "why": w.why}
                                      for w in WORKLOADS.values()]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert any(m == {"name": "setup_s", "unit": "s", "better": "lower",
                     "bound": m["bound"]} for m in BENCHMARK["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
