#!/usr/bin/env python3
"""End-to-end benchmark of a whole STAT session.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--trace-out PATH] [--aa] [--quick]

Without ``--workload`` every workload of ``BENCHMARK.json`` runs in turn.
Each run's work happens in fresh child processes of this script: with
``--trace 0`` two set-up probes and one measuring process (set-up, then
sessions and archive round trips for ``--seconds``, timed in calibrated
seconds: ``calibrate.py``), with ``--trace 1`` one process that measures
every layer under spans, in raw seconds.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED_PATH = HERE / "expected.json"

DEFAULT_SEED = 208_000
#: fresh-process set-ups per run; ``setup_s`` is their median
SETUP_SAMPLES = 3
QUICK_SECONDS = 1.0
#: passes per set in --aa mode
AA_PASSES = 3

#: per-layer metrics that must not depend on the host: at the default
#: seed they are compared with ``expected.json``
_HOST_INDEPENDENT_UNITS = ("count", "sim_s")
_HOST_INDEPENDENT_NAMES = ("forest.struct_cache_hit_ratio",
                           "faults.min_coverage", "tbon.bytes",
                           "merge.label_bytes_out", "archive.bytes")


def parse_args(argv: List[str]) -> argparse.Namespace:
    names = [w["name"] for w in BENCHMARK["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="generates the specs; nothing else reads it")
    parser.add_argument("--seconds", type=float,
                        help="length of the measured loop (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the per-layer traced pass")
    parser.add_argument("--trace-out", type=Path,
                        help="span file (default: out/trace-<workload>.json "
                        "beside this script)")
    parser.add_argument("--aa", action="store_true",
                        help="two interleaved end-to-end sets of the same "
                        "code, compared against the bounds")
    parser.add_argument("--quick", action="store_true",
                        help="tiny scales, one set-up, ~1 s loops")
    parser.add_argument("--write-expected", action="store_true",
                        help="with --trace 1 and no --workload: store the "
                        "host-independent values in expected.json")
    parser.add_argument("--role", choices=("setup", "measure", "trace"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick \
            else float(BENCHMARK["run_seconds"])
    return args


# -- child processes: everything that imports repro --------------------------

def child_main(args: argparse.Namespace, started: float) -> int:
    """Set up, then measure or trace; prints a report and one JSON line."""
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    runner, cold = measure.set_up(workload, args.seed, args.quick)
    setup_s = time.perf_counter() - started
    # Read before the calibration kernel builds its arrays in this process.
    setup_rss_mb = measure.peak_rss_mb(workload.pooled)
    if args.role != "trace":
        # Calibrated seconds, like every end-to-end time (calibrate.py);
        # numpy's import is part of set-up, so both passes follow it.
        from calibrate import Calibrator
        setup_s *= Calibrator().speed()
    try:
        problems = [s.error for s in cold.sessions if s.error]
        if args.role == "setup" or problems:
            out = {"setup_s": setup_s, "problems": problems}
        elif args.role == "measure":
            out = _measure(runner, args)
            out["setup_s"] = setup_s
        else:
            out = _trace(runner, args)
    finally:
        runner.close()
    if args.role == "measure" and "metrics" in out:
        # The program's peak: set-up's, or the loop's less the calibration
        # kernel's arrays.  Read after the pool is closed: its workers
        # (forked before those arrays existed) only count once reaped.
        from calibrate import RESIDENT_MB
        out["metrics"]["peak_rss_mb"] = max(
            setup_rss_mb, measure.peak_rss_mb(workload.pooled) - RESIDENT_MB)
    print(json.dumps(out))
    return 0


def _measure(runner, args: argparse.Namespace) -> Dict:
    import measure

    samples = measure.run_untraced(runner, args.seconds)
    rounds = len(samples.round_wall_s)
    metrics = {
        "session_wall_s": statistics.median(samples.session_wall_s),
        "tasks_per_s": samples.tasks / rounds
        / statistics.median(samples.round_wall_s),
        "archive_roundtrip_s": statistics.median(samples.archive_wall_s)
        if samples.archive_wall_s else 0.0,
    }
    for name in ("session_wall_s", "archive_wall_s", "round_wall_s",
                 "host_speed"):
        if getattr(samples, name):
            print(f"  {name:<20} {measure.summarize(getattr(samples, name))}")
    print(f"  sim_session_s        {samples.sim_session_s!r} simulated s "
          "(one round; per-layer metric sim.session_s)")
    return {"metrics": metrics, "attempted": samples.attempted,
            "failed": samples.failed_sessions, "problems": samples.problems}


def _trace(runner, args: argparse.Namespace) -> Dict:
    import tracing

    names = [m["name"] for m in BENCHMARK["per_layer"]]
    metrics, attempted, problems, tracer = tracing.run_traced(
        runner, args.seconds, names)
    out = args.trace_out or HERE / "out" / f"trace-{args.workload}.json"
    tracer.write(out)
    print(f"  {len(tracer.spans)} spans written to {out}")
    return {"metrics": metrics, "attempted": attempted,
            "failed": len(problems), "problems": problems}


# -- the parent: spawns children, merges, prints -----------------------------

def spawn(role: str, args: argparse.Namespace) -> Dict:
    """Run one child to its end; returns the JSON it printed last."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    if args.quick:
        cmd.append("--quick")
    if args.trace_out:
        cmd += ["--trace-out", str(args.trace_out)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        raise SystemExit(f"{role} child for {args.workload} exited with "
                         f"code {done.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def run_workload(args: argparse.Namespace) -> Dict:
    """One workload, one pass; returns the contract's result object."""
    units = {m["name"]: m["unit"]
             for m in BENCHMARK["per_layer" if args.trace else "end_to_end"]}
    print(f"== {args.workload}  seed {args.seed}  {args.seconds:g} s  "
          f"{'traced' if args.trace else 'end to end'} ==")
    if args.trace:
        out = spawn("trace", args)
    else:
        probes = 0 if args.quick else SETUP_SAMPLES - 1
        setups = [spawn("setup", args) for _ in range(probes)]
        out = spawn("measure", args)
        setups.append(out)
        out["problems"] += [p for s in setups[:-1] for p in s["problems"]]
        setup_s = [s["setup_s"] for s in setups]
        out.setdefault("metrics", {})["setup_s"] = statistics.median(setup_s)
        print(f"  setup_s samples      {[round(s, 4) for s in setup_s]}")
    for problem in out["problems"]:
        print(f"  FAILED: {problem}")
    metrics = out.get("metrics", {})
    complete = set(metrics) == set(units)
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:<32} {metrics[name]:>16.6g} {unit}")
    failed = out.get("failed", 0) or len(out["problems"])
    attempted = max(out.get("attempted", 0), 1)
    print(f"  failed_share {failed}/{attempted}")
    if args.trace and complete and not args.quick:
        _print_build_baseline(metrics)
        if args.seed == DEFAULT_SEED:
            _compare_expected(args.workload, metrics)
    return {
        "correct": complete and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }


def _print_build_baseline(metrics: Dict[str, float]) -> None:
    """``forest.*`` beside the same-scale ``bench --build`` baseline.

    ROADMAP item 1(c) suspects the pipeline pays a multiple of what
    ``bench --build`` reports for the same forest.
    """
    path = ROOT / "benchmarks" / "baselines" / "BENCH_build_full.json"
    if not path.exists():
        return
    for entry in json.loads(path.read_text())["entries"]:
        if entry["daemons"] == metrics["forest.daemons"]:
            print(f"  forest.build_wall_s {metrics['forest.build_wall_s']:.4f}"
                  f" s (replay ÷ merge phase "
                  f"{metrics['forest.replay_vs_phase_ratio']:.3f}) beside "
                  f"{entry['name']}: {entry['build_seconds']:.4f} s")


def _host_independent(metrics: Dict[str, float]) -> Dict[str, float]:
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    return {name: value for name, value in metrics.items()
            if units[name] in _HOST_INDEPENDENT_UNITS
            or name in _HOST_INDEPENDENT_NAMES}


def _compare_expected(workload: str, metrics: Dict[str, float]) -> None:
    """Print every count and simulated time that moved since stored."""
    stored = json.loads(EXPECTED_PATH.read_text()).get(workload, {}) \
        if EXPECTED_PATH.exists() else {}
    moved = [(name, stored.get(name), value)
             for name, value in _host_independent(metrics).items()
             if stored.get(name) != value]
    for name, was, now in moved:
        print(f"  DIFFERS from expected.json: {name} stored {was!r} "
              f"now {now!r}")
    if not moved:
        print("  every count and simulated time equals expected.json")


def run_set(args: argparse.Namespace, names: List[str]) -> Dict[str, Dict]:
    results = {}
    for name in names:
        one = argparse.Namespace(**{**vars(args), "workload": name})
        results[name] = run_workload(one)
    return results


def run_aa(args: argparse.Namespace, names: List[str]) -> bool:
    """Two interleaved end-to-end sets of the same code against the bounds.

    Passes alternate between the sets and reverse the workload order each
    time, so slow drift of the host lands on both; a set's value is the
    median of its passes.  True when every difference is within its bound.
    """
    sets: List[List[Dict]] = [[], []]
    for i in range(2 * AA_PASSES):
        sets[i % 2].append(run_set(args, names[::1 - 2 * (i % 2)]))
    within = all(r["correct"] for passes in sets for results in passes
                 for r in results.values())
    print(f"\n== A/A: medians of {AA_PASSES} passes per set ==")
    print(f"{'workload':<30} {'metric':<20} {'first':>12} {'second':>12} "
          f"{'diff':>8} {'bound':>6}")
    for name in names:
        for metric in BENCHMARK["end_to_end"]:
            a, b = (statistics.median(
                results[name]["metrics"][metric["name"]]["value"]
                for results in passes) for passes in sets)
            diff = (b - a) / a
            breach = abs(diff) > metric["bound"]
            within &= not breach
            print(f"{name:<30} {metric['name']:<20} {a:>12.5g} {b:>12.5g} "
                  f"{diff:>+8.1%} {metric['bound']:>6.0%}"
                  f"{'  BREACH' if breach else ''}")
    return within


def main(argv: List[str]) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.role:
        return child_main(args, started)
    if args.workload:
        result = run_workload(args)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    names = [w["name"] for w in BENCHMARK["workloads"]]
    if args.aa:
        return 0 if run_aa(args, names) else 1
    results = run_set(args, names)
    if args.trace and args.write_expected:
        EXPECTED_PATH.write_text(json.dumps(
            {name: _host_independent(
                {k: v["value"] for k, v in r["metrics"].items()})
             for name, r in results.items()}, indent=2, sort_keys=True) + "\n")
        print(f"wrote {EXPECTED_PATH}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
