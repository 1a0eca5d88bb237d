"""The ``stat-repro lint`` subcommand implementation.

Kept out of :mod:`repro.cli` so the top-level CLI stays a thin
dispatcher.  Exit codes: 0 = clean (every finding baselined), 1 = new
findings (or the ``--max-seconds`` budget blown), 2 = usage error
(unknown rule id, unknown ``--why`` id).

Beyond the rule run itself:

* ``--why ID`` — replay the propagation chain behind a dataflow
  finding (ids appear in ``determinism-taint`` / ``pickle-reachability``
  messages);
* ``--stats`` — per-rule wall-clock timing table;
* ``--max-seconds N`` — fail when the full run exceeds the budget, so
  the analyzer itself stays fast enough to gate CI.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Dict, List

from repro.lint.baseline import Baseline
from repro.lint.engine import all_rules, lint_paths

__all__ = ["add_lint_arguments", "run_lint"]

#: repo-conventional baseline location (committed when non-empty)
DEFAULT_BASELINE = ".repro-lint-baseline.json"


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to an (sub)argument parser."""
    parser.add_argument("paths", nargs="*", default=None, metavar="PATH",
                        help="files/directories to lint (default: src)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="also write the report (in --format) here")
    parser.add_argument("--baseline", metavar="FILE",
                        default=DEFAULT_BASELINE,
                        help=f"baseline file (default: "
                             f"{DEFAULT_BASELINE}; missing = empty)")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline: every finding fails")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from the current "
                             "findings (adds new, expires stale) and "
                             "exit 0")
    parser.add_argument("--select", metavar="RULE[,RULE...]", default=None,
                        help="run only these rule ids")
    parser.add_argument("--root", metavar="DIR", default=".",
                        help="repo root findings are relative to")
    parser.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    parser.add_argument("--why", metavar="ID", default=None,
                        help="replay the propagation chain behind a "
                             "dataflow finding id")
    parser.add_argument("--stats", action="store_true",
                        help="print per-rule timing after the report")
    parser.add_argument("--max-seconds", metavar="N", type=float,
                        default=None,
                        help="fail (exit 1) when the lint run takes "
                             "longer than N seconds")


def run_lint(args: argparse.Namespace) -> int:
    """Execute the lint command; returns the process exit code."""
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id:<22} {rule.summary}")
        return 0

    root = Path(args.root)
    paths = [Path(p) for p in (args.paths or [root / "src"])]

    select = (args.select.split(",") if args.select else None)
    timings: Dict[str, float] = {}
    started = time.perf_counter()
    try:
        findings = lint_paths(paths, root=root, select=select,
                              timings=timings)
    except KeyError as err:
        print(f"lint: {err.args[0]}")
        return 2
    elapsed = time.perf_counter() - started

    if args.why:
        return _run_why(args.why)

    if args.update_baseline:
        baseline = Baseline.from_findings(findings)
        baseline.save(args.baseline)
        print(f"baseline updated: {len(baseline)} finding(s) recorded "
              f"in {args.baseline}")
        return 0

    baseline = (Baseline() if args.no_baseline
                else Baseline.load(args.baseline))
    comparison = baseline.compare(findings)

    if args.format == "json":
        report = _json_report(findings, comparison)
        if args.stats:
            report["timings_seconds"] = _rounded(timings, elapsed)
        text = json.dumps(report, indent=2)
    else:
        text = _text_report(findings, comparison, args.baseline)
        if args.stats:
            text += "\n" + _stats_table(timings, elapsed)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")

    if args.max_seconds is not None and elapsed > args.max_seconds:
        print(f"lint: run took {elapsed:.2f}s, over the "
              f"--max-seconds {args.max_seconds:g} budget")
        return 1
    return 0 if comparison.ok else 1


def _run_why(finding_id: str) -> int:
    from repro.lint.taint import CHAINS, chain_for

    chain = chain_for(finding_id)
    if chain is None:
        hits = [fid for fid in CHAINS if fid.startswith(finding_id)]
        if len(hits) > 1:
            print(f"lint: --why {finding_id} is ambiguous: "
                  f"{sorted(hits)}")
        else:
            print(f"lint: no dataflow finding with id {finding_id!r} "
                  f"in this run (ids appear in determinism-taint / "
                  f"pickle-reachability messages)")
        return 2
    print(chain.render())
    return 0


def _rounded(timings: Dict[str, float], elapsed: float) -> dict:
    table = {rule: round(seconds, 4)
             for rule, seconds in sorted(timings.items())}
    table["total"] = round(elapsed, 4)
    return table


def _stats_table(timings: Dict[str, float], elapsed: float) -> str:
    rows = sorted(timings.items(), key=lambda kv: -kv[1])
    lines = ["rule timings:"]
    for rule, seconds in rows:
        lines.append(f"  {rule:<24} {seconds * 1000:8.1f} ms")
    lines.append(f"  {'total':<24} {elapsed * 1000:8.1f} ms")
    return "\n".join(lines)


def _json_report(findings, comparison) -> dict:
    return {
        "findings": [f.to_dict() for f in findings],
        "new": [f.to_dict() for f in comparison.new],
        "baselined": [f.to_dict() for f in comparison.known],
        "expired_baseline_entries": comparison.expired,
        "counts": {
            "total": len(findings),
            "new": len(comparison.new),
            "baselined": len(comparison.known),
            "expired": len(comparison.expired),
        },
        "ok": comparison.ok,
    }


def _text_report(findings, comparison, baseline_path: str) -> str:
    lines: List[str] = []
    for finding in comparison.new:
        lines.append(finding.render())
    if comparison.known:
        lines.append(f"({len(comparison.known)} baselined finding(s) "
                     f"not shown; see {baseline_path})")
    for key in comparison.expired:
        lines.append(f"stale baseline entry (finding gone — run "
                     f"--update-baseline): {key}")
    if comparison.ok:
        lines.append(f"lint: clean ({len(findings)} finding(s), "
                     f"all baselined)" if findings else "lint: clean")
    else:
        lines.append(f"lint: {len(comparison.new)} new finding(s)")
    return "\n".join(lines)
