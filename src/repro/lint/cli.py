"""The ``stat-repro lint`` subcommand implementation.

Kept out of :mod:`repro.cli` so the top-level CLI stays a thin
dispatcher.  Exit codes: 0 = clean, 1 = findings, 2 = usage error
(unknown option or rule id).  Findings are silenced only by inline
``# repro-lint: disable=`` comments.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import List

from repro.lint.engine import Finding, all_rules, lint_paths

__all__ = ["add_lint_arguments", "run_lint"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to an (sub)argument parser."""
    parser.add_argument("paths", nargs="*", default=None, metavar="PATH",
                        help="files/directories to lint (default: src)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="also write the report (in --format) here")
    parser.add_argument("--select", metavar="RULE[,RULE...]", default=None,
                        help="run only these rule ids")
    parser.add_argument("--root", metavar="DIR", default=".",
                        help="repo root findings are relative to")
    parser.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")


def run_lint(args: argparse.Namespace) -> int:
    """Execute the lint command; returns the process exit code."""
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id:<22} {rule.summary}")
        return 0

    root = Path(args.root)
    paths = [Path(p) for p in (args.paths or [root / "src"])]

    select = (args.select.split(",") if args.select else None)
    try:
        findings = lint_paths(paths, root=root, select=select)
    except KeyError as err:
        print(f"lint: {err.args[0]}")
        return 2

    if args.format == "json":
        text = json.dumps(_json_report(findings), indent=2)
    else:
        text = _text_report(findings)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 1 if findings else 0


def _json_report(findings: List[Finding]) -> dict:
    return {
        "findings": [f.to_dict() for f in findings],
        "counts": {"total": len(findings)},
        "ok": not findings,
    }


def _text_report(findings: List[Finding]) -> str:
    lines = [finding.render() for finding in findings]
    lines.append(f"lint: {len(findings)} finding(s)" if findings
                 else "lint: clean")
    return "\n".join(lines)
