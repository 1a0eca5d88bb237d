"""Command-line interface: ``python -m repro`` / ``stat-repro``.

Commands
--------
``demo``
    Run the paper's headline scenario end to end (ring test, injected
    hang, full STAT session) and print the phase timings, the 3D prefix
    tree, and the equivalence classes.
``run --spec FILE``
    Run one declarative :class:`~repro.api.spec.SessionSpec` JSON file
    through the session pipeline.
``sweep FILE [FILE ...]``
    Run many spec files concurrently (optionally expanded with
    ``--vary key=v1,v2,...``) and print the comparison table.
``figure <id>``
    Regenerate one paper figure's series and print the rows
    (``fig1`` .. ``fig10``, ``claims``, ``ablation-*``).
``bench {merge,build,stream}``
    One kernel benchmark at fig07 full scale (:mod:`repro.perf.bench`):
    the k-way merge or the forest build against its retained reference,
    or the streamed TBON reduction against the batch one; writes
    ``BENCH_<kind>.json``.  ``--scale million`` adds the 1,048,576-task
    hierarchical sweep point (``merge``, ``build``); ``--baseline``
    gates the report against a checked-in one of the same kind.
``chaos``
    Sweep hundreds of randomized seeded :class:`~repro.faults.plan
    .FaultPlan`s across topology x scheme x batch/stream reductions
    (:mod:`repro.faults.chaos`); fails on any hang, undeclared
    exception, nondeterministic replay, or empty-plan drift.
``lint``
    Run the repo's AST-based invariant checker (:mod:`repro.lint`):
    pickle-safety, determinism, hot-path hygiene, PERF counter and spec
    discipline, plus the whole-program passes (call-graph determinism
    taint, pickle reachability, kernel shape/dtype contracts).
    ``--format json`` for CI, ``--update-baseline`` to grandfather
    findings, ``--why ID`` to replay a dataflow finding's propagation
    chain.
``list``
    List available figure/claim ids.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import List, Optional

from repro.experiments import REGISTRY

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="stat-repro",
        description="Reproduction of 'Lessons Learned at 208K: Towards "
                    "Debugging Millions of Cores' (SC 2008)")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run the ring-hang debugging demo")
    demo.add_argument("--machine", choices=("atlas", "bgl"), default="bgl")
    demo.add_argument("--daemons", type=int, default=16,
                      help="compute nodes (atlas) or I/O nodes (bgl)")
    demo.add_argument("--mode", choices=("co", "vn"), default="co",
                      help="BG/L execution mode")
    demo.add_argument("--samples", type=int, default=10)
    demo.add_argument("--sbrs", action="store_true",
                      help="relocate binaries before sampling")
    demo.add_argument("--topology", default=None,
                      help='shape string, e.g. "flat", "8x8", "bgl-2deep"')
    demo.add_argument("--save", metavar="DIR", default=None,
                      help="persist the session to DIR")
    demo.add_argument("--seed", type=int, default=208_000)

    run_p = sub.add_parser(
        "run", help="run one declarative session spec (JSON file)")
    run_p.add_argument("--spec", required=True, metavar="FILE",
                       help="SessionSpec JSON file")
    run_p.add_argument("--save", metavar="DIR", default=None,
                       help="persist the session (spec included) to DIR")
    run_p.add_argument("--tree", action="store_true",
                       help="also print the 3D prefix tree")
    run_p.add_argument("--progress", action="store_true",
                       help="print each pipeline phase as it runs")

    sweep = sub.add_parser(
        "sweep", help="run many session specs concurrently")
    sweep.add_argument("specs", nargs="+", metavar="FILE",
                       help="SessionSpec JSON files")
    sweep.add_argument("--vary", action="append", default=[],
                       metavar="KEY=V1,V2,...",
                       help="expand each spec over these field values "
                            "(repeatable; cross-product)")
    sweep.add_argument("--workers", type=int, default=None,
                       help="process-pool size (default: one per spec, "
                            "capped at the CPU count)")
    sweep.add_argument("--serial", action="store_true",
                       help="run inline instead of a process pool")
    sweep.add_argument("--out", metavar="FILE", default=None,
                       help="also write the comparison table here")

    figure = sub.add_parser("figure", help="regenerate one paper figure")
    figure.add_argument("id", choices=sorted(REGISTRY))
    figure.add_argument("--quick", action="store_true",
                        help="smaller scale list (seconds, not minutes)")
    figure.add_argument("--chart", action="store_true",
                        help="append an ASCII log-log chart")

    bench = sub.add_parser(
        "bench", help="kernel benchmarks (BENCH_<kind>.json)")
    bench.add_argument("kind", choices=("merge", "build", "stream"),
                       help="k-way merge or forest build vs its retained "
                            "reference, or the streamed TBON reduction "
                            "vs the batch one (ttft vs ttfinal)")
    bench.add_argument("--quick", action="store_true",
                       help="CI smoke scale (64 daemons) instead of the "
                            "fig07 full scale (1,664 daemons)")
    bench.add_argument("--scale", choices=("fig07", "million",
                                           "ten-million"),
                       default="fig07",
                       help="'million' adds the 1,048,576-task "
                            "hierarchical sweep point (merge, build); "
                            "'ten-million' additionally benchmarks "
                            "construction of a 10,485,760-task forest "
                            "(build)")
    bench.add_argument("--daemons", type=int, default=None,
                       help="override the daemon count")
    bench.add_argument("--samples", type=int, default=None,
                       help="sampling instants per daemon "
                            "(default 10; 4 with --quick)")
    bench.add_argument("--repeats", type=int, default=None,
                       help="timing repetitions, best-of is reported "
                            "(default 5; 3 with --quick)")
    bench.add_argument("--seed", type=int, default=208_000)
    bench.add_argument("--out", metavar="FILE", default=None,
                       help="where to write the JSON report "
                            "(default BENCH_<kind>.json)")
    bench.add_argument("--baseline", metavar="FILE", default=None,
                       help="checked-in report of the same kind to "
                            "compare against (fails on divergence from "
                            "the reference or a >2x regression; stream "
                            "also on ttft >= 20%% of ttfinal or "
                            "simulated-time drift)")

    chaos = sub.add_parser(
        "chaos",
        help="sweep randomized seeded fault plans across topology x "
             "scheme x batch/stream reductions and assert the "
             "robustness invariants")
    chaos.add_argument("--plans", type=int, default=200,
                       help="randomized fault plans to run (each twice, "
                            "for the determinism check)")
    chaos.add_argument("--daemons", type=int, default=8,
                       help="daemons per reduction")
    chaos.add_argument("--samples", type=int, default=2,
                       help="samples per STATBench forest")
    chaos.add_argument("--quick", action="store_true",
                       help="50-plan smoke sweep")
    chaos.add_argument("--max-seconds", type=float, default=None,
                       help="wall budget; exceeding it fails the sweep "
                            "(the never-hangs backstop)")
    chaos.add_argument("--out", metavar="FILE", default=None,
                       help="write the chaos report JSON here")
    chaos.add_argument("--seed", type=int, default=208_000)

    repro_all = sub.add_parser(
        "reproduce-all",
        help="regenerate every figure into a Markdown report")
    repro_all.add_argument("--out", metavar="FILE", default=None,
                           help="write the report here (default: stdout)")
    repro_all.add_argument("--quick", action="store_true",
                           help="smoke scales (~30 s) instead of full")
    repro_all.add_argument("--only", nargs="*", default=None,
                           metavar="ID", help="subset of figure ids")

    inspect = sub.add_parser(
        "inspect", help="triage a saved session directory")
    inspect.add_argument("directory")
    inspect.add_argument("--rank", type=int, default=None,
                         help="show every path this rank was observed on")
    inspect.add_argument("--function", default=None,
                         help="show tasks observed inside this function")

    lint = sub.add_parser(
        "lint", help="run the AST-based invariant checker")
    from repro.lint.cli import add_lint_arguments
    add_lint_arguments(lint)

    sub.add_parser("list", help="list figure/claim ids")
    return parser


def _run_demo(args: argparse.Namespace) -> int:
    from repro.core.frontend import STATFrontEnd
    from repro.core.session import save_session
    from repro.core.visualize import to_ascii
    from repro.machine.atlas import AtlasMachine
    from repro.machine.bgl import BGLMachine
    from repro.statbench import ring_hang_states
    from repro.tbon.spec import parse_shape

    if args.machine == "atlas":
        machine = AtlasMachine.with_nodes(args.daemons)
    else:
        machine = BGLMachine.with_io_nodes(args.daemons, args.mode)
    print(f"# {machine.describe()}")
    topology = (parse_shape(args.topology, machine.num_daemons)
                if args.topology else None)
    fe = STATFrontEnd(machine, topology=topology, seed=args.seed)
    result = fe.attach_and_analyze(
        ring_hang_states(machine.total_tasks),
        num_samples=args.samples, use_sbrs=args.sbrs)
    print(result.summary())
    print()
    print("3D trace-space-time call graph prefix tree (6 levels):")
    print(to_ascii(result.tree_3d.truncated_at_depth(6)))
    print()
    reps = [c.representative for c in result.classes]
    print(f"attach a heavyweight debugger to ranks: {reps}")
    if args.save:
        from repro.api.spec import SessionSpec
        spec = SessionSpec(
            machine=args.machine, daemons=args.daemons, mode=args.mode,
            topology=args.topology, num_samples=args.samples,
            use_sbrs=args.sbrs, seed=args.seed)
        out = save_session(result, args.save, machine_name=machine.name,
                           spec=spec)
        print(f"session saved to {out}")
    return 0


def _load_spec(path: str):
    """Read one spec file; clean ``SystemExit`` on any user error."""
    from repro.api.spec import SessionSpec, SpecValidationError

    try:
        return SessionSpec.load(path)
    except OSError as err:
        raise SystemExit(f"cannot read spec {path!r}: {err}")
    except SpecValidationError as err:
        raise SystemExit(f"invalid spec {path!r}: {err}")


def _run_spec(args: argparse.Namespace) -> int:
    from repro.api.pipeline import ProgressObserver
    from repro.api.workloads import WorkloadError
    from repro.core.session import save_session
    from repro.core.visualize import to_ascii

    spec = _load_spec(args.spec)
    try:
        machine = spec.build_machine()
    except (ValueError, TypeError) as err:
        raise SystemExit(f"spec {args.spec!r} names an unbuildable "
                         f"machine: {err}")
    print(f"# {machine.describe()}")
    observers = (ProgressObserver(),) if args.progress else ()
    try:
        ctx = spec.run(observers=observers)
    except WorkloadError as err:
        raise SystemExit(f"invalid spec {args.spec!r}: {err}")
    if ctx.result is None:  # partial session (stop_after)
        print(f"ran phases up to {spec.stop_after!r}:")
        for name, seconds in ctx.timings.items():
            print(f"  {name:<12} {seconds:10.3f} s")
        if args.save:
            print(f"nothing to save: the session stopped after "
                  f"{spec.stop_after!r}, before the trees were built")
        return 0
    print(ctx.result.summary())
    if args.tree:
        print()
        print(to_ascii(ctx.result.tree_3d.truncated_at_depth(6)))
    if args.save:
        out = save_session(ctx.result, args.save,
                           machine_name=machine.name, spec=spec)
        print(f"session saved to {out}")
    return 0


def _parse_vary(items) -> dict:
    """``["daemons=4,8", "mode=co,vn"]`` -> ``{"daemons": [4, 8], ...}``."""
    import json as _json

    varied = {}
    for item in items:
        key, sep, values = item.partition("=")
        if not sep or not values:
            raise SystemExit(f"--vary needs KEY=V1,V2,... (got {item!r})")

        def parse(token: str):
            try:
                return _json.loads(token)
            except _json.JSONDecodeError:
                return token

        varied[key.strip()] = [parse(v) for v in values.split(",")]
    return varied


def _run_sweep(args: argparse.Namespace) -> int:
    import itertools

    from repro.api.spec import SpecValidationError
    from repro.api.suite import ScenarioSuite

    base_specs = [_load_spec(path) for path in args.specs]
    varied = _parse_vary(args.vary)
    if varied:
        expanded = []
        keys = sorted(varied)
        for spec in base_specs:
            for combo in itertools.product(*(varied[k] for k in keys)):
                changes = dict(zip(keys, combo))
                suffix = ",".join(f"{k}={v}" for k, v in changes.items())
                try:
                    expanded.append(spec.replace(
                        name=f"{spec.label}[{suffix}]", **changes))
                except (SpecValidationError, TypeError) as err:
                    raise SystemExit(f"bad --vary combination {suffix}: "
                                     f"{err}")
        specs = expanded
    else:
        specs = base_specs
    report = ScenarioSuite(specs).run(max_workers=args.workers,
                                      parallel=not args.serial)
    table = report.table()
    print(table)
    if args.out:
        from pathlib import Path
        Path(args.out).write_text(table + "\n")
        print(f"table written to {args.out}")
    return 1 if report.failures else 0


def _run_inspect(args: argparse.Namespace) -> int:
    from repro.core.queries import TreeQuery
    from repro.core.session import load_session
    from repro.core.visualize import to_ascii

    archive = load_session(args.directory)
    print(f"# session: machine={archive.meta.get('machine')!r}")
    for name, seconds in archive.timings.items():
        print(f"#   {name:<10} {seconds:10.3f} s")
    query = TreeQuery(archive.tree_3d)
    if args.rank is not None:
        print(f"rank {args.rank} was observed on:")
        for path in query.where_is(args.rank):
            print(f"  {path}")
        return 0
    if args.function is not None:
        tasks = query.tasks_in_function(args.function)
        from repro.core.ranklist import format_edge_label
        print(f"tasks inside {args.function!r}: "
              f"{format_edge_label(tasks.to_ranks())}")
        return 0
    print(to_ascii(archive.tree_3d.truncated_at_depth(6)))
    print()
    print("classes:")
    for cls in archive.classes:
        print(f"  {cls.label()}")
    outliers = query.outliers(max_class_size=1)
    if outliers:
        print("suspect singleton positions:")
        for path, ranks in outliers:
            print(f"  rank {ranks}: {path}")
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    from repro.perf.bench import check_baseline, run_bench

    try:
        report = run_bench(
            args.kind,
            daemons=args.daemons,
            samples=args.samples,
            repeats=args.repeats,
            quick=args.quick,
            scale=args.scale,
            seed=args.seed)
    except ValueError as err:  # a scale the kind lacks, a count < 1
        print(f"stat-repro bench: error: {err}", file=sys.stderr)
        return 2
    out = args.out or f"BENCH_{args.kind}.json"
    print(report.table())
    report.write(out)
    print(f"report written to {out}")
    failures = report.failures()
    for failure in failures:
        print(f"FAIL: {failure}")
    status = 1 if failures else 0
    if args.baseline:
        ok, messages = check_baseline(report, args.baseline)
        for message in messages:
            print(f"baseline: {message}")
        if not ok:
            status = 1
    return status


def _run_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import run_chaos

    plans = 50 if args.quick else args.plans
    try:
        report = run_chaos(plans=plans, daemons=args.daemons,
                           samples=args.samples, seed=args.seed,
                           max_seconds=args.max_seconds, progress=print)
    except ValueError as err:
        raise SystemExit(f"chaos: {err}")
    print(report.table())
    if args.out:
        report.write(args.out)
        print(f"chaos report written to {args.out}")
    return 0 if report.ok else 1


def _run_figure(args: argparse.Namespace) -> int:
    module = importlib.import_module(REGISTRY[args.id])
    result = module.run(quick=args.quick)
    print(result.render())
    if args.chart:
        from repro.experiments.charts import render_chart
        print()
        print(render_chart(result))
    return 0


def _run_reproduce_all(args: argparse.Namespace) -> int:
    from repro.experiments.report import reproduce_all
    report = reproduce_all(out_path=args.out, quick=args.quick,
                           only=args.only, progress=args.out is not None)
    if args.out is None:
        print(report)
    else:
        print(f"report written to {args.out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "demo":
            return _run_demo(args)
        if args.command == "run":
            return _run_spec(args)
        if args.command == "sweep":
            return _run_sweep(args)
        if args.command == "figure":
            return _run_figure(args)
        if args.command == "bench":
            return _run_bench(args)
        if args.command == "chaos":
            return _run_chaos(args)
        if args.command == "reproduce-all":
            return _run_reproduce_all(args)
        if args.command == "inspect":
            return _run_inspect(args)
        if args.command == "lint":
            from repro.lint.cli import run_lint
            return run_lint(args)
        if args.command == "list":
            for key in sorted(REGISTRY):
                print(key)
            return 0
    except BrokenPipeError:  # e.g. `stat-repro inspect ... | head`
        return 0
    return 2  # pragma: no cover - argparse enforces choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
