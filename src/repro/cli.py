"""Command-line interface: regenerate the paper's tables and figures.

Examples::

    repro-hlts table1                 # Table 1 (Ex), quick budgets
    repro-hlts table2 --bits 4        # Table 2 (Dct), 4-bit column only
    repro-hlts fig2                   # Figure 2 (Ex schedule)
    repro-hlts synth diffeq -k 3 -a 2 -b 1
    repro-hlts bench ex --flow ours --bits 8
    repro-hlts lint                   # design-rule check every benchmark
    repro-hlts lint diffeq my.hdl --strict --format json
    repro-hlts analyze                # equivalence certificates
    repro-hlts analyze ewf --flow default --format json
    repro-hlts table1 --workers 4 --cache-dir .repro-cache

Each subcommand is one row of :func:`_commands`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable, Iterator

from .bench import load, names
from .cost import CostModel
from .errors import ReproError
from .harness import (ExperimentConfig, FLOW_ORDER, render_schedule,
                      render_sharing, render_summary, render_table,
                      synthesize_flow)
from .synth import SynthesisParams, run_ours


class _CommandError(Exception):
    """A command's error: ``main`` prints ``error: <message>`` on stderr
    and exits with ``code``."""

    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _status(ok: bool) -> str:
    return "ok" if ok else "FAIL"


def _print_design(design) -> None:
    print(render_schedule(design))
    print()
    print(render_sharing(design))
    print()


def _make_cache(args):
    """The ResultCache behind ``--cache-dir`` (None when not asked for)."""
    from .harness.cache import ResultCache
    return (ResultCache(cache_dir=Path(args.cache_dir)) if args.cache_dir
            else None)


def _run_grid(args, grid: list[tuple[str, int]], budget=None):
    """Run ``args.benchmark``'s cells through the journaled grid runner."""
    from .runtime import Journal, run_journaled_grid
    from .runtime.worker import worker_count
    journal = Journal(args.journal) if args.journal else None
    return run_journaled_grid(
        args.benchmark, grid, ExperimentConfig.quick, journal=journal,
        resume=args.resume, progress=_progress, budget=budget,
        workers=worker_count(args.workers), cache=_make_cache(args))


def _report_skips(cells) -> int:
    """Print skipped-cell notes; exit 1 for an explicitly partial grid."""
    for skip in cells.skipped:
        print(f"note: lost {skip.flow}/{skip.bits}-bit: {skip.reason}",
              file=sys.stderr)
    return 0 if cells.ok() else 1


def _table_command(args) -> int:
    cells = _run_grid(args, [(flow, bits) for flow in FLOW_ORDER
                             for bits in args.bits])
    print(render_table(args.benchmark, cells, show_area=True))
    return _report_skips(cells)


def _bench_command(args) -> int:
    from .runtime import Budget
    budget = (Budget(wall_seconds=args.wall_seconds)
              if args.wall_seconds is not None else None)
    cells = _run_grid(args, [(args.flow, args.bits)], budget)
    print(render_summary(cells))
    for cell in cells:
        for reason in cell.degradation:
            print(f"note: {cell.flow}/{cell.bits}-bit degraded: {reason}",
                  file=sys.stderr)
    return _report_skips(cells)


def _figure_command(args) -> int:
    for benchmark in args.benchmarks:
        _print_design(synthesize_flow(benchmark, "ours", args.figure_bits))
    return 0


def _synth_command(args) -> int:
    result = run_ours(load(args.benchmark),
                      SynthesisParams(k=args.k, alpha=args.alpha,
                                      beta=args.beta),
                      CostModel(bits=args.bits))
    _print_design(result.design)
    print(f"mergers applied: {result.iterations}")
    for record in result.history:
        print(f"  #{record.iteration}: {record.kind} "
              f"{record.absorbed} -> {record.kept} "
              f"(dE={record.delta_e:+.0f}, dH={record.delta_h:+.4f})")
    return 0


def _explore_command(args) -> int:
    from .synth import explore, pareto_front, render_front
    points = explore(load(args.benchmark), CostModel(bits=args.bits),
                     cache=_make_cache(args), progress=_progress)
    print("all distinct designs:")
    print(render_front(points))
    print()
    print("Pareto front (E, H, testability):")
    print(render_front(pareto_front(points)))
    return 0


def _export_command(args) -> int:
    design = _design(load(args.benchmark), "ours", args.bits)
    if args.what == "json":
        from .io import design_to_dict
        print(json.dumps(design_to_dict(design), indent=2))
    elif args.what == "dot":
        from .etpn.dot import datapath_to_dot
        print(datapath_to_dot(design.datapath))
    else:
        from .gates import expand_to_gates, netlist_to_verilog
        from .rtl import generate_rtl
        print(netlist_to_verilog(expand_to_gates(generate_rtl(design,
                                                              args.bits))))
    return 0


def _report_command(args) -> int:
    from .harness.report import load_rows, render_report, write_report
    if args.output:
        print(write_report(args.rows, args.output))
    else:
        print(render_report(load_rows(args.rows)))
    return 0


def _chaos_command(args) -> int:
    """The ``chaos`` subcommand: fault-injection scenario matrix."""
    from .runtime.scenarios import SCENARIOS, run_scenarios
    if args.list_scenarios:
        for name, _func, description in SCENARIOS:
            print(f"{name:<24} {description}")
        return 0
    try:
        outcomes = run_scenarios(args.scenarios, benchmark=args.benchmark,
                                 bits=args.bits, workdir=args.workdir)
    except KeyError as exc:
        raise _CommandError(exc.args[0], 2) from exc
    width = max(len(outcome.name) for outcome in outcomes)
    for outcome in outcomes:
        print(f"{outcome.name:<{width}}  {_status(outcome.ok):<4}  "
              f"{outcome.detail}")
    survived = sum(outcome.ok for outcome in outcomes)
    print(f"chaos: {survived}/{len(outcomes)} scenarios survived")
    return 0 if survived == len(outcomes) else 1


#: One target's outcome: (ok, its JSON object, its text lines).
TargetResult = tuple[bool, dict[str, Any], list[str]]


def _resolve(target: str):
    """The DFG of a benchmark name or an HDL source file.

    Raises:
        _CommandError: ``target`` is neither (exit 2).
        ReproError: the HDL file does not compile.
    """
    if target in names():
        return load(target)
    if not os.path.isfile(target):
        raise _CommandError(f"{target!r} is neither a registered benchmark "
                            f"({', '.join(names())}) nor an HDL file", 2)
    from .hdl import compile_source
    with open(target) as handle:
        return compile_source(handle.read())


def _design(dfg, flow: str, bits: int):
    """The design point ``--flow`` names: the unmerged default allocation
    (``default``) or Algorithm 1's synthesised design (``ours``)."""
    if flow == "default":
        from .etpn.from_dfg import default_design
        return default_design(dfg)
    return run_ours(dfg, cost_model=CostModel(bits=bits)).design


def _designs(args, verb: str) -> Iterator[tuple[str, Any]]:
    """Yield ``(target, design)`` per target (default: every benchmark)
    at ``--flow`` and ``--bits``; a file that does not compile exits 2."""
    for target in args.targets or names():
        try:
            dfg = _resolve(target)
        except ReproError as exc:
            raise _CommandError(f"{target}: cannot compile: {exc}",
                                2) from exc
        _progress(f"{verb} {target}/{args.flow}/{args.bits}-bit ...")
        yield target, _design(dfg, args.flow, args.bits)


def _print_results(args, results: list[TargetResult],
                   **fields: Any) -> int:
    """Print per-target results as one JSON document (``--format json``;
    ``fields`` go between ``targets`` and ``ok``) or as text lines;
    exit 0 when every target is ok, 1 otherwise."""
    all_ok = all(ok for ok, _, _ in results)
    if args.fmt == "json":
        print(json.dumps({"targets": [doc for _, doc, _ in results],
                          **fields, "ok": all_ok}, indent=2))
    else:
        for _, _, lines in results:
            for line in lines:
                print(line)
    return 0 if all_ok else 1


def _diagnostic_lines(report) -> list[str]:
    return [f"   {diag.format()}" for diag in report.sorted()]


def _lint_command(args) -> int:
    """The ``lint`` subcommand: collect-all design-rule checking."""
    from .lint import (PIPELINE_FAILURE_CODE, Diagnostic, LintReport,
                       Severity, all_rules, lint_pipeline)

    if args.list_rules:
        print(f"{'code':<8} {'layer':<12} {'severity':<8} title")
        for rule_ in all_rules():
            print(f"{rule_.code:<8} {rule_.layer:<12} "
                  f"{rule_.severity.value:<8} {rule_.title}")
        return 0
    results: list[TargetResult] = []
    for target in args.targets or names():
        try:
            dfg = _resolve(target)
        except ReproError as exc:
            # A source file that does not even compile is itself a
            # finding, not a crash: report it and keep linting the rest.
            report = LintReport()
            report.add(Diagnostic(
                code=PIPELINE_FAILURE_CODE, severity=Severity.ERROR,
                layer="pipeline", location=target,
                message=f"{target}: cannot compile: {exc}",
                hint="fix the HDL syntax/semantic errors first"))
            ok = False
        else:
            report = lint_pipeline(dfg, bits=args.bits,
                                   gates=not args.no_gates,
                                   depth_limit=args.depth_limit)
            ok = report.ok(strict=args.strict)
        results.append((ok, {"name": target, "ok": ok, **report.to_dict()},
                        [f"== {target}: {report.summary()} "
                         f"[{_status(ok)}]", *_diagnostic_lines(report)]))
    return _print_results(args, results, strict=args.strict)


def _analyze_command(args) -> int:
    """The ``analyze`` subcommand: equivalence certificates."""
    from .analysis import analyze_design

    results: list[TargetResult] = []
    for target, design in _designs(args, "analyzing"):
        result = analyze_design(design)
        ok = result.report.ok(strict=args.strict) and result.verified
        lines = [f"== {result.summary()} [{_status(ok)}]"]
        lines += _diagnostic_lines(result.report)
        if result.certificate is not None and args.verbose:
            lines += [f"   {line}" for line
                      in result.certificate.summary().splitlines()]
        results.append((ok, {
            "name": target, "ok": ok, "verified": result.verified,
            "certificate": (result.certificate.to_dict()
                            if result.certificate else None),
            **result.report.to_dict()}, lines))
    return _print_results(args, results, flow=args.flow, strict=args.strict)


#: One ``add_argument`` call: (flags, keyword arguments).
Argument = tuple[tuple[str, ...], dict[str, Any]]
#: One subcommand: (name, help, handler, arguments, fixed defaults).
Command = tuple[str, str, Callable[[argparse.Namespace], int],
                list[Argument], dict[str, Any]]


def _arg(*flags: str, **kwargs: Any) -> Argument:
    return flags, kwargs


def _positive(what: str) -> Callable[[str], int]:
    """The ``type`` of a flag that takes a positive integer, so a zero
    or negative ``what`` exits 2 with a usage message."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = 0
        if value < 1:
            raise argparse.ArgumentTypeError(
                f"expected a positive {what}, got {text!r}")
        return value
    return parse


def _finite(what: str, above_zero: bool = False) -> Callable[[str], float]:
    """The ``type`` of a flag that takes a finite number ``>= 0`` (``> 0``
    when ``above_zero``), so a negative, NaN or infinite ``what`` exits 2
    with a usage message."""
    bound = "positive" if above_zero else "non-negative"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value)
                and (value > 0 if above_zero else value >= 0)):
            raise argparse.ArgumentTypeError(
                f"expected a finite {bound} {what}, got {text!r}")
        return value
    return parse


#: The ``type`` of every bit-width, count, weight, depth and time flag.
_width = _positive("bit width")
_count = _positive("count")
_weight = _finite("weight")
_depth = _finite("depth")
_seconds = _finite("number of seconds", above_zero=True)


def _commands() -> list[Command]:
    """Every top-level subcommand (built when the parser is, so benchmark
    choices are read from the registry at that moment)."""
    bits_list = _arg("--bits", type=_width, nargs="+", default=[4, 8, 16],
                     help="data-path bit widths (default: 4 8 16)")
    journal = [
        _arg("--journal", metavar="PATH", default=None,
             help="checkpoint completed cells to this JSONL journal "
                  "(atomic commits)"),
        _arg("--resume", action="store_true",
             help="replay cells already in --journal instead of "
                  "recomputing them")]
    cache_dir = _arg("--cache-dir", metavar="PATH", default=None,
                     help="content-hash result cache directory; repeated "
                          "cells and sweep points become lookups")
    parallel = [
        _arg("--workers", type=_count, default=None, metavar="N",
             help="worker processes for grid cells (default: one per CPU "
                  "this process may use; 1 = inline)"),
        cache_dir]
    benchmark = _arg("benchmark", choices=names())
    targets = _arg("targets", nargs="*", metavar="TARGET",
                   help="benchmark names or HDL source files "
                        "(default: every registered benchmark)")
    fmt = _arg("--format", choices=["text", "json"], default="text",
               dest="fmt", help="output format (default: text)")
    bits = _arg("--bits", type=_width, default=8,
                help="data-path bit width (default: 8)")
    strict = _arg("--strict", action="store_true",
                  help="treat warnings as failures for the exit status")

    tables = [(f"table{n}", f"reproduce table{n} ({bench})", _table_command,
               [bits_list, *journal, *parallel], {"benchmark": bench})
              for n, bench in ((1, "ex"), (2, "dct"), (3, "diffeq"))]
    figures = [(figure, f"reproduce {figure} schedule(s)", _figure_command,
                [_arg("--figure-bits", type=_width, default=8)],
                {"benchmarks": benches})
               for figure, benches in (("fig2", ["ex"]),
                                       ("fig3", ["dct", "diffeq"]))]
    return tables + figures + [
        ("synth", "synthesise one benchmark with ours", _synth_command,
         [benchmark, _arg("-k", type=_count, default=3),
          _arg("-a", "--alpha", type=_weight, default=2.0),
          _arg("-b", "--beta", type=_weight, default=1.0), bits], {}),
        ("explore", "Pareto sweep over (k, alpha, beta)", _explore_command,
         [benchmark, bits, cache_dir], {}),
        ("export", "export a synthesised design", _export_command,
         [benchmark, _arg("--what", choices=["verilog", "dot", "json"],
                          default="verilog"), bits], {}),
        ("report", "markdown report from recorded rows", _report_command,
         [_arg("--rows", default="benchmarks/out/rows.jsonl"),
          _arg("--output", default=None)], {}),
        ("bench", "one table cell (flow x width)", _bench_command,
         [benchmark, _arg("--flow", choices=FLOW_ORDER, default="ours"), bits,
          _arg("--wall-seconds", type=_seconds, default=None,
               help="wall-clock budget for the cell; on exhaustion the "
                    "cell completes with a degraded partial result"),
          *journal, *parallel], {}),
        ("chaos",
         "fault-injection scenario matrix (prove graceful degradation)",
         _chaos_command,
         [_arg("--scenario", action="append", dest="scenarios",
               metavar="NAME", default=None,
               help="run only this scenario (repeatable; default: the "
                    "whole matrix)"),
          _arg("--benchmark", choices=names(), default="ex",
               help="benchmark the scenarios run on (default: ex)"),
          _arg("--bits", type=_width, default=4,
               help="data-path width for the scenarios (default: 4)"),
          _arg("--workdir", default=None,
               help="directory for scenario artifacts such as journals "
                    "(default: a fresh temp dir)"),
          _arg("--list", action="store_true", dest="list_scenarios",
               help="print the scenario table and exit")], {}),
        ("lint",
         "design-rule check (DFG -> ETPN -> schedule -> binding -> gates)",
         _lint_command,
         [targets, strict, fmt, bits,
          _arg("--no-gates", action="store_true",
               help="skip the gate-level expansion rules (faster)"),
          _arg("--depth-limit", type=_depth, default=8.0,
               help="sequential C/O depth threshold for TST002"),
          _arg("--list-rules", action="store_true",
               help="print the rule table and exit")], {}),
        ("analyze",
         "equivalence certificates: every output computes the DFG's "
         "expression", _analyze_command,
         [targets,
          _arg("--flow", choices=["ours", "default"], default="ours",
               help="the synthesised design (ours) or the unmerged "
                    "default allocation (default: ours)"),
          bits, fmt, strict,
          _arg("-v", "--verbose", action="store_true",
               help="also print the per-output certificate expressions")],
         {}),
    ]


def _add_commands(subparsers, commands: list[Command]) -> None:
    for name, help_, run, arguments, defaults in commands:
        parser = subparsers.add_parser(name, help=help_)
        for flags, kwargs in arguments:
            parser.add_argument(*flags, **kwargs)
        parser.set_defaults(run=run, **defaults)


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``repro-hlts`` command."""
    parser = argparse.ArgumentParser(
        prog="repro-hlts",
        description="High-level test synthesis (Yang & Peng, DATE 1998): "
                    "regenerate the paper's tables and figures.")
    parser.add_argument("--traceback", action="store_true",
                        help="print the full traceback on pipeline errors "
                             "instead of a one-line message")
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_commands(subparsers, _commands())
    args = parser.parse_args(argv)
    if getattr(args, "resume", False) and not args.journal:
        subparsers.choices[args.command].error("--resume needs --journal")
    try:
        code = args.run(args)
        sys.stdout.flush()  # a reader gone early (``| head``) fails here
        return code
    except BrokenPipeError:
        # Python's SIGPIPE recipe: the flush at exit goes to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ReproError as exc:
        # Pipeline failures are expected, diagnosable events: one line
        # on stderr and a distinct exit code (3: lint reserves 1 and
        # argparse 2) unless the user asked for the full traceback.
        if args.traceback:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
