"""Command-line front end: solve one equation, run the comparison grid,
or estimate the convergence order of a run."""

from __future__ import annotations

import argparse
import math
import sys
from typing import Optional, Sequence

from . import analysis, bench
from .core import Status, StopCriteria, as_count
from .methods import METHOD_TAGS, FsVariant, MethodId, iterate

FUNCTION_NAMES = tuple(entry.problem.name for entry in bench.SUITE)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2
EXIT_BREAKDOWN = 3
# every other status (diverged, iteration cap) exits EXIT_NOT_CONVERGED
STATUS_EXIT = {Status.CONVERGED: EXIT_OK, Status.DERIVATIVE_BREAKDOWN: EXIT_BREAKDOWN}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is exit 1
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    """The argparse type of --m, --points and --max-iter: an integer >= 1."""
    try:
        return as_count(int(text), "count")
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, not {text!r}") from None


def _tol(text: str) -> float:
    """The argparse type of --tol: a number that ``StopCriteria`` accepts as a tolerance."""
    try:
        return StopCriteria(step_tol=float(text)).step_tol
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, not {text!r}") from None


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--m", type=_count, default=1, help="resolution multiplier M; node count is 2M")
    sub.add_argument("--points", type=_count, default=None, help="node count override (P >= 1)")
    sub.add_argument("--x0", type=float, default=None, help="starting point override")
    sub.add_argument("--tol", type=_tol, default=1e-15, help="step and residual tolerance")
    sub.add_argument("--max-iter", type=_count, default=100)
    sub.add_argument(
        "--fs-variant",
        choices=[v.value for v in FsVariant],
        default=FsVariant.AS_PRINTED.value,
        help="inner-point convention for the fs method",
    )
    sub.add_argument("--out", metavar="PATH", default=None, help="write output to PATH instead of stdout")


def build_parser() -> _Parser:
    parser = _Parser(prog="haarnewton", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    solve = sub.add_parser("solve", help="run one method on one suite equation")
    solve.add_argument("--function", required=True, choices=FUNCTION_NAMES)
    solve.add_argument("--method", required=True, choices=METHOD_TAGS)
    solve.add_argument("--trace", action="store_true", help="print the per-iterate trace")
    _add_common(solve)
    solve.set_defaults(handler=cmd_solve, parser=solve)

    compare = sub.add_parser("compare", help="run the benchmark comparison grid")
    compare.add_argument("--functions", default=",".join(FUNCTION_NAMES),
                         help="comma-separated suite function names")
    compare.add_argument("--methods", default="wf,fs,oz,klw,new",
                         help=f"comma-separated method tags, from {', '.join(METHOD_TAGS)}; "
                         "--fs-variant sets the fs variant and --points (or --m) the node count")
    compare.add_argument("--format", choices=bench.FORMATS, default="text")
    _add_common(compare)
    compare.set_defaults(handler=cmd_compare, parser=compare)

    coc = sub.add_parser("coc", help="convergence-order diagnostics for one run")
    coc.add_argument("--function", required=True, choices=FUNCTION_NAMES)
    coc.add_argument("--method", required=True, choices=METHOD_TAGS)
    coc.add_argument("--c2", type=float, default=None, help="analytic f''(root)/(2 f'(root)); new only")
    coc.add_argument("--c3", type=float, default=None, help="analytic f'''(root)/(6 f'(root)); new only")
    _add_common(coc)
    coc.set_defaults(handler=cmd_coc, parser=coc)

    return parser


def _method(tag: str, args: argparse.Namespace) -> MethodId:
    return MethodId(tag, args.points or 2 * args.m, args.fs_variant)


def _criteria(args: argparse.Namespace) -> StopCriteria:
    return StopCriteria(step_tol=args.tol, residual_tol=args.tol, max_iter=args.max_iter)


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _run(args: argparse.Namespace):
    entry = bench.suite_entry(args.function)
    x0 = entry.x0 if args.x0 is None else args.x0
    method = _method(args.method, args)
    return entry, method, iterate(method, entry.problem, x0, _criteria(args))


def cmd_solve(args: argparse.Namespace) -> int:
    entry, method, outcome = _run(args)
    lines = [
        f"function:   {entry.problem.name}",
        f"method:     {method.label}",
        f"status:     {outcome.status.value}",
        f"result:     {analysis.classify(outcome)}",
        f"iterations: {outcome.iterations}",
        f"nfe:        {outcome.nfe}",
    ]
    if args.trace:
        lines.append("trace:")
        for i, (x, r) in enumerate(zip(outcome.trace.iterates, outcome.trace.residuals)):
            lines.append(
                f"  {i:3d}  x={analysis.format_significant(x)}"
                f"  f(x)={analysis.format_significant(r)}"
            )
    _emit("\n".join(lines) + "\n", args.out)
    return STATUS_EXIT.get(outcome.status, EXIT_NOT_CONVERGED)


def cmd_compare(args: argparse.Namespace) -> int:
    names = [n.strip() for n in args.functions.split(",") if n.strip()]
    labels = [m.strip() for m in args.methods.split(",") if m.strip()]
    for name in names:
        if name not in FUNCTION_NAMES:
            raise ValueError(f"unknown function {name!r}")
    suite = [bench.suite_entry(name) for name in names]
    methods = [_method(label, args) for label in labels]
    table = bench.run_comparison(suite, methods, _criteria(args))
    _emit(bench.format_table(table, args.format), args.out)
    return EXIT_OK


def cmd_coc(args: argparse.Namespace) -> int:
    if (args.c2 is not None or args.c3 is not None) and args.method != "new":
        raise ValueError("--c2/--c3: the theoretical constant is defined for method 'new' only")
    if (args.c2 is None) != (args.c3 is None):
        raise ValueError("--c2/--c3: give both constants or neither")
    entry, method, outcome = _run(args)
    report = analysis.convergence_report(
        outcome.trace,
        outcome.root,
        c2=args.c2,
        c3=args.c3,
        n_points=method.haar_points,
    )
    lines = [
        f"function:             {entry.problem.name}",
        f"method:               {method.label}",
        f"status:               {outcome.status.value}",
        f"order (coc):          {report.coc:.6g}",
        f"usable triples:       {report.usable_triples}",
        f"empirical constant:   {report.error_constant_empirical:.6g}",
    ]
    if args.c2 is not None:
        lines.append(f"theoretical constant: {report.error_constant_theoretical:.6g}")
    _emit("\n".join(lines) + "\n", args.out)
    converged = outcome.status is Status.CONVERGED
    return EXIT_OK if converged and math.isfinite(report.coc) else EXIT_NOT_CONVERGED


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    # a handler's or the library's check of the options, or an --out path that cannot be opened
    except (ValueError, OSError) as exc:
        args.parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
