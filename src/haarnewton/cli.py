"""Command-line front end: solve one equation, run the comparison grid,
or estimate the convergence order of a run."""

import math
import sys
from collections.abc import Sequence
from types import SimpleNamespace

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


def _type_error(message: str) -> Exception:
    # argparse reports an ArgumentTypeError's message under the option's name;
    # imported on this failure path only, so a well-formed command never loads it
    from argparse import ArgumentTypeError

    return ArgumentTypeError(message)


def _count(text: str) -> int:
    """The type of --m, --points and --max-iter: an integer >= 1."""
    try:
        return as_count(int(text), "count")
    except ValueError:
        raise _type_error(f"must be an integer >= 1, not {text!r}") from None


def _tol(text: str) -> float:
    """The type of --tol: a number that ``StopCriteria`` accepts as a tolerance."""
    try:
        return StopCriteria(step_tol=float(text)).step_tol
    except ValueError:
        raise _type_error(f"must be a finite number > 0, not {text!r}") from None


def _method(tag: str, args: SimpleNamespace) -> MethodId:
    return MethodId(tag, args.points or 2 * args.m, args.fs_variant)


def _criteria(args: SimpleNamespace) -> StopCriteria:
    return StopCriteria(step_tol=args.tol, residual_tol=args.tol, max_iter=args.max_iter)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _run(args: SimpleNamespace):
    entry = bench.suite_entry(args.function)
    x0 = entry.x0 if args.x0 is None else args.x0
    method = _method(args.method, args)
    return entry, method, iterate(method, entry.problem, x0, _criteria(args))


def cmd_solve(args: SimpleNamespace) -> int:
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


def cmd_compare(args: SimpleNamespace) -> int:
    names = [n.strip() for n in args.functions.split(",") if n.strip()]
    labels = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not names:
        raise ValueError("--functions: give at least one function name")
    if not labels:
        raise ValueError("--methods: give at least one method tag")
    for name in names:
        if name not in FUNCTION_NAMES:
            raise ValueError(f"unknown function {name!r}")
    suite = [bench.suite_entry(name) for name in names]
    methods = [_method(label, args) for label in labels]
    table = bench.run_comparison(suite, methods, _criteria(args))
    _emit(bench.format_table(table, args.format), args.out)
    return EXIT_OK


def cmd_coc(args: SimpleNamespace) -> int:
    if (args.c2 is not None or args.c3 is not None) and args.method != "new":
        raise ValueError("--c2/--c3: the theoretical constant is defined for method 'new' only")
    if (args.c2 is None) != (args.c3 is None):
        raise ValueError("--c2/--c3: give both constants or neither")
    if args.c2 is not None and not (math.isfinite(args.c2) and math.isfinite(args.c3)):
        raise ValueError("--c2/--c3: the constants must be finite numbers")
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
        if not math.isfinite(report.error_constant_theoretical):
            raise ValueError("--c2/--c3: the theoretical constant c2^2 - c3/(4P^2) is not finite")
        lines.append(f"theoretical constant: {report.error_constant_theoretical:.6g}")
    _emit("\n".join(lines) + "\n", args.out)
    converged = outcome.status is Status.CONVERGED
    return EXIT_OK if converged and math.isfinite(report.coc) else EXIT_NOT_CONVERGED


_NODES = {
    "--m": dict(type=_count, default=1, help="resolution multiplier M; node count is 2M"),
    "--points": dict(type=_count, default=None, help="node count override (P >= 1)"),
}
_COMMON = {
    "--tol": dict(type=_tol, default=1e-15, help="step and residual tolerance"),
    "--max-iter": dict(type=_count, default=100),
    "--fs-variant": dict(choices=[v.value for v in FsVariant], default=FsVariant.AS_PRINTED.value,
                         help="inner-point convention for the fs method"),
    "--out": dict(metavar="PATH", default=None, help="write output to PATH instead of stdout"),
}
_ONE_RUN = {
    "--function": dict(required=True, choices=FUNCTION_NAMES),
    "--method": dict(required=True, choices=METHOD_TAGS),
}
# solve's and coc's only: compare starts every equation at its suite x0
_X0 = dict(type=float, default=None, help="starting point override")
# Each subcommand's handler, help and options. An option maps to the keywords
# of its add_argument call, which the exact parser reads as well; --trace is
# the one flag, every other option takes a value.
COMMANDS = {
    "solve": (cmd_solve, "run one method on one suite equation", {
        **_ONE_RUN,
        "--trace": dict(action="store_true", default=False, help="print the per-iterate trace"),
        **_NODES, "--x0": _X0, **_COMMON,
    }),
    "compare": (cmd_compare, "run the benchmark comparison grid", {
        "--functions": dict(default=",".join(FUNCTION_NAMES), help="comma-separated suite function names"),
        "--methods": dict(default="wf,fs,oz,klw,new",
                          help=f"comma-separated method tags, from {', '.join(METHOD_TAGS)}; "
                          "--fs-variant sets the fs variant and --points (or --m) the node count"),
        "--format": dict(choices=bench.FORMATS, default="text"),
        **_NODES, **_COMMON,
    }),
    "coc": (cmd_coc, "convergence-order diagnostics for one run", {
        **_ONE_RUN,
        "--c2": dict(type=float, default=None, help="analytic f''(root)/(2 f'(root)); new only"),
        "--c3": dict(type=float, default=None, help="analytic f'''(root)/(6 f'(root)); new only"),
        **_NODES, "--x0": _X0, **_COMMON,
    }),
}


def _parse_exact(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse gives ``argv`` when ``argv`` is a subcommand
    followed only by its options, each spelled out in full, every one but
    ``--trace`` with its value as the next token (not starting with ``-``),
    and every required option present. For anything else None, and argparse
    parses ``argv``: help, abbreviations, ``--opt=value``, ``--``, negative
    values and every usage error are left to it."""
    if not argv or argv[0] not in COMMANDS:
        return None
    options = COMMANDS[argv[0]][2]
    values = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        spec = options.get(flag)
        if spec is None:
            return None
        if "action" in spec:
            values[flag] = True
            continue
        text = next(tokens, None)
        if text is None or text.startswith("-"):
            return None
        try:
            value = spec.get("type", str)(text)
        except Exception:  # argparse runs the converter again and reports or raises the same
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[flag] = value
    if any(spec.get("required") and flag not in values for flag, spec in options.items()):
        return None
    return SimpleNamespace(command=argv[0], **{
        flag[2:].replace("-", "_"): values.get(flag, spec.get("default")) for flag, spec in options.items()
    })


def _parsers():
    """The argparse parser of the command, and its subcommands' parsers by name."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse exits 2 on usage errors; the contract here is exit 1
        def error(self, message: str) -> None:  # type: ignore[override]
            self.print_usage(sys.stderr)
            self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    parser = _Parser(prog="haarnewton", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (_, help_text, options) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, spec in options.items():
            command.add_argument(flag, **spec)
    return parser, sub.choices


def build_parser() -> "argparse.ArgumentParser":
    """The argparse parser of the ``haarnewton`` command, built from ``COMMANDS``."""
    return _parsers()[0]


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_exact(argv)
    if args is None:
        args = build_parser().parse_args(argv, SimpleNamespace())
    try:
        return COMMANDS[args.command][0](args)
    # a handler's or the library's check of the options, or an --out path that cannot be opened
    except (ValueError, OSError) as exc:
        _parsers()[1][args.command].error(str(exc))

