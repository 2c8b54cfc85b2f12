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
# solve's exit code for each status, the one table of them
STATUS_EXIT = {Status.CONVERGED: EXIT_OK, Status.DIVERGED: EXIT_NOT_CONVERGED,
               Status.MAX_ITER: EXIT_NOT_CONVERGED, Status.DERIVATIVE_BREAKDOWN: EXIT_BREAKDOWN}


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


def _finite(text: str) -> float:
    """The type of --x0, --c2 and --c3: a finite number, a start or a ``MethodId.error_law`` input."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise _type_error(f"must be a finite number, not {text!r}")
    return value


def _method(tag: str, args: SimpleNamespace) -> MethodId:
    return MethodId(tag, args.points or 2 * args.m, args.fs_variant)


def _criteria(args: SimpleNamespace) -> StopCriteria:
    return StopCriteria(step_tol=args.tol, residual_tol=args.tol, max_iter=args.max_iter)


def _run(args: SimpleNamespace, method: MethodId):
    entry = bench.suite_entry(args.function)
    x0 = entry.x0 if args.x0 is None else args.x0
    return entry, iterate(method, entry.problem, x0, _criteria(args))


# Each handler returns its exit code and the text that main writes to stdout
# or to the --out file.
def cmd_solve(args: SimpleNamespace) -> tuple[int, str]:
    method = _method(args.method, args)
    entry, outcome = _run(args, method)
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
    return STATUS_EXIT[outcome.status], "\n".join(lines) + "\n"


def cmd_compare(args: SimpleNamespace) -> tuple[int, str]:
    names = [n.strip() for n in args.functions.split(",") if n.strip()]
    labels = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not names:
        raise ValueError("--functions: give at least one function name")
    if not labels:
        raise ValueError("--methods: give at least one method tag")
    for name in names:
        if name not in FUNCTION_NAMES:
            raise ValueError(f"--functions: unknown function {name!r}")
    suite = [bench.suite_entry(name) for name in names]
    methods = [_method(label, args) for label in labels]
    table = bench.run_comparison(suite, methods, _criteria(args))
    return EXIT_OK, bench.format_table(table, args.format)


def cmd_coc(args: SimpleNamespace) -> tuple[int, str]:
    if (args.c2 is None) != (args.c3 is None):
        raise ValueError("--c2/--c3: give both constants or neither")
    method = _method(args.method, args)
    order, theoretical = 3, []  # the law's order and lines, read before the run: a bad constant costs none
    if args.c2 is not None:
        order, constant = method.error_law(args.c2, args.c3)
        if not math.isfinite(constant):
            raise ValueError("--c2/--c3: the theoretical constant is not finite")
        theoretical = [f"theoretical order:    {order}", f"theoretical constant: {constant:.6g}"]
    entry, outcome = _run(args, method)
    report = analysis.convergence_report(outcome.trace, outcome.root, order=order)
    lines = [
        f"function:             {entry.problem.name}",
        f"method:               {method.label}",
        f"status:               {outcome.status.value}",
        f"order (coc):          {report.coc:.6g}",
        f"usable triples:       {report.usable_triples}",
        f"empirical constant:   {report.error_constant_empirical:.6g}",
        *theoretical,
    ]
    converged = outcome.status is Status.CONVERGED
    code = EXIT_OK if converged and math.isfinite(report.coc) else EXIT_NOT_CONVERGED
    return code, "\n".join(lines) + "\n"


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
_X0 = dict(type=_finite, default=None, help="starting point override")
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
        "--c2": dict(type=_finite, default=None, help="analytic f''(root)/(2 f'(root))"),
        "--c3": dict(type=_finite, default=None, help="analytic f'''(root)/(6 f'(root))"),
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
        code, text = COMMANDS[args.command][0](args)
        if args.out is not None:
            with open(args.out, "w") as fh:
                fh.write(text)
    # a handler's or the library's check of the options, or an --out path that
    # cannot be opened or written; a failed write to stdout is not a usage error
    except (ValueError, OSError) as exc:
        _parsers()[1][args.command].error(str(exc))
    if args.out is None:
        sys.stdout.write(text)
    return code


def run() -> int:
    """The process entry of ``python -m haarnewton`` and of the ``haarnewton``
    script: ``main()``, then the atexit handlers and a flush of stdout and
    stderr, then ``os._exit``, which skips the interpreter's teardown. Under a
    profiler or tracer (``sys.monitoring`` tools included) or a bdb debugger,
    or when a flush raises, it returns the exit code for ``sys.exit``
    instead, and the interpreter ends as usual."""
    code = main()
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+, where cProfile registers a tool
    if (sys.getprofile() is not None or sys.gettrace() is not None
            or monitoring and any(monitoring.get_tool(tool) for tool in range(6))  # tool ids 0-5
            # pdb drops its tracer on a continue with no breakpoints, and
            # reports the exit only when SystemExit reaches it
            or "bdb" in sys.modules):
        return code
    import atexit
    import os

    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # a failed write, or a stream an atexit handler closed
        return code
    os._exit(code)

