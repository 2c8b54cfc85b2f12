import ast
import json
import os
import sys

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from haarnewton import analysis, bench, cli
from haarnewton.bench import FORMATS
from haarnewton.cli import main
from haarnewton.core import Status
from haarnewton.methods import METHOD_TAGS

import goldens
from goldens import GOLDEN, README_COMMANDS
from helpers import ROOT, run_python
from suite_formulas import FORMULAS


def run_cli(capsys, *argv):
    """``main(argv)`` in process: its exit code and stdout. It writes nothing to stderr."""
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, captured.out


def usage_error(capsys, *argv):
    """``main(argv)`` on a command line it refuses: the stderr of its exit 1. It writes nothing to stdout."""
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    assert (info.value.code, captured.out) == (1, "")
    return captured.err


def test_solve_divergent_exit_code(capsys):
    code, out = run_cli(capsys, "solve", "--function", "f3", "--method", "wf")
    assert code == 2
    assert "Diverse" in out


def test_solve_breakdown_exit_code(capsys):
    # f4 derivative underflows to zero for large x, so the first step is undefined
    code, out = run_cli(
        capsys, "solve", "--function", "f4", "--method", "newton", "--x0", "30",
    )
    assert code == 3
    assert "Breakdown" in out


def test_every_status_has_its_own_exit_code(capsys):
    # solve indexes the table, so a status without an entry is a KeyError, not a default
    assert set(cli.STATUS_EXIT) == set(Status)
    assert {status.value: code for status, code in cli.STATUS_EXIT.items()} == {
        "converged": 0, "diverged": 2, "max-iterations": 2, "derivative-breakdown": 3}
    code, out = run_cli(capsys, "solve", "--function", "f2", "--method", "new", "--max-iter", "1")
    assert code == 2
    assert "status:     max-iterations" in out


def test_solve_unknown_method_is_usage_error(capsys):
    usage_error(capsys, "solve", "--function", "f1", "--method", "brent")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--tol", "-1"],
        ["solve", "--tol", "nan"],
        ["solve", "--tol", "inf"],
        ["solve", "--tol", "0"],
        ["solve", "--x0", "nan"],
        ["solve", "--x0", "inf"],
        ["solve", "--m", "0"],
        ["solve", "--points", "0"],
        ["solve", "--max-iter", "0"],
        ["coc", "--x0", "nan"],
        ["compare", "--methods", "wf,brent"],
        ["compare", "--functions", ","],
        ["solve", "--out", os.path.join(os.devnull, "x.txt")],
    ],
    ids="_".join,
)
def test_bad_tolerance_is_usage_error(capsys, argv):
    if argv[0] != "compare":
        argv = argv[:1] + ["--function", "f1", "--method", "new"] + argv[1:]
    err = usage_error(capsys, *argv)
    # reported by the subcommand's parser, as argparse reports its own errors
    assert err.startswith(f"usage: haarnewton {argv[0]} [-h] ")
    assert f"\nhaarnewton {argv[0]}: error: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("option", ["--m", "--points", "--max-iter", "--tol"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_count_option_below_one_names_the_option(capsys, option, value):
    # --tol too: its type reports StopCriteria's check under the option's name
    err = usage_error(capsys, "solve", "--function", "f1", "--method", "new", option, value)
    assert f"haarnewton solve: error: argument {option}: " in err


@pytest.mark.parametrize("command", ["solve", "coc"])
@pytest.mark.parametrize("x0, text", [(["--x0", "inf"], "inf"), (["--x0", "nan"], "nan"),
                                      (["--x0=-inf"], "-inf"), (["--x0", "1e999"], "1e999"),
                                      (["--x0", "abc"], "abc")], ids=["inf", "nan", "-inf", "1e999", "abc"])
def test_x0_that_is_not_a_finite_number_names_the_option(capsys, command, x0, text):
    err = usage_error(capsys, command, "--function", "f1", "--method", "new", *x0)
    assert err.endswith(f"haarnewton {command}: error: argument --x0: must be a finite number, not {text!r}\n")


def test_compare_refuses_x0(capsys):
    # each grid cell starts at its suite x0, so an --x0 would be silently ignored
    err = usage_error(capsys, "compare", "--functions", "f2", "--methods", "newton", "--format", "csv", "--x0", "5")
    assert "haarnewton: error: unrecognized arguments: --x0 5" in err


@pytest.mark.parametrize("option, value, message", [
    ("--functions", ",", "give at least one function name"),
    ("--methods", ",", "give at least one method tag"),
    ("--functions", "f1,f9", "unknown function 'f9'"),
], ids=["functions", "methods", "unknown-function"])
def test_compare_list_errors_name_their_option(capsys, option, value, message):
    assert f"haarnewton compare: error: {option}: {message}\n" in usage_error(capsys, "compare", option, value)


def test_m_and_points_are_equivalent(capsys):
    _, via_m = run_cli(capsys, "compare", "--m", "2", "--format", "csv")
    _, via_points = run_cli(capsys, "compare", "--points", "4", "--format", "csv")
    assert via_m == via_points


@pytest.mark.parametrize("variant", ["as-printed", "standard-midpoint"])
def test_compare_grid_matches_golden_bytes(variant):
    for fmt in ("csv", "text", "json"):
        goldens.grid(variant, fmt)


@pytest.mark.parametrize("name", README_COMMANDS)
def test_readme_command_matches_golden_output(name):
    goldens.readme(name)


def test_child_process_runs_under_this_warnings_policy():
    # a plain pytest starts plain children, python -X dev -W error -m pytest strict ones
    done = run_python("-c", "import sys, warnings; print(sys.flags.dev_mode); warnings.warn('x', DeprecationWarning)")
    assert (done.returncode != 0) == ("error" in sys.warnoptions), done.stderr.decode()
    assert done.stdout == f"{sys.flags.dev_mode}\n".encode()


# python -m haarnewton ends through cli.run, which skips the interpreter's
# teardown; what a process leaves behind must be what main and a normal exit give.
@pytest.mark.parametrize("args, code", [
    ("solve --function f3 --method newton --x0 3", 2),
    ("coc --function f3 --method wf", 2),
    ("solve --function f4 --method newton --x0 30", 3),  # a derivative breakdown
], ids=["solve-diverged", "coc-diverged", "solve-breakdown"])
def test_process_exit_code_and_stdout_match_main(capsys, args, code):
    returned, out = run_cli(capsys, *args.split())
    done = run_python("-m", "haarnewton", *args.split())
    assert (returned, done.returncode, done.stdout, done.stderr) == (code, code, out.encode(), b"")


def test_process_writes_the_whole_out_file(tmp_path):
    target = tmp_path / "grid.csv"
    done = run_python("-m", "haarnewton", *README_COMMANDS["compare_csv"][0].split(), "--out", str(target))
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
    assert target.read_bytes() == (GOLDEN / "readme_compare_csv.txt").read_bytes()


# run ends a plain process with os._exit, after the atexit handlers, so the
# finally below runs only where run returns instead: under a sys.settrace tracer
RUN_AFTER_ATEXIT_REGISTRATION = """
import atexit, runpy, sys
atexit.register(print, "atexit handler ran")
{}
try:
    runpy.run_module("haarnewton", run_name="__main__")
finally:
    sys.stderr.write("run returned")
"""


def test_process_runs_atexit_handlers_registered_before_it():
    args, code = README_COMMANDS["solve_f2_new"]
    stdout = (GOLDEN / "readme_solve_f2_new.txt").read_bytes() + b"atexit handler ran\n"
    for tracer, stderr in (("", b""), ("sys.settrace(lambda *a: None)", b"run returned")):
        done = run_python("-c", RUN_AFTER_ATEXIT_REGISTRATION.format(tracer), *args.split())
        assert (done.returncode, done.stderr, done.stdout) == (code, stderr, stdout), tracer


def test_process_under_cprofile_prints_its_stats():
    args, code = README_COMMANDS["solve_f2_new"]
    done = run_python("-m", "cProfile", "-m", "haarnewton", *args.split())
    golden = (GOLDEN / "readme_solve_f2_new.txt").read_bytes()
    assert (done.returncode, done.stderr) == (code, b"")
    assert done.stdout.startswith(golden)
    assert b" function calls " in done.stdout[len(golden):]


def test_process_under_pdb_reports_its_exit():
    # a continue with no breakpoints drops pdb's tracer; pdb still sees SystemExit.
    # From 3.13 pdb parses its command line with argparse, which needs a -- before
    # the program's options; 3.10-3.12 would hand the -- on to the program.
    args, code = README_COMMANDS["solve_f2_new"]
    separator = ["--"] if sys.version_info >= (3, 13) else []
    done = run_python("-m", "pdb", "-m", "haarnewton", *separator, *args.split(), stdin=b"continue\nquit\n")
    assert (done.returncode, done.stderr) == (code, b"")
    assert f"The program exited via sys.exit(). Exit status: {code}".encode() in done.stdout


def _into_closed_pipe(unbuffered, *argv):
    read, write = os.pipe()
    os.close(read)
    try:
        return run_python(*argv, stdout=write, env={"PYTHONUNBUFFERED": "1" if unbuffered else None})
    finally:
        os.close(write)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_failed_write_to_stdout_ends_as_a_plain_script_does(unbuffered):
    # a write to stdout that fails is not a usage error: buffered, the flush
    # at exit fails and the interpreter exits 120; unbuffered, the write raises
    done = _into_closed_pipe(unbuffered, "-m", "haarnewton", *README_COMMANDS["solve_f2_new"][0].split())
    plain = _into_closed_pipe(unbuffered, "-c", "import sys; sys.stdout.write('x' * 80)")
    assert not any(line.startswith(b"usage:") for line in done.stderr.splitlines()), done.stderr
    assert done.returncode == plain.returncode == (1 if unbuffered else 120)
    if unbuffered:  # a traceback through other frames, ending the same
        assert done.stderr.splitlines()[-1] == plain.stderr.splitlines()[-1] == b"BrokenPipeError: [Errno 32] Broken pipe"
    else:
        assert done.stderr == plain.stderr


# perfbench's traced CLI pass replaces these six module attributes with
# setattr, so cli and bench must look each one up when it is called, not bind
# it at import (a suite index or a ``from .bench import run_comparison``);
# each README command must still reach the seams it reached when measured.
SEAMS = [(bench, "builtin_suite"), (bench, "run_comparison"), (bench, "format_table"),
         (bench, "iterate"), (cli, "iterate"), (analysis, "convergence_report")]
ONE_RUN_SEAMS = {"bench.builtin_suite", "cli.iterate"}
GRID_SEAMS = {"bench.builtin_suite", "bench.run_comparison", "bench.format_table", "bench.iterate"}
SEAMS_REACHED = {
    "solve_f2_new": ONE_RUN_SEAMS,
    "solve_f6_klw_trace": ONE_RUN_SEAMS,
    "compare_csv": GRID_SEAMS,
    "compare_f6_new_json": GRID_SEAMS,
    "coc_f6_new": ONE_RUN_SEAMS | {"analysis.convergence_report"},
}


def _recording(name, original, reached):
    def seam(*args, **kwargs):
        reached.add(name)
        return original(*args, **kwargs)
    return seam


@pytest.mark.parametrize("name", README_COMMANDS)
def test_readme_command_reaches_the_seams_perfbench_patches(monkeypatch, capsys, name):
    reached = set()
    for module, attr in SEAMS:
        seam = f"{module.__name__.rpartition('.')[2]}.{attr}"
        monkeypatch.setattr(module, attr, _recording(seam, getattr(module, attr), reached))
    args, code = README_COMMANDS[name]
    returned, out = run_cli(capsys, *args.split())
    assert (returned, out.encode()) == (code, (GOLDEN / f"readme_{name}.txt").read_bytes())
    assert reached == SEAMS_REACHED[name]


def test_perfbench_times_the_readme_commands():
    # parsed, not imported, so that no bytecode is written under perfbench/
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    [commands] = [node.value for node in tree.body if isinstance(node, ast.Assign)
                  and [getattr(target, "id", None) for target in node.targets] == ["CLI_COMMANDS"]]
    assert ast.literal_eval(commands) == {name: args.split() for name, (args, _) in README_COMMANDS.items()}


@pytest.mark.parametrize("command", ["solve", "coc"])
@pytest.mark.parametrize(
    "options, label",
    [(["--method", "fs", "--fs-variant", "standard-midpoint"], "fs(std)"),
     (["--method", "new", "--points", "8"], "new[P=8]"),
     (["--method", "new", "--m", "4"], "new[P=8]"),
     (["--method", "fs"], "fs")],
    ids=["fs-standard-midpoint", "new-points-8", "new-m-4", "fs-as-printed"],
)
def test_method_line_prints_the_label_of_the_method_run(capsys, command, options, label):
    code, out = run_cli(capsys, command, "--function", "f2", *options)
    assert code == 0
    assert out.splitlines()[1].split() == ["method:", label]


def test_coc_newton_is_quadratic(capsys):
    code, out = run_cli(capsys, "coc", "--function", "f2", "--method", "newton")
    assert code == 0
    rho = float([l for l in out.splitlines() if "order" in l][0].split()[-1])
    assert 1.7 <= rho <= 2.3


def test_coc_run_stopped_by_the_cap_exits_2_despite_a_finite_order(capsys):
    # oscillates near f1's critical point x ~ -0.6687; its coc is finite (1.70951)
    code, out = run_cli(capsys, "coc", "--function", "f1", "--method", "new",
                        "--points", "128", "--x0", "-0.67")
    assert code == 2
    assert "status:               max-iterations" in out


@pytest.mark.parametrize(
    "function, method, x0",
    [
        ("f3", "new", "0"),  # an exact root at x0: no step taken
        ("f4", "newton", "26.90673858593793"),  # diverges to -inf
    ],
)
def test_coc_without_usable_errors_prints_nan_and_exits_2(capsys, function, method, x0):
    code, out = run_cli(capsys, "coc", "--function", function, "--method", method, "--x0", x0)
    assert code == 2
    assert "order (coc):          nan" in out
    assert "usable triples:       0" in out


@pytest.mark.parametrize(
    "method, order, constant",
    [(("new",), "3", "0.24375"), (("new", "--m", "2"), "3", "0.248438"), (("new", "--points", "4"), "3", "0.248438"),
     (("newton",), "2", "0.5"), (("wf",), "3", "0.3"), (("fs",), "2", "-1.5"),
     (("fs", "--fs-variant", "standard-midpoint"), "3", "0.225"), (("oz",), "3", "0.05"), (("klw",), "3", "0.3")],
    ids=["P=2", "m=2", "points=4", "newton", "wf", "fs", "fs(std)", "oz", "klw"],
)
def test_coc_reports_theoretical_constant_when_given(capsys, method, order, constant):
    # MethodId.error_law of the method that ran: new[P]'s c2^2 - c3/(4P^2), and an
    # order-2 method's constant is its e^2 coefficient; fs as printed stalls on f6
    code, out = run_cli(capsys, "coc", "--function", "f6", "--method", *method, "--c2", "0.5", "--c3", "0.1")
    assert code == (2 if method == ("fs",) else 0)
    assert f"theoretical order:    {order}\ntheoretical constant: {constant}\n" in out


def test_coc_reads_the_empirical_constant_at_the_order_of_the_law(capsys):
    # newton on f6 with f6's own c_k = f^(k)(root)/(k! f'(root)), from sympy: the run's
    # e_{n+1}/e_n^2 reads the theoretical c2 (0.926382), where e_{n+1}/e_n^3 reads 1.6e6
    x = sympy.Symbol("x")
    f6, df6 = (formula(sympy, x) for formula in FORMULAS["f6"])
    root = sympy.nsolve(f6, x, 0.77)
    c2, c3 = (float((sympy.diff(df6, x, k - 1) / (sympy.factorial(k) * df6)).subs(x, root)) for k in (2, 3))
    code, out = run_cli(capsys, "coc", "--function", "f6", "--method", "newton", "--c2", repr(c2), "--c3", repr(c3))
    lines = dict(line.split(":", 1) for line in out.splitlines())
    assert (code, lines["theoretical order"].strip()) == (0, "2")
    empirical, theoretical = (float(lines[f"{kind} constant"]) for kind in ("empirical", "theoretical"))
    assert abs(empirical / theoretical - 1) < 1e-3


ONE_CONSTANT = [("--c2", "0.5"), ("--c3", "0.1")]


@pytest.mark.parametrize("method, constant", [(m, c) for m in METHOD_TAGS for c in ONE_CONSTANT],
                         ids=[c[0] if m == "new" else f"{c[0]}-{m}" for m in METHOD_TAGS for c in ONE_CONSTANT])
def test_coc_one_constant_without_the_other_is_a_usage_error(capsys, method, constant):
    err = usage_error(capsys, "coc", "--function", "f6", "--method", method, *constant)
    assert "haarnewton coc: error: --c2/--c3: give both constants or neither" in err


@pytest.mark.parametrize(
    "constants, option, text",
    [(("--c2", "0.5", "--c3", "nan"), "--c3", "nan"), (("--c2", "inf", "--c3", "1"), "--c2", "inf"),
     (("--c2", "0.5", "--c3=-inf"), "--c3", "-inf"), (("--c2", "abc", "--c3", "1"), "--c2", "abc")],
    ids=["nan", "inf", "-inf", "abc"],
)
def test_coc_non_finite_constant_is_a_usage_error(capsys, constants, option, text):
    # the constants take --x0's converter: not a number and not finite read alike
    err = usage_error(capsys, "coc", "--function", "f6", "--method", "new", *constants)
    assert err.startswith("usage: haarnewton coc ")
    assert err.endswith(f"haarnewton coc: error: argument {option}: must be a finite number, not {text!r}\n")


@pytest.mark.parametrize("method, c2", [("new", "--c2=1e200"), ("new", "--c2=-1e200"), ("klw", "--c2=1e200")],
                         ids=["--c2=1e200", "--c2=-1e200", "klw"])
def test_coc_overflowing_theoretical_constant_is_a_usage_error(capsys, method, c2):
    # finite constants, but c2^2 overflows, so the constant is inf
    err = usage_error(capsys, "coc", "--function", "f6", "--method", method, c2, "--c3", "1")
    assert err.startswith("usage: haarnewton coc ")
    assert "haarnewton coc: error: --c2/--c3: the theoretical constant is not finite" in err


@pytest.mark.parametrize("method, constants, message", [
    ("new", ("--c2=1e200", "--c3", "1"), "the theoretical constant is not finite"),
    ("new", ("--c2", "0.5"), "give both constants or neither"),
    ("klw", ("--c2=1e200", "--c3", "1"), "the theoretical constant is not finite"),
], ids=["overflow", "one-constant", "klw-overflow"])
def test_coc_refuses_its_constants_before_it_runs(monkeypatch, capsys, method, constants, message):
    reached = set()
    monkeypatch.setattr(cli, "iterate", _recording("cli.iterate", cli.iterate, reached))
    err = usage_error(capsys, "coc", "--function", "f6", "--method", method, *constants)
    assert err.endswith(f"haarnewton coc: error: --c2/--c3: {message}\n")
    assert reached == set()  # a refused constant costs no run


# Run in a fresh interpreter started with -S: the modules only count when the
# import of haarnewton.cli, or a README command run through main, is what
# loads them, not the interpreter's own start-up or a site hook, which may
# preload typing and re. The script imports contextlib only after checking
# that haarnewton.cli leaves it out. The json command runs last, so that json
# is checked before it.
LEAN_IMPORT_CHECK = """
import sys
before = set(sys.modules)
from haarnewton.cli import main

def check(names, when):
    loaded = set(names) & (set(sys.modules) - before)
    assert not loaded, f"{sorted(loaded)} loaded {when}"

PARSING = {"argparse", "gettext", "locale"}
SCAFFOLDING = {"typing", "__future__", "re", "contextlib", "warnings"}
check(PARSING | SCAFFOLDING | {"dataclasses", "inspect", "json"}, "with haarnewton.cli")
import contextlib, io
*commands, last = sys.argv[1:]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv.split()) == 0, argv
    check(PARSING, f"by {argv}")
check({"json"}, "before the json command")
code = main(last.split())
check(PARSING, f"by {last}")
sys.exit(code)
"""


def test_cli_and_readme_commands_leave_out_argparse_gettext_locale_and_json():
    commands = [args for args, _ in README_COMMANDS.values()]
    commands.sort(key=lambda args: "json" in args)
    done = run_python("-S", "-c", LEAN_IMPORT_CHECK, *commands)
    assert done.returncode == 0, done.stderr.decode()
    rows = json.loads(done.stdout)
    assert [(r["function"], r["method"]) for r in rows] == [("f6", "new")]


# the suite's node loops are compiled on first use: neither the import nor a run without nodes compiles one
COLD_START_CHECK = """
import contextlib, io
from haarnewton import cli, quadrature
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["solve", "--function", "f6", "--method", "klw"]) == 0
assert quadrature._inlined.cache_info().currsize == 0
"""


def test_import_and_a_klw_solve_compile_no_node_loop():
    done = run_python("-c", COLD_START_CHECK)
    assert done.returncode == 0, done.stderr.decode()


def test_readme_commands_take_the_exact_parser():
    for args, _ in README_COMMANDS.values():
        assert cli._parse_exact(args.split()) is not None, args


@pytest.mark.parametrize("case", goldens.ARGPARSE_PATHS, ids=lambda case: "_".join(case["argv"]) or "no-arguments")
def test_argparse_path_matches_golden_output(case):
    goldens.argparse_path(case)


_FLAGS = sorted({flag for _, _, options in cli.COMMANDS.values() for flag in options})
_NOT_EXACT = ["-h", "--help", "--", "--func", "--meth", "--fs", "--max", "--tr", "-x0"]
_VALUES = [*cli.FUNCTION_NAMES, *METHOD_TAGS, "as-printed", "standard-midpoint", *FORMATS,
           "f2,f6", "new,wf", "0", "3", "2.5", "-1.5", "-1e3", "nan", "inf", "", "abc"]


@st.composite
def _argvs(draw):
    """A subcommand (or not), often its required options, then options, most
    of them the subcommand's own with a value that fits, the others from any
    subcommand, abbreviated, as ``--opt=value``, without a value, ``-h`` or
    ``--``."""
    command = draw(st.sampled_from([*cli.COMMANDS, "sol", "-h"]))
    options = cli.COMMANDS.get(command, (None, None, {}))[2]
    argv = [command]
    if draw(st.integers(0, 3)):
        argv += ["--function", draw(st.sampled_from(cli.FUNCTION_NAMES)),
                 "--method", draw(st.sampled_from(METHOD_TAGS))]
    for _ in range(draw(st.integers(0, 3))):
        own = options and draw(st.integers(0, 3))
        flag = draw(st.sampled_from(list(options) if own else _FLAGS + _NOT_EXACT))
        fitting = options.get(flag, {}).get("choices", ["3", "3", "0.5", "nan", "-1e3"]) if own else ()
        value = draw(st.sampled_from(list(fitting) if fitting and draw(st.integers(0, 3)) else _VALUES))
        form = "alone" if own and flag == "--trace" else draw(st.sampled_from(["pair"] * 6 + ["joined", "alone"]))
        argv += {"pair": [flag, value], "joined": [f"{flag}={value}"], "alone": [flag]}[form]
    return argv


def _same(a, b):
    return a == b or (a != a and b != b)  # NaN equals NaN here


@settings(deadline=None, derandomize=True, max_examples=600)
@given(_argvs())
def test_exact_parser_agrees_with_argparse(argv):
    args = cli._parse_exact(argv)
    if args is None:
        return  # argparse parses it alone
    try:
        expected = vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        raise AssertionError(f"argparse refuses {argv}, which the exact parser accepts") from None
    got = vars(args)
    assert got.keys() == expected.keys()
    assert all(_same(got[key], expected[key]) for key in expected), (got, expected)
