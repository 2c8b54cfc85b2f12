import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haarnewton import analysis, bench, cli
from haarnewton.bench import FORMATS
from haarnewton.cli import main
from haarnewton.methods import METHOD_TAGS

from helpers import ROOT, child_env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_cli_expect_exit(capsys, *argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    capsys.readouterr()
    return info.value.code


def test_solve_converged(capsys):
    code, out = run_cli(capsys, "solve", "--function", "f2", "--method", "new", "--m", "1")
    assert code == 0
    assert "0.739085133215161" in out
    assert "status:     converged" in out


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


def test_solve_unknown_function_is_usage_error(capsys):
    assert run_cli_expect_exit(capsys, "solve", "--function", "f9", "--method", "new") == 1


def test_solve_unknown_method_is_usage_error(capsys):
    assert run_cli_expect_exit(capsys, "solve", "--function", "f1", "--method", "brent") == 1


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
    with pytest.raises(SystemExit) as info:
        main(argv)
    err = capsys.readouterr().err
    assert info.value.code == 1
    # reported by the subcommand's parser, as argparse reports its own errors
    assert err.startswith(f"usage: haarnewton {argv[0]} [-h] ")
    assert f"\nhaarnewton {argv[0]}: error: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("option", ["--m", "--points", "--max-iter", "--tol"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_count_option_below_one_names_the_option(capsys, option, value):
    # --tol too: its type reports StopCriteria's check under the option's name
    with pytest.raises(SystemExit) as info:
        main(["solve", "--function", "f1", "--method", "new", option, value])
    assert info.value.code == 1
    assert f"haarnewton solve: error: argument {option}: " in capsys.readouterr().err


def test_solve_trace_lists_iterates(capsys):
    code, out = run_cli(
        capsys, "solve", "--function", "f7", "--method", "new", "--trace"
    )
    assert code == 0
    trace_lines = [l for l in out.splitlines() if l.strip().startswith(tuple("0123456789"))]
    assert len(trace_lines) >= 4  # x0 plus at least three iterates


def test_compare_csv_grid(capsys):
    code, out = run_cli(capsys, "compare", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "function,x0,method,status,iterations,nfe,root"
    assert len(lines) == 36


def test_compare_single_cell_json(capsys):
    code, out = run_cli(
        capsys, "compare", "--functions", "f6", "--methods", "new",
        "--m", "1", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 1
    assert rows[0]["iterations"] == 4
    assert rows[0]["nfe"] == 16
    assert abs(float(rows[0]["root"]) - 0.77288295914921) < 1e-12


def test_compare_fs_standard_variant(capsys):
    code, out = run_cli(
        capsys, "compare", "--methods", "fs", "--fs-variant", "standard-midpoint",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()[1:]
    assert len(lines) == 7
    f4_line = [l for l in lines if l.startswith("f4,")][0]
    assert ",converged," in f4_line


def test_compare_methods_takes_tags_not_printed_labels(capsys):
    assert run_cli_expect_exit(capsys, "compare", "--methods", "fs(std),new") == 1
    with pytest.raises(SystemExit):
        main(["compare", "-h"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "method tags, from newton, wf, fs, oz, klw, new;" in help_text
    assert "--fs-variant" in help_text and "--points" in help_text


def test_compare_refuses_x0(capsys):
    # each grid cell starts at its suite x0, so an --x0 would be silently ignored
    with pytest.raises(SystemExit) as info:
        main(["compare", "--functions", "f2", "--methods", "newton", "--format", "csv", "--x0", "5"])
    assert info.value.code == 1
    assert "haarnewton: error: unrecognized arguments: --x0 5" in capsys.readouterr().err


@pytest.mark.parametrize("option, message", [
    ("--functions", "give at least one function name"),
    ("--methods", "give at least one method tag"),
], ids=["functions", "methods"])
def test_compare_empty_list_names_its_option(capsys, option, message):
    with pytest.raises(SystemExit) as info:
        main(["compare", option, ","])
    captured = capsys.readouterr()
    assert info.value.code == 1
    assert captured.out == ""
    assert f"haarnewton compare: error: {option}: {message}\n" in captured.err


def test_compare_exit_zero_despite_divergent_cells(capsys):
    code, out = run_cli(capsys, "compare", "--functions", "f3", "--format", "csv")
    assert code == 0
    assert "Diverse" in out


def test_m_and_points_are_equivalent(capsys):
    _, via_m = run_cli(capsys, "compare", "--m", "2", "--format", "csv")
    _, via_points = run_cli(capsys, "compare", "--points", "4", "--format", "csv")
    assert via_m == via_points


def test_csv_output_round_trips_to_identical_bytes(capsys):
    from haarnewton.bench import format_table
    from helpers import parse_csv

    _, out = run_cli(capsys, "compare", "--format", "csv")
    assert format_table(parse_csv(out), "csv") == out


# Generated with
#   python -m haarnewton compare --methods newton,wf,fs,oz,klw,new \
#       --format FORMAT --fs-variant VARIANT > tests/golden/grid_VARIANT.EXT
# for FORMAT csv, text and json (EXT csv, txt and json).
# A change that alters these bytes must say so and regenerate them.
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("variant", ["as-printed", "standard-midpoint"])
def test_compare_grid_matches_golden_bytes(capsys, variant):
    for fmt, ext in [("csv", "csv"), ("text", "txt"), ("json", "json")]:
        code, out = run_cli(
            capsys, "compare", "--methods", "newton,wf,fs,oz,klw,new",
            "--format", fmt, "--fs-variant", variant,
        )
        assert code == 0
        assert out.encode() == (GOLDEN / f"grid_{variant}.{ext}").read_bytes(), fmt


# The five README commands, run as ``python -m haarnewton`` processes, with the
# exit code of each; stdout was generated with
#   python -m haarnewton ARGS > tests/golden/readme_NAME.txt
README_COMMANDS = {
    "solve_f2_new": ("solve --function f2 --method new --m 1", 0),
    "solve_f6_klw_trace": ("solve --function f6 --method klw --trace", 0),
    "compare_csv": ("compare --format csv", 0),
    "compare_f6_new_json": ("compare --functions f6 --methods new --format json", 0),
    "coc_f6_new": ("coc --function f6 --method new --m 1", 0),
}


@pytest.mark.parametrize("name", README_COMMANDS)
def test_readme_command_matches_golden_output(name):
    args, code = README_COMMANDS[name]
    readme = (ROOT / "README.md").read_text().splitlines()
    listed = {line.partition("#")[0].split(maxsplit=1)[1].strip()
              for line in readme if line.startswith("haarnewton ")}
    assert listed == {args for args, _ in README_COMMANDS.values()}
    done = subprocess.run(
        [sys.executable, "-m", "haarnewton", *args.split()],
        capture_output=True, env=child_env(), timeout=60,
    )
    assert (done.returncode, done.stderr) == (code, b"")
    assert done.stdout == (GOLDEN / f"readme_{name}.txt").read_bytes()


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
    assert main(args.split()) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / f"readme_{name}.txt").read_bytes()
    assert reached == SEAMS_REACHED[name]


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
    main([command, "--function", "f2", *options])
    method_line = capsys.readouterr().out.splitlines()[1]
    assert method_line.split() == ["method:", label]


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "grid.csv"
    code, out = run_cli(
        capsys, "compare", "--format", "csv", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("function,x0,")


def test_coc_cubic_method(capsys):
    code, out = run_cli(capsys, "coc", "--function", "f6", "--method", "new", "--m", "1")
    assert code == 0
    rho = float([l for l in out.splitlines() if "order" in l][0].split()[-1])
    assert 2.7 <= rho <= 3.3


def test_coc_newton_is_quadratic(capsys):
    code, out = run_cli(capsys, "coc", "--function", "f2", "--method", "newton")
    rho = float([l for l in out.splitlines() if "order" in l][0].split()[-1])
    assert 1.7 <= rho <= 2.3


def test_coc_divergent_run_exits_2(capsys):
    code, _ = run_cli(capsys, "coc", "--function", "f3", "--method", "wf")
    assert code == 2


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
    "count, constant",
    [((), "0.24375"), (("--m", "2"), "0.248438"), (("--points", "4"), "0.248438")],
    ids=["P=2", "m=2", "points=4"],
)
def test_coc_reports_theoretical_constant_when_given(capsys, count, constant):
    # c2^2 - c3/(4P^2) with the P of the method that ran
    code, out = run_cli(
        capsys, "coc", "--function", "f6", "--method", "new",
        "--c2", "0.5", "--c3", "0.1", *count,
    )
    assert f"theoretical constant: {constant}\n" in out


@pytest.mark.parametrize("method", ["newton", "wf", "fs", "oz", "klw"])
@pytest.mark.parametrize(
    "constants", [("--c2", "0.5", "--c3", "0.1"), ("--c2", "0.5"), ("--c3", "0.1")]
)
def test_coc_constants_for_a_method_other_than_new_are_a_usage_error(capsys, method, constants):
    with pytest.raises(SystemExit) as info:
        main(["coc", "--function", "f6", "--method", method, *constants])
    captured = capsys.readouterr()
    assert info.value.code == 1
    assert captured.out == ""
    assert "defined for method 'new' only" in captured.err


@pytest.mark.parametrize("constant", [("--c2", "0.5"), ("--c3", "0.1")], ids=lambda c: c[0])
def test_coc_one_constant_without_the_other_is_a_usage_error(capsys, constant):
    with pytest.raises(SystemExit) as info:
        main(["coc", "--function", "f6", "--method", "new", *constant])
    captured = capsys.readouterr()
    assert info.value.code == 1
    assert captured.out == ""
    assert "haarnewton coc: error: --c2/--c3: give both constants or neither" in captured.err


@pytest.mark.parametrize(
    "constants",
    [("--c2", "0.5", "--c3", "nan"), ("--c2", "inf", "--c3", "1"), ("--c2", "0.5", "--c3=-inf")],
    ids=["nan", "inf", "-inf"],
)
def test_coc_non_finite_constant_is_a_usage_error(capsys, constants):
    with pytest.raises(SystemExit) as info:
        main(["coc", "--function", "f6", "--method", "new", *constants])
    captured = capsys.readouterr()
    assert info.value.code == 1
    assert captured.out == ""
    assert captured.err.startswith("usage: haarnewton coc ")
    assert "haarnewton coc: error: --c2/--c3: the constants must be finite numbers" in captured.err


@pytest.mark.parametrize("c2", ["--c2=1e200", "--c2=-1e200"])
def test_coc_overflowing_theoretical_constant_is_a_usage_error(capsys, c2):
    # finite constants, but c2^2 overflows, so c2^2 - c3/(4P^2) is inf
    with pytest.raises(SystemExit) as info:
        main(["coc", "--function", "f6", "--method", "new", c2, "--c3", "1"])
    captured = capsys.readouterr()
    assert info.value.code == 1
    assert captured.out == ""
    assert captured.err.startswith("usage: haarnewton coc ")
    assert ("haarnewton coc: error: --c2/--c3: the theoretical constant c2^2 - c3/(4P^2)"
            " is not finite") in captured.err


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
    done = subprocess.run(
        [sys.executable, "-S", "-c", LEAN_IMPORT_CHECK, *commands],
        capture_output=True, text=True, env=child_env(), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout)
    assert [(r["function"], r["method"]) for r in rows] == [("f6", "new")]


def test_readme_commands_take_the_exact_parser():
    for args, _ in README_COMMANDS.values():
        assert cli._parse_exact(args.split()) is not None, args


# ``python -m haarnewton ARGV`` with COLUMNS=80, run in an empty directory, for
# argvs that argparse alone parses, helps with or reports: the exit code and
# the stdout and stderr with each run of whitespace made one space (Python 3.13
# wraps usage lines differently from 3.10-3.12). Generated before the exact
# parser existed, by running each argv that way and writing the list of these
# dicts with json.dumps(..., indent=1); identical then under Python 3.10,
# 3.11, 3.12 and 3.13.
ARGPARSE_PATHS = json.loads((GOLDEN / "argparse_paths.json").read_text())


@pytest.mark.parametrize("case", ARGPARSE_PATHS, ids=lambda case: "_".join(case["argv"]) or "no-arguments")
def test_argparse_path_matches_golden_output(tmp_path, case):
    done = subprocess.run(
        [sys.executable, "-m", "haarnewton", *case["argv"]],
        capture_output=True, text=True, env=dict(child_env(), COLUMNS="80"), cwd=tmp_path, timeout=60,
    )
    got = {"argv": case["argv"], "exit": done.returncode,
           "stdout": " ".join(done.stdout.split()), "stderr": " ".join(done.stderr.split())}
    assert got == case


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
