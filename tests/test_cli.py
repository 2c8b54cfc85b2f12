import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from haarnewton.cli import main


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


# Run in a fresh interpreter: the modules only count when the import of
# haarnewton.cli is what loads them, not the interpreter's own start-up.
LEAN_IMPORT_CHECK = """
import sys
before = set(sys.modules)
from haarnewton.cli import main
loaded = {"dataclasses", "inspect", "json"} & (set(sys.modules) - before)
assert not loaded, f"imported with haarnewton.cli: {sorted(loaded)}"
sys.exit(main(["compare", "--functions", "f6", "--methods", "new", "--format", "json"]))
"""


def test_cli_import_leaves_out_dataclasses_inspect_and_json():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", LEAN_IMPORT_CHECK],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout)
    assert [(r["function"], r["method"]) for r in rows] == [("f6", "new")]
