"""Every check against tests/golden/ and of the suite callables' bits, each
raising AssertionError at its first difference. ``PYTHONPATH=src python
tests/goldens.py`` runs them all on any Python 3.10+ without pytest, prints
one line per check and exits 1 on a mismatch."""

import io
import json
import math
import random
import re
import struct
import sys
import tempfile
from contextlib import redirect_stdout
from functools import partial
from itertools import zip_longest

from haarnewton import cli
from haarnewton.bench import suite_entry
from haarnewton.quadrature import midpoint_fractions, node_loop, node_sum

from helpers import ROOT, run_python
from suite_formulas import FORMULAS

GOLDEN = ROOT / "tests" / "golden"


def expect(got, want):  # for bytes, the AssertionError names the first line that differs
    if got != want:
        pairs = zip_longest(got.splitlines(True), want.splitlines(True)) if isinstance(got, bytes) else [(got, want)]
        raise AssertionError("%r, expected %r" % next(pair for pair in pairs if pair[0] != pair[1]))


def _process(argv, code, golden, **options):  # exit code CODE, no stderr, the golden stdout
    done = run_python(*argv, **options)
    expect((done.returncode, done.stderr), (code, b""))
    expect(done.stdout, (GOLDEN / golden).read_bytes())


# Regenerate a golden file only for a deliberate change of output, each grid with python -m haarnewton
#   compare --methods newton,wf,fs,oz,klw,new --format FORMAT --fs-variant VARIANT > tests/golden/grid_VARIANT.EXT
GRID_FILES = {(variant, fmt): f"grid_{variant}.{ext}" for variant in ("as-printed", "standard-midpoint")
              for fmt, ext in (("csv", "csv"), ("text", "txt"), ("json", "json"))}


def grid(variant, fmt):
    with redirect_stdout(io.StringIO()) as out:
        code = cli.main(["compare", "--methods", "newton,wf,fs,oz,klw,new", "--format", fmt, "--fs-variant", variant])
    expect(code, 0)
    expect(out.getvalue().encode(), (GOLDEN / GRID_FILES[variant, fmt]).read_bytes())


# The README's commands and their exit codes; python -m haarnewton ARGS > tests/golden/readme_NAME.txt
README_COMMANDS = {
    "solve_f2_new": ("solve --function f2 --method new --m 1", 0),
    "solve_f6_klw_trace": ("solve --function f6 --method klw --trace", 0),
    "compare_csv": ("compare --format csv", 0),
    "compare_f6_new_json": ("compare --functions f6 --methods new --format json", 0),
    "coc_f6_new": ("coc --function f6 --method new --m 1", 0),
}


def readme(name):
    args, code = README_COMMANDS[name]
    listed = {line.partition("#")[0].split(maxsplit=1)[1].strip()
              for line in (ROOT / "README.md").read_text().splitlines() if line.startswith("haarnewton ")}
    expect(listed, {args for args, _ in README_COMMANDS.values()})
    _process(["-m", "haarnewton", *args.split()], code, f"readme_{name}.txt")


# argvs that argparse alone parses, helps with or reports, run with COLUMNS=80 in an empty
# directory: the exit code, and stdout and stderr normalised on both sides; written with
# json.dumps(..., indent=1)
ARGPARSE_PATHS = json.loads((GOLDEN / "argparse_paths.json").read_text())


def _normalised(text):
    """Each run of whitespace made one space (3.13 wraps usage lines differently from
    3.10-3.12), and the quotes dropped around each choice in argparse's "(choose from
    ...)" list (3.10.13-3.13.0 print 'f1', 3.13.13 prints f1)."""
    return re.sub(r"\(choose from [^)]*\)", lambda m: m[0].replace("'", ""), " ".join(text.split()))


def argparse_path(case):
    with tempfile.TemporaryDirectory() as empty:
        done = run_python("-m", "haarnewton", *case["argv"], env={"COLUMNS": "80"}, cwd=empty)
    expect({"argv": case["argv"], "exit": done.returncode, "stdout": _normalised(done.stdout.decode()),
            "stderr": _normalised(done.stderr.decode())},
           {**case, "stdout": _normalised(case["stdout"]), "stderr": _normalised(case["stderr"])})


# PYTHONPATH=src python3 scripts/convergence_diagnostics.py > tests/golden/script_convergence_diagnostics.txt
def script():
    _process(["scripts/convergence_diagnostics.py"], 0, "script_convergence_diagnostics.txt", cwd=ROOT, timeout=120)


ROOTS = [-1.16730397826142, 0.739085133215161, 0.0, 0.101025848315685, 1.67963061042845,
         0.77288295914921, 1.29269571937339]


def _float_sample():
    rng = random.Random(5)
    xs = [0.0, -0.0, math.inf, -math.inf, math.nan] + [rng.uniform(-10.0, 10.0) for _ in range(2000)]
    xs += [math.copysign(10.0 ** rng.uniform(-300.0, 300.0), rng.random() - 0.5) for _ in range(2000)]
    xs += [struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0] for _ in range(2000)]
    for root in ROOTS:
        xs += [root + rng.uniform(-1e-6, 1e-6) for _ in range(100)]
        x = root
        for _ in range(50):
            x = math.nextafter(x, math.inf)
            xs += [x, 2.0 * root - x]
    return xs


FLOAT_SAMPLE = _float_sample()


def bits(fn, x):
    """float.hex of fn(x), "nan" for any NaN, or the exception's class and message."""
    try:
        y = fn(x)
    except Exception as exc:
        return type(exc), str(exc)
    return "nan" if math.isnan(y) else y.hex()


# (a, width) pairs whose nodes raise: exp overflows below x ~ -709.8, x**4.0 beyond ~1e77, and sin(+-inf)
# is a ValueError
RAISING = [(-800.0, 100.0), (-1e300, 1.0), (math.inf, 1.0), (-math.inf, 1.0)]


# bench.SUITE writes x**5.0 and binds the math names; this pins it to the printed formulas' bits, and
# the node loop that quadrature compiles from each f′ to node_sum's, node guard included, at P = 1, 2, 3, 128
def suite_bits(name):
    problem = suite_entry(name).problem
    for which, ours, formula in zip(("f", "f'"), (problem.f, problem.df), FORMULAS[name]):
        printed = partial(formula, math)
        wrong = [x for x in FLOAT_SAMPLE if bits(ours, x) != bits(printed, x)]
        if wrong:
            raise AssertionError(f"{name} {which}: {len(wrong)} values differ, first {wrong[:5]}")
    df = problem.df
    loop = node_loop(df)
    expect(loop is node_sum, False)
    for points in (1, 2, 3, 128):
        fractions = midpoint_fractions(points)
        wrong = [(a, width) for a, width in [*zip(FLOAT_SAMPLE[::2], FLOAT_SAMPLE[1::2]), *RAISING]
                 if bits(lambda c: loop(df, a, width, c), fractions)
                 != bits(lambda c: node_sum(df, a, width, c), fractions)]
        if wrong:
            raise AssertionError(f"{name} node loop, P = {points}: {len(wrong)} (a, width) differ, first {wrong[:5]}")


# every check, as (name, the golden file it compares or None, call)
CHECKS = [*[(f"grid {v} {fmt}", file, partial(grid, v, fmt)) for (v, fmt), file in GRID_FILES.items()],
          *[(f"readme {name}", f"readme_{name}.txt", partial(readme, name)) for name in README_COMMANDS],
          *[(f"argparse {c['argv']}", "argparse_paths.json", partial(argparse_path, c)) for c in ARGPARSE_PATHS],
          ("script convergence_diagnostics.py", "script_convergence_diagnostics.txt", script),
          *[(f"suite bits {name}", None, partial(suite_bits, name)) for name in FORMULAS]]

if __name__ == "__main__":
    failed = 0
    for name, _, check in CHECKS:
        try:
            check()
            print(f"match     {name}")
        except AssertionError as exc:
            failed += 1
            print(f"MISMATCH  {name}: {exc}")
    print(f"{len(CHECKS) - failed} of {len(CHECKS)} checks match, Python {sys.version.split()[0]}")
    sys.exit(1 if failed else 0)
