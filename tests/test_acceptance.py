"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 3 checks the reference table's divergent cells as recorded.
Three of those cells (fs on f1 and f2 as printed, oz on f2) converge to
genuine roots in double precision, so those sub-checks fail by design
rather than being loosened; see the repository README.
"""

import math
import random
import subprocess
import sys

import pytest

from haarnewton.analysis import (
    COC_ERROR_MAX,
    COC_ERROR_MIN,
    convergence_report,
    theoretical_error_constant,
)
from haarnewton.bench import builtin_suite, run_comparison, suite_entry
from haarnewton.core import DerivativeBreakdownError, EvalCounters, Problem, Status
from haarnewton.methods import (
    FsVariant,
    MethodId,
    fs_step,
    haar_newton_step,
    iterate,
    wf_step,
)
from haarnewton.quadrature import haar_indefinite_integral

from helpers import child_env

WF = MethodId("wf")
FS_PRINTED = MethodId("fs", fs_variant=FsVariant.AS_PRINTED)
FS_STANDARD = MethodId("fs", fs_variant=FsVariant.STANDARD_MIDPOINT)
OZ = MethodId("oz")
KLW = MethodId("klw")
NEW = MethodId("new", haar_points=2)

# Reference comparison grid: (function, method) -> (iterations, root or None).
# The fs column uses the standard-midpoint variant, which is the only one
# consistent with the reference roots and iteration counts.
REFERENCE_CONVERGED = {
    ("f1", OZ): (13, -1.16730397826142),
    ("f1", KLW): (17, -1.16730397826142),
    ("f1", NEW): (9, -1.16730397826142),
    ("f2", WF): (4, 0.739085133215161),
    ("f2", KLW): (4, 0.739085133215161),
    ("f2", NEW): (4, 0.739085133215161),
    ("f3", KLW): (4, None),
    ("f3", NEW): (4, None),
    ("f4", WF): (4, 1.67963061042845),
    ("f4", FS_STANDARD): (7, 1.67963061042845),
    ("f4", OZ): (4, 0.101025848315685),
    ("f4", KLW): (6, 1.67963061042845),
    ("f4", NEW): (5, 1.67963061042845),
    ("f5", WF): (3, None),
    ("f5", FS_STANDARD): (4, None),
    ("f5", OZ): (4, None),
    ("f5", KLW): (3, None),
    ("f5", NEW): (3, None),
    ("f6", WF): (5, 0.77288295914921),
    ("f6", FS_STANDARD): (4, 0.77288295914921),
    ("f6", OZ): (4, 0.77288295914921),
    ("f6", KLW): (5, 0.77288295914921),
    ("f6", NEW): (4, 0.77288295914921),
    ("f7", WF): (3, 1.29269571937339),
    ("f7", FS_STANDARD): (3, 1.29269571937339),
    ("f7", OZ): (4, 1.29269571937339),
    ("f7", KLW): (4, 1.29269571937339),
    ("f7", NEW): (3, 1.29269571937339),
}

REFERENCE_DIVERGENT = [
    ("f1", WF),
    ("f3", WF),
    ("f1", FS_PRINTED),
    ("f2", FS_PRINTED),
    ("f3", FS_PRINTED),
    ("f2", OZ),
    ("f3", OZ),
]


def report(n, ok, detail=""):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'}" + (f"  ({detail})" if detail else ""))


def run_cell(name, method):
    entry = suite_entry(name)
    return iterate(method, entry.problem, entry.x0)


def test_criterion_1_root_reproduction():
    failures = []
    for (name, method), (_, root) in REFERENCE_CONVERGED.items():
        outcome = run_cell(name, method)
        if outcome.status is not Status.CONVERGED:
            failures.append(f"{name}/{method.label}: {outcome.status.value}")
        elif root is None:
            if abs(outcome.root) > 1e-13:
                failures.append(f"{name}/{method.label}: |root|={abs(outcome.root):.3g}")
        elif abs(outcome.root - root) > 1e-12:
            failures.append(f"{name}/{method.label}: root={outcome.root!r}")
    report(1, not failures, "; ".join(failures))
    assert not failures


def test_criterion_2_iteration_and_cost_accounting():
    failures = []
    for (name, method), (ref_it, _) in REFERENCE_CONVERGED.items():
        outcome = run_cell(name, method)
        if abs(outcome.iterations - ref_it) > 2:
            failures.append(f"{name}/{method.label}: IT={outcome.iterations} vs {ref_it}")
        expected_nfe = (4 if method.tag == "new" else 3) * outcome.iterations
        if outcome.nfe != expected_nfe:
            failures.append(f"{name}/{method.label}: NFE={outcome.nfe} != {expected_nfe}")
    report(2, not failures, "; ".join(failures))
    assert not failures


@pytest.mark.parametrize(
    "name, method",
    REFERENCE_DIVERGENT,
    ids=[f"{n}-{m.label}-{m.fs_variant.value}" if m.tag == "fs" else f"{n}-{m.label}"
         for n, m in REFERENCE_DIVERGENT],
)
def test_criterion_3_divergence_reproduction(name, method):
    outcome = run_cell(name, method)
    ok = outcome.status is not Status.CONVERGED
    report(3, ok, f"{name}/{method.label}: {outcome.status.value}")
    assert ok, (
        f"reference table records {name}/{method.label} as divergent, but the run "
        f"converged to {outcome.root!r} in {outcome.iterations} iterations"
    )


def test_criterion_4_cubic_order():
    failures = []
    checked = []
    for entry in builtin_suite():
        outcome = iterate(NEW, entry.problem, entry.x0)
        if outcome.status is not Status.CONVERGED:
            continue
        errors = [x - outcome.root for x in outcome.trace.iterates]
        usable = sum(1 for e in errors if COC_ERROR_MIN < abs(e) < COC_ERROR_MAX)
        if usable < 4:
            continue
        rho = convergence_report(outcome.trace, outcome.root).coc
        checked.append(f"{entry.problem.name}: rho={rho:.3f}")
        if not 2.7 <= rho <= 3.3:
            failures.append(f"{entry.problem.name}: rho={rho:.3f}")
    ok = not failures and checked
    report(4, ok, "; ".join(failures or checked))
    assert checked, "no suite run produced enough usable iterates"
    assert not failures


def test_criterion_5_error_constant():
    problem = Problem("expm1", lambda x: math.exp(x) - 1.0, math.exp)
    outcome = iterate(NEW, problem, 0.05)
    observed = convergence_report(outcome.trace, outcome.root).error_constant_empirical
    expected = theoretical_error_constant(0.5, 1.0 / 6.0, 2)
    rel = abs(observed - expected) / expected
    ok = rel < 0.15
    report(5, ok, f"observed={observed:.6g} expected={expected:.6g} rel={rel:.3g}")
    assert ok


def test_criterion_6_quadrature_properties():
    failures = []
    for points in (1, 2, 4, 8, 16):
        value = haar_indefinite_integral(lambda t: 2.0 - 3.0 * t, 0.5, 2.5, points)
        exact = 2.0 * 2.0 - 3.0 * (2.5**2 - 0.5**2) / 2.0
        if abs(value - exact) > 10 * math.ulp(max(abs(exact), abs(value))):
            failures.append(f"affine P={points}")
    exact = math.e - 1.0
    errors = {
        p: abs(haar_indefinite_integral(math.exp, 0.0, 1.0, p) - exact)
        for p in (16, 32, 64)
    }
    for coarse, fine in ((16, 32), (32, 64)):
        ratio = errors[fine] / errors[coarse]
        if not 0.2 <= ratio <= 0.3:
            failures.append(f"decay {coarse}->{fine}: {ratio:.3f}")
    report(6, not failures, "; ".join(failures))
    assert not failures


def test_criterion_7_structural_identities():
    rng = random.Random(20240817)
    checked = 0
    failures = []
    while checked < 100:
        a = rng.uniform(0.2, 4.0)
        b = rng.uniform(-3.0, 3.0)
        c = rng.uniform(-3.0, 3.0)
        x = rng.uniform(-4.0, 4.0)
        problem = Problem(
            "cubic",
            lambda t, a=a, b=b, c=c: a * t**3 + b * t + c,
            lambda t, a=a, b=b: 3.0 * a * t * t + b,
        )
        try:
            hn = haar_newton_step(problem, x, EvalCounters(), points=1)
            fs = fs_step(problem, x, EvalCounters(), FsVariant.STANDARD_MIDPOINT)
        except DerivativeBreakdownError:
            continue
        checked += 1
        if hn != fs and not (math.isnan(hn) and math.isnan(fs)):
            failures.append(f"x={x!r}: {hn!r} != {fs!r}")

    quad = Problem("x2-4", lambda t: t * t - 4.0, lambda t: 2.0 * t)
    wf = wf_step(quad, 3.0, EvalCounters())
    hn2 = haar_newton_step(quad, 3.0, EvalCounters(), points=2)
    target = 63.0 / 31.0
    for label, value in (("wf", wf), ("new", hn2)):
        if abs(value - target) / target > 1e-13:
            failures.append(f"{label}={value!r}")
    report(7, not failures, "; ".join(failures))
    assert not failures


def test_criterion_8_determinism():
    cmd = [sys.executable, "-m", "haarnewton", "compare", "--format", "csv"]
    first = subprocess.run(cmd, capture_output=True, check=True, env=child_env()).stdout
    second = subprocess.run(cmd, capture_output=True, check=True, env=child_env()).stdout
    ok = first == second and len(first) > 0
    report(8, ok)
    assert ok
