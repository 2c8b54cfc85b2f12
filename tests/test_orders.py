"""The order and error constant of every method.

Each step is expanded symbolically in the error e = x - alpha of its input,
with f = e + c2 e^2 + c3 e^3 + c4 e^4 (alpha = 0, f'(alpha) = 1), on the node
fractions and weight that ``MethodId.family`` gives it. The wavelet method's
constant is then read off a 120-digit run of ``iterate``, where the rounding
of its float fractions shows for P that is not a power of two.
"""

from fractions import Fraction
from functools import partial

import mpmath
import pytest
import sympy

from haarnewton.core import Problem, StopCriteria
from haarnewton.methods import MethodId, iterate

from suite_formulas import FORMULAS

C2, C3, C4 = sympy.symbols("c2 c3 c4")
TERMS = 4  # truncated power series in e: the coefficients of e^0 .. e^3
E = [0, 1, 0, 0]  # x = alpha + e
F = [0, 1, C2, C3, C4]  # f and f' as polynomials in e
DF = [1, 2 * C2, 3 * C3, 4 * C4]


def add(a, b, sign=1):
    return [u + sign * v for u, v in zip(a, b)]


def scale(a, s):
    return [s * u for u in a]


def mul(a, b):
    return [sympy.expand(sum(a[i] * b[k - i] for i in range(k + 1))) for k in range(TERMS)]


def inv(a):
    out = [1 / a[0]]
    for k in range(1, TERMS):
        out.append(sympy.expand(-sum(a[i] * out[k - i] for i in range(1, k + 1)) / a[0]))
    return out


def compose(poly, y):
    """poly(y) for a series y without constant term, by Horner's rule."""
    out = [0] * TERMS
    for coefficient in reversed(poly):
        out = add(mul(out, y), [coefficient] + [0] * (TERMS - 1))
    return out


def nearest_fraction(c):
    q = Fraction(c).limit_denominator()
    return sympy.Rational(q.numerator, q.denominator)


def float_fraction(c):
    q = Fraction(c)  # the exact value of the float
    return sympy.Rational(q.numerator, q.denominator)


def step_series(method, fraction=nearest_fraction):
    """e_{n+1} as a series in e_n, the step written per family as ``iterate`` runs it."""
    family, fractions, endpoint, _, weight, _ = method.family
    fx, dfx = compose(F, E), compose(DF, E)
    d = mul(fx, inv(dfx))
    if family == "averaging":
        total = dfx if endpoint else [0] * TERMS
        for c in fractions:
            total = add(total, compose(DF, add(E, scale(d, fraction(c)), -1)))
        return add(E, scale(mul(fx, inv(total)), sympy.Rational(weight)), -1)
    if family == "oz":
        dz = compose(DF, add(E, d, -1))
        return add(E, scale(mul(fx, add(inv(dfx), inv(dz))), sympy.Rational(1, 2)), -1)
    shifted = compose(F, add(E, d))  # klw
    return add(E, mul(add(shifted, fx, -1), inv(dfx)), -1)


# method, e^2 coefficient, e^3 coefficient (None: a second-order method's is not pinned)
CERTIFICATE = [
    (MethodId("newton"), C2, None),
    (MethodId("fs"), -3 * C2, None),
    (MethodId("wf"), 0, (2 * C2**2 + C3) / 2),
    (MethodId("fs", fs_variant="standard-midpoint"), 0, (4 * C2**2 - C3) / 4),
    *[(MethodId("new", p), 0, C2**2 - C3 / (4 * p**2)) for p in (1, 2, 3, 8)],
    (MethodId("oz"), 0, C3 / 2),
    (MethodId("klw"), 0, 2 * (C2**2 - C3)),
]


@pytest.mark.parametrize("method, e2, e3", CERTIFICATE, ids=[m.label for m, _, _ in CERTIFICATE])
def test_step_error_expansion(method, e2, e3):
    e0, e1, got_e2, got_e3 = step_series(method)
    assert (e0, e1) == (0, 0)
    assert sympy.expand(got_e2 - e2) == 0
    if e3 is not None:
        assert sympy.expand(got_e3 - e3) == 0


def float_fraction_residue(points):
    """The e^2 coefficient of new[P] on its float fractions, over c2: a rational."""
    return sympy.cancel(step_series(MethodId("new", points), float_fraction)[2] / C2)


def test_float_fractions_leave_an_e2_term_for_non_dyadic_node_counts():
    assert [float_fraction_residue(p) for p in (1, 2, 4, 8)] == [0, 0, 0, 0]
    residue = float_fraction_residue(3)
    assert residue.is_Rational and 0 < abs(residue) < 1e-16


# f6 = x^3 - e^-x from 0.9, at 120 digits, run until the step is below 1e-100
PRECISION_POINTS = (2, 3, 8)


def _f6_pairs(points):
    """(c2, c3, [(e_n, e_{n+1})]) of new[P] on f6 at 120 digits, errors signed."""
    f6, df6 = FORMULAS["f6"]
    problem = Problem("f6", partial(f6, mpmath), partial(df6, mpmath))
    root = mpmath.findroot(problem.f, mpmath.mpf("0.77"))
    # c_k = f^(k)(root) / (k! f'(root)), with f'' and f''' from sympy on the table's f6'
    x = sympy.Symbol("x")
    d2 = sympy.diff(df6(sympy, x), x)
    ddf, dddf = (sympy.lambdify(x, d, "mpmath")(root) for d in (d2, sympy.diff(d2, x)))
    slope = problem.df(root)
    c2, c3 = ddf / (2 * slope), dddf / (6 * slope)
    criteria = StopCriteria(step_tol=1e-100, residual_tol=1e-100)
    outcome = iterate(MethodId("new", points), problem, mpmath.mpf("0.9"), criteria)
    errors = [x - root for x in outcome.trace.iterates]
    return c2, c3, list(zip(errors, errors[1:]))


@pytest.mark.parametrize("points", PRECISION_POINTS)
def test_wavelet_constant_at_120_digits(points):
    with mpmath.workdps(120):
        c2, c3, pairs = _f6_pairs(points)
        constant = c2**2 - c3 / (4 * points**2)
        window = [b / a**3 for a, b in pairs if 1e-12 < abs(a) < 1e-6]
        assert len(window) == 1 and abs(window[0] / constant - 1) < 1e-6
        # the pair after it, with e_n ~ 1e-26, where the rounded fractions' e^2 term shows
        ((a, b),) = [(a, b) for a, b in pairs if 1e-30 < abs(a) < 1e-20]
        if points == 3:
            residue = float_fraction_residue(3)
            assert abs(b / a**3) > 1e8
            assert abs(b / a**2 / (c2 * residue.p / residue.q) - 1) < 1e-6
        else:
            assert abs(b / a**3 / constant - 1) < 1e-8
