"""The order and error constant of every method.

Each step is expanded symbolically in the error e = x - alpha of its input,
with f = e + c2 e^2 + c3 e^3 + c4 e^4 (alpha = 0, f'(alpha) = 1). An averaging
step (newton, wf, fs and new) is expanded on its nominal node fractions,
written here as rationals, and ``MethodId.family`` must hold their float
roundings; every averaging step follows one law in the moments of those
fractions. oz and klw are checked on their own. Each method's order and
constant are then read off a 120-digit run of ``iterate`` on f6, where the
rounding of new[P]'s float fractions shows for P that is not a power of two.
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


def rational(q):
    return sympy.Rational(q.numerator, q.denominator)


def nominal_nodes(method):
    """An averaging method's node fractions c, nodes x - c f/f', as exact rationals, and
    whether the endpoint f'(x) joins them: as printed, not read from ``MethodId.family``."""
    if method.tag == "new":
        points = method.haar_points
        return tuple(Fraction(2 * k - 1, 2 * points) for k in range(1, points + 1)), False
    return {"newton": ((), True), "wf": ((Fraction(1),), True), "fs": ((Fraction(2),), False),
            "fs(std)": ((Fraction(1, 2),), False)}[method.label]


def float_nodes(method):
    """The node fractions and endpoint flag that ``MethodId.family`` holds, exactly."""
    _, fractions, endpoint, *_ = method.family
    return tuple(map(Fraction, fractions)), endpoint


def step_series(method, nodes=nominal_nodes):
    """e_{n+1} as a series in e_n, the step written per family as ``iterate`` runs it;
    an averaging step on ``nodes(method)``, with the weight n + endpoint."""
    fx, dfx = compose(F, E), compose(DF, E)
    d = mul(fx, inv(dfx))
    if method.tag == "oz":
        dz = compose(DF, add(E, d, -1))
        return add(E, scale(mul(fx, add(inv(dfx), inv(dz))), sympy.Rational(1, 2)), -1)
    if method.tag == "klw":
        shifted = compose(F, add(E, d))
        return add(E, mul(add(shifted, fx, -1), inv(dfx)), -1)
    fractions, endpoint = nodes(method)
    total = dfx if endpoint else [0] * TERMS
    for c in fractions:
        total = add(total, compose(DF, add(E, scale(d, rational(c)), -1)))
    return add(E, scale(mul(fx, inv(total)), len(fractions) + endpoint), -1)


def moment_law(method):
    """(e^2, e^3) coefficients of an averaging step, x - W f / (sum over its nodes
    c of f'(x - c f/f')), from the mean m1 and mean square m2 of its nominal fractions c,
    the endpoint counted as c = 0:
        e_{n+1} = (1 - 2 m1) c2 e^2 + [c2^2 + 3 c3 (m2 - 1/3)] e^3.
    The e^3 bracket is given where m1 = 1/2, the third-order case, else None."""
    fractions, endpoint = nominal_nodes(method)
    nodes = [rational(c) for c in (Fraction(0),) * endpoint + fractions]
    m1, m2 = (sum(c**k for c in nodes) / len(nodes) for k in (1, 2))
    e3 = C2**2 + 3 * C3 * (m2 - sympy.Rational(1, 3)) if m1 == sympy.Rational(1, 2) else None
    return (1 - 2 * m1) * C2, e3


AVERAGING = [MethodId("newton"), MethodId("wf"), MethodId("fs"), MethodId("fs", fs_variant="standard-midpoint"),
             *[MethodId("new", p) for p in range(1, 17)]]
# method, e^2 coefficient, e^3 coefficient (None: a second-order method's is not pinned)
CERTIFICATE = [*[(method, *moment_law(method)) for method in AVERAGING],
               (MethodId("oz"), 0, C3 / 2), (MethodId("klw"), 0, 2 * (C2**2 - C3))]


@pytest.mark.parametrize("method, e2, e3", CERTIFICATE, ids=[m.label for m, _, _ in CERTIFICATE])
def test_step_error_expansion(method, e2, e3):
    if method.tag not in ("oz", "klw"):  # the library runs the float roundings of the nodes
        fractions, endpoint = nominal_nodes(method)
        family, floats, flag, _, weight, _ = method.family
        assert (family, floats, flag) == ("averaging", tuple(map(float, fractions)), endpoint)
        assert weight == len(fractions) + endpoint
    e0, e1, got_e2, got_e3 = step_series(method)
    assert (e0, e1) == (0, 0)
    assert sympy.expand(got_e2 - e2) == 0
    if e3 is not None:
        assert sympy.expand(got_e3 - e3) == 0


def test_the_law_gives_third_order_and_the_wavelet_constant():
    # e^2 vanishes for every method but newton and fs as printed, and new[P]'s e^3 is c2^2 - c3/(4P^2)
    assert [method.label for method, e2, _ in CERTIFICATE if e2 != 0] == ["newton", "fs"]
    for method, _, e3 in CERTIFICATE:
        if method.tag == "new":
            assert sympy.expand(e3 - (C2**2 - C3 / (4 * method.haar_points**2))) == 0, method.label


def float_fraction_residue(points):
    """The e^2 coefficient of new[P] on its float fractions, over c2: a rational."""
    return sympy.cancel(step_series(MethodId("new", points), float_nodes)[2] / C2)


def test_float_fractions_leave_an_e2_term_for_non_dyadic_node_counts():
    assert [float_fraction_residue(p) for p in (1, 2, 4, 8)] == [0, 0, 0, 0]
    residue = float_fraction_residue(3)
    assert residue.is_Rational and 0 < abs(residue) < 1e-16


# f6 = x^3 - e^-x from 0.9, at 120 digits, run until the step is below 1e-100
PRECISION_POINTS = (2, 3, 8)


def _f6_pairs(method):
    """(c2, c3, [(e_n, e_{n+1})]) of ``method`` on f6 at 120 digits, errors signed."""
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
    outcome = iterate(method, problem, mpmath.mpf("0.9"), criteria)
    errors = [x - root for x in outcome.trace.iterates]
    return c2, c3, list(zip(errors, errors[1:]))


@pytest.mark.parametrize("method, e2, e3", CERTIFICATE,
                         ids=[str(m.haar_points) if m.tag == "new" else m.label for m, _, _ in CERTIFICATE])
def test_wavelet_constant_at_120_digits(method, e2, e3):
    # e_{n+1} / e_n^k against the row's law at f6's c2 and c3, with k = 2 for
    # the two second-order rows (newton and fs as printed) and 3 for the rest
    with mpmath.workdps(120):
        c2, c3, pairs = _f6_pairs(method)
        order, law = (2, e2) if e2 != 0 else (3, e3)
        constant = sympy.lambdify([C2, C3], law, "mpmath")(c2, c3)
        window = [b / a**order for a, b in pairs if 1e-12 < abs(a) < 1e-6]
        assert len(window) == 1 and abs(window[0] / constant - 1) < 1e-6
        if method.tag != "new" or method.haar_points not in PRECISION_POINTS:
            return
        # the pair after it, with e_n ~ 1e-26, where the rounded fractions' e^2 term shows
        ((a, b),) = [(a, b) for a, b in pairs if 1e-30 < abs(a) < 1e-20]
        if method.haar_points == 3:
            residue = float_fraction_residue(3)
            assert abs(b / a**3) > 1e8
            assert abs(b / a**2 / (c2 * residue.p / residue.q) - 1) < 1e-6
        else:
            assert abs(b / a**3 / constant - 1) < 1e-8
