"""The order and error constant of every method.

Each step is expanded symbolically in the error e = x - alpha of its input,
with f = e + c2 e^2 + c3 e^3 + c4 e^4 (alpha = 0, f'(alpha) = 1), on the node
fractions that ``MethodId.family`` holds, read exactly; those must be the float
roundings of the nominal fractions, mirrored about 1/2. The expansion must
match the law that ``MethodId.error_law`` states for every method, and so must
a 120-digit run of ``iterate`` on f6, where new[P]'s float fractions leave no
e^2 term for any P. As P grows, new[P] tends to the Newton-Steffensen step,
whose law is the averaging law at the moments of the uniform distribution on [0, 1].
"""

from fractions import Fraction
from functools import lru_cache, partial

import mpmath
import pytest
import sympy

from haarnewton.core import Problem, StopCriteria
from haarnewton.methods import MethodId, iterate

from suite_formulas import FORMULAS

C2, C3, C4 = sympy.symbols("c2 c3 c4")
E = [0, 1, 0, 0]  # x = alpha + e: a series truncated after e^3; each result has its input's length
F = [0, 1, C2, C3, C4]  # f and f' as polynomials in e
DF = [1, 2 * C2, 3 * C3, 4 * C4]


def add(a, b, sign=1):
    return [u + sign * v for u, v in zip(a, b)]


def scale(a, s):
    return [s * u for u in a]


def mul(a, b):
    return [sympy.expand(sum(a[i] * b[k - i] for i in range(k + 1))) for k in range(len(a))]


def inv(a):
    out = [1 / a[0]]
    for k in range(1, len(a)):
        out.append(sympy.expand(-sum(a[i] * out[k - i] for i in range(1, k + 1)) / a[0]))
    return out


def compose(poly, y):
    """poly(y) for a series y without constant term, by Horner's rule."""
    out = [0] * len(y)
    for coefficient in reversed(poly):
        out = add(mul(out, y), [coefficient] + [0] * (len(y) - 1))
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


@lru_cache(maxsize=None)
def step_series(method):
    """e_{n+1} as a series in e_n, the step written per family as ``iterate`` runs it;
    an averaging step on the node fractions that ``MethodId.family`` holds, read
    exactly, with the weight n + endpoint."""
    fx, dfx = compose(F, E), compose(DF, E)
    d = mul(fx, inv(dfx))
    if method.tag == "oz":
        dz = compose(DF, add(E, d, -1))
        return add(E, scale(mul(fx, add(inv(dfx), inv(dz))), sympy.Rational(1, 2)), -1)
    if method.tag == "klw":
        shifted = compose(F, add(E, d))
        return add(E, mul(add(shifted, fx, -1), inv(dfx)), -1)
    _, fractions, endpoint, *_ = method.family
    total = dfx if endpoint else [0] * len(E)
    for c in map(Fraction, fractions):
        total = add(total, compose(DF, add(E, scale(d, rational(c)), -1)))
    return add(E, scale(mul(fx, inv(total)), len(fractions) + endpoint), -1)


METHODS = [MethodId("newton"), MethodId("wf"), MethodId("fs"), MethodId("fs", fs_variant="standard-midpoint"),
           MethodId("oz"), MethodId("klw"), *[MethodId("new", p) for p in range(1, 17)]]
# method, order, constant: e_{n+1} = constant * e_n^order + ..., as the library states it
CERTIFICATE = [(method, *method.error_law(C2, C3)) for method in METHODS]


@pytest.mark.parametrize("method, order, law", CERTIFICATE, ids=[m.label for m, _, _ in CERTIFICATE])
def test_step_error_expansion(method, order, law):
    if method.tag not in ("oz", "klw"):  # the library runs the float roundings of the nodes
        fractions, endpoint = nominal_nodes(method)
        family, floats, flag, _, weight, _ = method.family
        # a fraction below 1/2 is 1.0 minus its mirror's rounding, so the two sum to exactly 1
        rounded = tuple(float(c) if c >= Fraction(1, 2) else 1.0 - float(1 - c) for c in fractions)
        assert (family, floats, flag) == ("averaging", rounded, endpoint)
        assert weight == len(fractions) + endpoint
    series = step_series(method)
    assert [sympy.expand(c) for c in series[:order]] == [0] * order
    assert sympy.expand(series[order] - law) == 0


def test_the_law_gives_third_order_and_the_wavelet_constant():
    # every method is third order but newton and fs as printed, and new[P]'s constant is
    # c2^2 - c3/(4P^2): exactly for a power of two, where every fraction is exact, else
    # within the rounding of the fractions
    assert [method.label for method, order, _ in CERTIFICATE if order != 3] == ["newton", "fs"]
    for method, _, law in CERTIFICATE:
        if method.tag != "new":
            continue
        points = method.haar_points
        wavelet = C2**2 - C3 / (4 * points**2)
        if points & (points - 1) == 0:
            assert sympy.expand(law - wavelet) == 0, method.label
        else:
            assert sympy.expand(law - C3 * law.coeff(C3)) == C2**2, method.label
            assert abs(law.coeff(C3) * 4 * points**2 + 1) < 1e-13, method.label


def test_the_wavelet_step_tends_to_the_newton_steffensen_step():
    # new[P]'s mean of f' at the nodes x - d(k - 1/2)/P, d = f/f', tends to the exact mean
    # (f(x) - f(x - d))/d as P -> oo, here on the quartic f with symbolic x and d
    x, d, k, points = sympy.symbols("x d k P", positive=True)
    quartic = sympy.Lambda(x, sum(c * x**i for i, c in enumerate(F)))
    slope = sympy.Lambda(x, sympy.diff(quartic(x), x))

    def midpoint_mean(g):
        return sympy.summation(g((k - sympy.S.Half) / points), (k, 1, points)) / points

    mean = sympy.limit(midpoint_mean(lambda c: slope(x - d * c)), points, sympy.oo)
    assert sympy.simplify(mean - (quartic(x) - quartic(x - d)) / d) == 0
    # so the limit step is x - f^2/(f' (f(x) - f(x - d))), the Newton-Steffensen step; its law
    # is the averaging law at the limit's moments m1 = 1/2, m2 = 1/3: c2^2 e^3 + O(e^4)
    m1, m2 = (sympy.limit(midpoint_mean(lambda c: c**j), points, sympy.oo) for j in (1, 2))
    assert (m1, m2) == (sympy.S.Half, sympy.Rational(1, 3))
    # f(x) - f(x - d) and d start at e, so their quotient to e^3 needs both to e^4
    e = E + [0]
    fx, dfx = compose(F, e), compose(DF, e)
    d_e = mul(fx, inv(dfx))  # d as a series in e
    drop = add(fx, compose(F, add(e, d_e, -1)), -1)
    assert drop[0] == d_e[0] == 0
    exact_mean = mul(drop[1:], inv(d_e[1:]))
    limit_step = add(E, mul(fx[:-1], inv(exact_mean)), -1)
    law = [0, 0, (1 - 2 * m1) * C2, C2**2 + (3 * m2 - 1) * C3]
    assert [sympy.expand(c - want) for c, want in zip(limit_step, law)] == [0] * len(E)


# f6 = x^3 - e^-x from 0.9, at 120 digits, run until the step is below 1e-100
PRECISION_POINTS = (2, 3, 5, 6, 7, 8, 12)


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


@pytest.mark.parametrize("method, order, law", CERTIFICATE,
                         ids=[str(m.haar_points) if m.tag == "new" else m.label for m, _, _ in CERTIFICATE])
def test_wavelet_constant_at_120_digits(method, order, law):
    # e_{n+1} / e_n^order against the row's constant at f6's c2 and c3
    with mpmath.workdps(120):
        c2, c3, pairs = _f6_pairs(method)
        constant = sympy.lambdify([C2, C3], law, "mpmath")(c2, c3)
        window = [b / a**order for a, b in pairs if 1e-12 < abs(a) < 1e-6]
        assert len(window) == 1 and abs(window[0] / constant - 1) < 1e-6
        if method.tag != "new" or method.haar_points not in PRECISION_POINTS:
            return
        # the pair after it, with e_n ~ 1e-26, where an e^2 term of the rounded fractions would show
        ((a, b),) = [(a, b) for a, b in pairs if 1e-30 < abs(a) < 1e-20]
        assert abs(b / a**3 / constant - 1) < 1e-8
