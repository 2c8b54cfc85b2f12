"""The wavelet-collocation quadrature, including its derivation from a Haar
series: ``test_haar_series_integral_is_the_midpoint_sum`` checks, in exact
arithmetic, that integrating the Haar series which collocates g at the 2M
points (l - 1/2)/2M gives the midpoint sum ``haar_indefinite_integral``
computes, the formula as Siraj-ul-Islam, Aziz & Šarler (Math. Comput.
Modelling 52, 2010) and Aziz & Siraj-ul-Islam (J. Comput. Appl. Math. 239,
2013) state it."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from haarnewton.core import EvalCounters, Problem
from haarnewton.methods import haar_newton_step
from haarnewton.quadrature import haar_indefinite_integral, midpoint_fractions


@pytest.mark.parametrize("points", [1, 2, 3, 7, 16])
def test_linear_integrand_near_exact(points):
    value = haar_indefinite_integral(lambda t: t, 0.0, 1.0, points)
    assert abs(value - 0.5) < 1e-15


def test_empty_interval_is_exactly_zero():
    assert haar_indefinite_integral(lambda t: math.inf, 1.0, 1.0, 3) == 0.0


@pytest.mark.parametrize("points", [1, 2, 5, 16])
def test_node_that_raises_makes_the_integral_nan(points):
    # a math-module error, or the TypeError of math.exp on a complex value
    for error in (OverflowError("math range error"), TypeError("must be real number, not complex")):
        calls = []

        def g(t):
            calls.append(t)
            if len(calls) == 1:
                raise error
            return 1.0

        assert math.isnan(haar_indefinite_integral(g, 0.0, 2.0, points))
        assert len(calls) == points


def test_midpoint_fractions_are_memoised_and_still_validate_every_call():
    first = midpoint_fractions(8)
    assert midpoint_fractions(8) is first
    assert first == tuple((k - 0.5) / 8 for k in range(1, 9))
    for _ in range(2):
        with pytest.raises(ValueError, match="node count must be >= 1"):
            midpoint_fractions(0)


@pytest.mark.parametrize("points", [2.5, 2.0, math.nan, "3", 0, [4]])
def test_non_integral_node_count_is_a_value_error(points):
    message = "must be >= 1" if points == 0 else "must be an integer"
    with pytest.raises(ValueError, match=f"node count {message}"):
        midpoint_fractions(points)
    with pytest.raises(ValueError, match=f"node count {message}"):
        haar_indefinite_integral(lambda t: 1.0, 0.0, 1.0, points)


def test_node_count_may_be_any_object_that_indexes_to_an_int():
    class Four:
        def __index__(self):
            return 4

    class UnhashableFour(Four):  # defining __eq__ sets __hash__ to None
        def __eq__(self, other):
            return isinstance(other, UnhashableFour)

    problem = Problem("cos", math.cos, lambda t: -math.sin(t))
    for four in (Four(), UnhashableFour()):
        assert midpoint_fractions(four) is midpoint_fractions(4)
        assert haar_indefinite_integral(math.cos, 0.0, 1.0, four) == haar_indefinite_integral(
            math.cos, 0.0, 1.0, 4)
        counters, expected = EvalCounters(), EvalCounters()
        assert haar_newton_step(problem, 1.0, counters, points=four) == haar_newton_step(
            problem, 1.0, expected, points=4)
        assert counters == expected


@given(
    c0=st.floats(min_value=-10, max_value=10),
    c1=st.floats(min_value=-10, max_value=10),
    a=st.floats(min_value=-5, max_value=5),
    b=st.floats(min_value=-5, max_value=5),
    points=st.sampled_from([1, 2, 4, 8, 16]),
)
@example(c0=0.0, c1=1.0, a=4.0, b=4.080167092857048, points=1)
def test_affine_exactness(c0, c1, a, b, points):
    value = haar_indefinite_integral(lambda t: c0 + c1 * t, a, b, points)
    # exact rational reference: a float formula such as c1*(b*b - a*a)/2 cancels
    fa, fb = Fraction(a), Fraction(b)
    exact = Fraction(c0) * (fb - fa) + Fraction(c1) * (fb * fb - fa * fa) / 2
    # the rule's rounding error scales with |b-a| times the integrand's
    # magnitude; the floor covers subnormal widths, where rounding is absolute
    scale = max(abs(b - a) * (abs(c0) + abs(c1) * max(abs(a), abs(b))), 1e-300)
    assert abs(Fraction(value) - exact) <= 10 * Fraction(math.ulp(scale))


@settings(deadline=None)
@given(scale=st.floats(min_value=0.5, max_value=3.0))
def test_second_order_error_decay_on_exp(scale):
    exact = math.exp(scale) - 1.0
    errors = [
        abs(haar_indefinite_integral(math.exp, 0.0, scale, p) - exact)
        for p in (16, 32, 64)
    ]
    for coarse, fine in zip(errors, errors[1:]):
        assert 0.2 < fine / coarse < 0.3


def haar_functions(size):
    """The first ``size`` Haar functions on [0, 1], each with its integral over
    [0, 1]: the scaling function, then level by level (m = 1, 2, 4, ...) the m
    wavelets h(mx - k), +1 on [k/m, (k + 1/2)/m), -1 on [(k + 1/2)/m, (k + 1)/m)
    and 0 elsewhere."""
    half = Fraction(1, 2)
    functions = [(lambda x: 1 if 0 <= x < 1 else 0, Fraction(1))]
    m = 1
    while len(functions) < size:
        for k in range(m):
            def wavelet(x, m=m, k=k):
                return 1 if 0 <= m * x - k < half else -1 if half <= m * x - k < 1 else 0

            functions.append((wavelet, half / m - (1 - half) / m))
        m *= 2
    return functions


def solve_exactly(matrix, rhs):
    """The x with matrix·x = rhs, by Gauss-Jordan elimination over Fractions."""
    rows = [[*row, value] for row, value in zip(matrix, rhs)]
    for col in range(len(rows)):
        pivot = next(r for r in range(col, len(rows)) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r, row in enumerate(rows):
            if r != col and row[col]:
                factor = row[col] / rows[col][col]
                rows[r] = [u - factor * v for u, v in zip(row, rows[col])]
    return [row[-1] / row[i] for i, row in enumerate(rows)]


def haar_series_integral(g, a, b, size):
    """The integral over [a, b] of the Haar series through g's values at the
    ``size`` = 2M collocation points a + (b - a)(l - 1/2)/2M."""
    functions = haar_functions(size)
    nodes = [Fraction(2 * l - 1, 2 * size) for l in range(1, size + 1)]
    coefficients = solve_exactly([[h(t) for h, _ in functions] for t in nodes],
                                 [g(a + (b - a) * t) for t in nodes])
    return (b - a) * sum(c * integral for c, (_, integral) in zip(coefficients, functions))


@pytest.mark.parametrize("size", [2, 4, 8, 16])
def test_haar_series_integral_is_the_midpoint_sum(size):
    def cubic(x):
        return 2 * x**3 - 5 * x**2 + x - 7

    for a, b in [(Fraction(0), Fraction(1)), (Fraction(-3, 4), Fraction(5, 2))]:
        nodes = [a + (b - a) * Fraction(2 * l - 1, 2 * size) for l in range(1, size + 1)]
        assert haar_series_integral(cubic, a, b, size) == (b - a) / size * sum(map(cubic, nodes)), (a, b)
    # x*x at these nodes, its sum and the 1/2M scaling are exact in floats
    square = haar_series_integral(lambda x: x * x, Fraction(0), Fraction(1), size)
    assert Fraction(haar_indefinite_integral(lambda t: t * t, 0.0, 1.0, size)) == square
