import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from haarnewton.quadrature import haar_indefinite_integral, midpoint_fractions


def test_constant_integrand_exact():
    assert haar_indefinite_integral(lambda t: 1.0, 2.0, 5.0, 4) == 3.0


@pytest.mark.parametrize("points", [1, 2, 3, 7, 16])
def test_linear_integrand_near_exact(points):
    value = haar_indefinite_integral(lambda t: t, 0.0, 1.0, points)
    assert abs(value - 0.5) < 1e-15


def test_quadratic_hand_sum():
    # oracle: direct evaluation of the node sum at 0.125, 0.375, 0.625, 0.875
    nodes = [(k - 0.5) / 4 for k in range(1, 5)]
    expected = (1.0 / 4) * sum(3.0 * t * t for t in nodes)
    value = haar_indefinite_integral(lambda t: 3.0 * t * t, 0.0, 1.0, 4)
    assert value == expected
    assert value == 0.984375


def test_empty_interval_is_exactly_zero():
    assert haar_indefinite_integral(lambda t: math.inf, 1.0, 1.0, 3) == 0.0


@pytest.mark.parametrize("points", [1, 2, 5, 16])
def test_evaluation_count(points):
    calls = []
    haar_indefinite_integral(lambda t: calls.append(t) or 1.0, 0.0, 2.0, points)
    assert len(calls) == points


@pytest.mark.parametrize("points", [1, 2, 5, 16])
def test_node_that_raises_makes_the_integral_nan(points):
    calls = []

    def g(t):
        calls.append(t)
        if len(calls) == 1:
            raise OverflowError("math range error")
        return 1.0

    assert math.isnan(haar_indefinite_integral(g, 0.0, 2.0, points))
    assert len(calls) == points


def test_rejects_nonpositive_points():
    with pytest.raises(ValueError):
        haar_indefinite_integral(lambda t: 1.0, 0.0, 1.0, 0)


def test_midpoint_fractions_are_memoised_and_still_validate_every_call():
    first = midpoint_fractions(8)
    assert midpoint_fractions(8) is first
    assert first == tuple((k - 0.5) / 8 for k in range(1, 9))
    for _ in range(2):
        with pytest.raises(ValueError, match="node count must be >= 1"):
            midpoint_fractions(0)


@pytest.mark.parametrize("points", [2.5, 2.0, math.nan, "3"])
def test_non_integral_node_count_is_a_value_error(points):
    with pytest.raises(ValueError, match="node count must be an integer"):
        midpoint_fractions(points)
    with pytest.raises(ValueError, match="node count must be an integer"):
        haar_indefinite_integral(lambda t: 1.0, 0.0, 1.0, points)


def test_node_count_may_be_any_object_that_indexes_to_an_int():
    class Four:
        def __index__(self):
            return 4

    assert midpoint_fractions(Four()) == midpoint_fractions(4)
    assert haar_indefinite_integral(math.exp, 0.0, 1.0, Four()) == haar_indefinite_integral(
        math.exp, 0.0, 1.0, 4)


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


@given(points=st.integers(min_value=1, max_value=64))
def test_node_symmetry(points):
    nodes = [(k - 0.5) / points for k in range(1, points + 1)]
    reflected = sorted(1.0 - t for t in nodes)
    assert all(math.isclose(u, v, abs_tol=1e-15) for u, v in zip(sorted(nodes), reflected))


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

