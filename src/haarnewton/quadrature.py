"""Wavelet-collocation quadrature for indefinite integrals.

The rule places 2M equally spaced midpoint-style nodes on [a, b], where
M = 2^j1 and j1 is the maximum resolution level. Structurally it is a
composite midpoint rule, so it is exact on affine integrands and
second-order accurate on smooth ones. Integrating the Haar series that
collocates the integrand at those nodes gives exactly this sum; see
tests/test_quadrature.py::test_haar_series_integral_is_the_midpoint_sum.
"""

from collections.abc import Callable
from functools import lru_cache
from math import nan

from .core import NAN_ERRORS, as_count


def midpoint_fractions(points: int) -> tuple[float, ...]:
    """Node positions (k - 0.5)/P, k = 1..P, as fractions of the interval.

    P is checked on every call: a non-integral P is a ``ValueError``, as is P < 1.
    The immutable table is memoised by the checked int, so equal counts share it.
    """
    return _fractions(as_count(points, "node count"))


@lru_cache(maxsize=128)
def _fractions(points: int) -> tuple[float, ...]:
    return tuple((k - 0.5) / points for k in range(1, points + 1))


def node_sum(
    g: Callable[[float], float], a: float, width: float, fractions: tuple[float, ...]
) -> float:
    """Sum of g(a + width*c) over fractions c, left to right.

    This is the one node guard: a node where g raises one of ``NAN_ERRORS``
    adds NaN, so g is called exactly once per fraction and the sum is NaN.
    """
    total = 0.0
    for c in fractions:
        try:
            total += g(a + width * c)
        except NAN_ERRORS:
            total += nan
    return total


def haar_indefinite_integral(
    g: Callable[[float], float], a: float, b: float, points: int
) -> float:
    """Approximate the integral of g over [a, b] with P midpoint-style nodes.

    Returns ((b-a)/P) * sum_{k=1..P} g(a + (b-a)(k-0.5)/P). Always performs
    exactly P evaluations of g; accumulation is plain left-to-right so the
    result is deterministic. A node where g raises an error in
    ``core.NAN_ERRORS`` makes the result NaN (0.0 on an empty interval).
    """
    width, fractions = b - a, midpoint_fractions(points)
    total = node_sum(g, a, width, fractions)
    if a == b:
        return 0.0
    return (width / len(fractions)) * total
