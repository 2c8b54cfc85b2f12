"""Wavelet-collocation quadrature for indefinite integrals.

The rule places 2M equally spaced midpoint-style nodes on [a, b], where
M = 2^j1 and j1 is the maximum resolution level. Structurally it is a
composite midpoint rule, so it is exact on affine integrands and
second-order accurate on smooth ones. Integrating the Haar series that
collocates the integrand at those nodes gives exactly this sum; see
tests/test_quadrature.py::test_haar_series_integral_is_the_midpoint_sum.

``node_sum`` is the node loop and its one node guard. An integrand made by
``integrand`` from the text of an expression in x (each f′ of
``bench.SUITE``) also gets that loop compiled with the text in place of the
call g(...), on its first use: the same arithmetic in the same order, so the
same bits, without a Python call per node. ``node_loop`` picks the loop for
an integrand; any other callable runs ``node_sum``.
"""

from collections.abc import Callable
from functools import lru_cache
from math import atan, cos, exp, log, nan, sin

from .core import NAN_ERRORS, as_count


def midpoint_fractions(points: int) -> tuple[float, ...]:
    """Node positions (k - 0.5)/P, k = 1..P, as fractions of the interval: each one
    below 1/2 is 1.0 minus its rounded mirror, exactly, so they sum to exactly P/2.

    P is checked on every call: a non-integral P is a ``ValueError``, as is P < 1.
    The immutable table is memoised by the checked int, so equal counts share it.
    """
    return _fractions(as_count(points, "node count"))


@lru_cache(maxsize=128)
def _fractions(points: int) -> tuple[float, ...]:
    upper = [(k - 0.5) / points for k in range(points // 2 + 1, points + 1)]
    return (*(1.0 - c for c in reversed(upper[points % 2:])), *upper)  # odd P: 0.5 is its own mirror


def node_sum(
    g: Callable[[float], float], a: float, width: float, fractions: tuple[float, ...]
) -> float:
    """Sum of g(a + width*c) over fractions c, left to right.

    This is the one node guard: a node where g raises one of ``NAN_ERRORS``
    sets the sum to NaN, and g is still called exactly once per fraction.
    """
    total = 0.0
    for c in fractions:
        try:
            total += g(a + width * c)
        except NAN_ERRORS:
            total = nan
    return total


# what an integrand's text may name, and its loop's guard
_NAMES = {"atan": atan, "cos": cos, "exp": exp, "log": log, "sin": sin,
          "nan": nan, "NAN_ERRORS": NAN_ERRORS}

# node_sum with g(a + width*c) written out as the integrand's text in x; g stays a parameter
# so that every loop is called alike
_LOOP = """def node_sum(g, a, width, fractions):
    total = 0.0
    for c in fractions:
        try:
            x = a + width * c
            total += {}
        except NAN_ERRORS:
            total = nan
    return total
"""

# id of each function ``integrand`` made -> (that function, kept so the id stays its own; its text).
# By identity, not an attribute: a wrapper of it, even one made with functools.wraps, runs node_sum
_TEXTS = {}


def integrand(text: str) -> Callable[[float], float]:
    """``lambda x: <text>`` over the math names above, registered for ``node_loop``.
    Only the library's own constant texts come here (``bench.SUITE``'s f′)."""
    g = eval(f"lambda x: {text}", dict(_NAMES))
    _TEXTS[id(g)] = g, text
    return g


def node_loop(g: Callable[[float], float]) -> Callable:
    """The loop that sums g over the nodes, called as ``node_sum(g, a, width, fractions)``:
    the compiled loop of an ``integrand``, else ``node_sum``."""
    entry = _TEXTS.get(id(g))
    return node_sum if entry is None else _inlined(entry[1])


@lru_cache(maxsize=None)  # bounded by _TEXTS: one loop per integrand text
def _inlined(text: str) -> Callable:
    namespace = dict(_NAMES)
    exec(compile(_LOOP.format(text), f"<node loop of {text}>", "exec"), namespace)
    return namespace["node_sum"]


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
    total = node_loop(g)(g, a, width, fractions)
    if a == b:
        return 0.0
    return (width / len(fractions)) * total
