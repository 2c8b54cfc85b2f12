"""Independent checks of solver outputs.

Roots are checked against the suite equations written out again in mpmath
and evaluated at 50 significant digits, so a check never reuses the
library's own callables. Evaluation counts are checked against the per-step
costs stated in the paper, not against ``MethodId.step_cost``.
"""

from __future__ import annotations

import functools
import math

# A reported root passes when a true root lies within this relative distance.
ROOT_REL_TOL = 1e-12

# The suite equations; ``m`` is the mpmath module.
SUITE_MP = {
    "f1": lambda m, x: x**5 - x + 1,
    "f2": lambda m, x: m.cos(x) - x,
    "f3": lambda m, x: m.atan(x),
    "f4": lambda m, x: 10 * x * m.exp(-(x * x)) - 1,
    "f5": lambda m, x: m.exp(-x) * m.sin(x) + m.log(x * x + 1),
    "f6": lambda m, x: x**3 - m.exp(-x),
    "f7": lambda m, x: m.exp(-x) - m.cos(x),
}


@functools.cache
def _mpmath():
    """mpmath at 50 digits, imported on first use. The workloads check their
    outputs after the timed loop, so neither the loop nor its peak RSS
    includes mpmath."""
    import mpmath

    mpmath.mp.dps = 50
    return mpmath


def _mp_f(name: str):
    m = _mpmath()
    f = SUITE_MP[name]
    return lambda x: f(m, x)


def step_cost(tag: str, points: int) -> int:
    """f plus f' evaluations per iteration: 2 for Newton, 2+P for the
    wavelet step, 3 for each third-order competitor."""
    if tag == "newton":
        return 2
    if tag == "new":
        return 2 + points
    return 3


def counts_ok(tag: str, points: int, status: str, iterations: int, nfe: int) -> bool:
    """NFE equals step cost times IT for every run that did not break down."""
    return status == "derivative-breakdown" or nfe == step_cost(tag, points) * iterations


class Oracle:
    """Memoised root verdicts; the same (function, root) pair is checked once."""

    def __init__(self) -> None:
        self._verdicts: dict[tuple[str, float], bool] = {}

    def root_ok(self, name: str, x: float) -> bool:
        key = (name, x)
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self._verdicts[key] = _has_root_near(_mp_f(name), x)
        return verdict

    @property
    def checked(self) -> int:
        return len(self._verdicts)


def _has_root_near(f, x: float) -> bool:
    if not math.isfinite(x):
        return False
    m = _mpmath()
    xm = m.mpf(x)
    tol = m.mpf(ROOT_REL_TOL) * max(1, abs(xm))
    fa, fb = f(xm - tol), f(xm + tol)
    if fa == 0 or fb == 0 or (fa < 0) != (fb < 0):
        return True
    # No sign change: only a root of even multiplicity can still be close.
    try:
        r = m.findroot(f, xm)
    except (ValueError, ZeroDivisionError, OverflowError):
        return False
    return abs(r - xm) <= tol and abs(f(r)) < m.mpf(10) ** (-30)


def check_suite_matches(suite) -> None:
    """Refuse to judge a suite whose callables are not the equations above.

    Compares each library f with its mpmath twin at the suite start and two
    nearby points; raises ValueError on a mismatch.
    """
    m = _mpmath()
    for entry in suite:
        name = entry.problem.name
        exact = _mp_f(name)
        for x in (entry.x0, entry.x0 - 0.37, entry.x0 + 0.61):
            want = float(exact(m.mpf(x)))
            got = entry.problem.f(x)
            if abs(got - want) > 1e-12 * max(1.0, abs(want)):
                raise ValueError(f"suite {name} differs from the oracle at x={x!r}: {got!r} vs {want!r}")


def mp_value(name: str, x: float) -> float:
    """f(x) at 50 digits, rounded to a float (for reports of false roots)."""
    return float(_mp_f(name)(_mpmath().mpf(x))) if math.isfinite(x) else math.nan
