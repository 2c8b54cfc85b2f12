"""Convergence diagnostics: empirical order, asymptotic error constants."""

from __future__ import annotations

import math

from .core import FrozenRecord, Outcome, Status, Trace, _setattr, as_count

# Windows keeping the diagnostics in the asymptotic regime: third-order
# methods hit roundoff within a handful of steps, so pre-asymptotic and
# roundoff-dominated errors must be excluded or they dominate the estimate.
COC_ERROR_MIN = 1e-13
COC_ERROR_MAX = 1.0
CONSTANT_ERROR_MIN = 1e-10
CONSTANT_ERROR_MAX = 1e-2
CONSTANT_NEXT_MIN = 1e-16


class ConvergenceReport(FrozenRecord):
    __slots__ = _fields = (
        "coc", "error_constant_empirical", "error_constant_theoretical", "usable_triples"
    )

    def __init__(self, coc: float, error_constant_empirical: float,
                 error_constant_theoretical: float, usable_triples: int) -> None:
        _setattr(self, "coc", coc)
        _setattr(self, "error_constant_empirical", error_constant_empirical)
        _setattr(self, "error_constant_theoretical", error_constant_theoretical)
        _setattr(self, "usable_triples", usable_triples)


def _errors(trace: Trace, root: float) -> list[float]:
    if not math.isfinite(root):
        raise ValueError("root must be finite")
    return [x - root for x in trace.iterates]


def _usable_triples(errors: list[float]) -> list[tuple[float, float, float]]:
    """Every window of three consecutive errors that all lie inside the COC window."""
    ok = [COC_ERROR_MIN < abs(e) < COC_ERROR_MAX for e in errors]
    return [
        (errors[i - 1], errors[i], errors[i + 1])
        for i in range(1, len(errors) - 1)
        if ok[i - 1] and ok[i] and ok[i + 1]
    ]


def coc(trace: Trace, root: float) -> float:
    """Computational order of convergence from the last clean iterate triple.

    Uses rho = ln|e_{n+1}/e_n| / ln|e_n/e_{n-1}| with e_n measured against
    ``root``. Returns NaN when no triple has all three errors inside the
    usable window (roundoff-dominated or diverged runs).
    """
    if len(trace.iterates) < 4:
        raise ValueError("need at least 4 iterates to estimate an order")
    return _coc_from(_usable_triples(_errors(trace, root)))


def _coc_from(triples: list[tuple[float, float, float]]) -> float:
    for e0, e1, e2 in reversed(triples):
        denom = math.log(abs(e1 / e0))
        if denom != 0.0:
            return math.log(abs(e2 / e1)) / denom
    return math.nan


def theoretical_error_constant(c2: float, c3: float, n_points: int) -> float:
    """Leading cubic error coefficient c2^2 - c3/(4 N^2) for an N-node run."""
    n_points = as_count(n_points, "n_points")
    return c2 * c2 - c3 / (4.0 * n_points * n_points)


def empirical_error_constant(trace: Trace, root: float) -> float:
    """Observed |e_{n+1}| / |e_n|^3 from the last usable error pair.

    Only pairs with e_n inside [1e-10, 1e-2] and e_{n+1} above roundoff
    qualify; returns NaN when the trace has no such pair.
    """
    if len(trace.iterates) < 2:
        raise ValueError("need at least 2 iterates")
    return _constant_from(_errors(trace, root))


def _constant_from(errors: list[float]) -> float:
    for i in reversed(range(len(errors) - 1)):
        e_n, e_next = abs(errors[i]), abs(errors[i + 1])
        if CONSTANT_ERROR_MIN < e_n <= CONSTANT_ERROR_MAX and e_next > CONSTANT_NEXT_MIN:
            return e_next / e_n**3
    return math.nan


def convergence_report(
    trace: Trace,
    root: float,
    c2: float | None = None,
    c3: float | None = None,
    n_points: int = 2,
) -> ConvergenceReport:
    """Bundle the diagnostics; the theoretical constant needs analytic c2, c3.

    The errors and their usable triples are computed once and shared. A
    trace too short for a diagnostic, or a non-finite root, gives NaN there.
    """
    theoretical = math.nan
    if c2 is not None and c3 is not None:
        theoretical = theoretical_error_constant(c2, c3, n_points)
    errors = _errors(trace, root) if math.isfinite(root) else []
    triples = _usable_triples(errors)
    return ConvergenceReport(_coc_from(triples) if len(errors) >= 4 else math.nan,
                             _constant_from(errors), theoretical, len(triples))


def format_significant(x: float) -> str:
    """Format with 15 significant digits, keeping trailing zeros: fixed point when
    the rounded |x| is in [1e-4, 1e15), with no trailing ".", else exponent form."""
    return "0.0" if x == 0.0 else f"{x:#.15g}".rstrip(".")


DIVERGED_LABEL = "Diverse"  # the label used by the reference comparison table
BREAKDOWN_LABEL = "Breakdown"


def classify(outcome: Outcome) -> str:
    """Map an outcome to its comparison-table cell text."""
    if outcome.status is Status.CONVERGED:
        return format_significant(outcome.root)
    if outcome.status is Status.DERIVATIVE_BREAKDOWN:
        return BREAKDOWN_LABEL
    return DIVERGED_LABEL
