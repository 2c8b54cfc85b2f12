"""Convergence diagnostics: empirical order, asymptotic error constants."""

import math

from .core import _BREAKDOWN, _CONVERGED, FrozenRecord, Outcome, Trace, _new, as_count

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
        self._store(coc, error_constant_empirical, error_constant_theoretical, usable_triples)


_set_coc, _set_empirical, _set_theoretical, _set_triples = (
    ConvergenceReport.__dict__[name].__set__ for name in ConvergenceReport.__slots__)


def theoretical_error_constant(c2: float, c3: float, n_points: int) -> float:
    """Leading cubic error coefficient c2^2 - c3/(4 N^2) for an N-node run."""
    n_points = as_count(n_points, "n_points")
    return c2 * c2 - c3 / (4.0 * n_points * n_points)


def convergence_report(
    trace: Trace,
    root: float,
    c2: float | None = None,
    c3: float | None = None,
    n_points: int = 2,
) -> ConvergenceReport:
    """Bundle the diagnostics; the theoretical constant needs analytic c2, c3.

    All three diagnostics come from one backward pass over the trace. A
    trace too short for a diagnostic gives NaN there; a non-finite root puts
    every error outside both windows: NaN, NaN and 0 usable triples.
    """
    theoretical = math.nan
    if c2 is not None and c3 is not None:
        theoretical = theoretical_error_constant(c2, c3, n_points)
    rho = constant = e1 = e2 = math.nan  # e1, e2: |e| one and two iterates later
    triples = run = 0  # a run of L errors inside the COC window holds L - 2 triples
    for x in reversed(trace.iterates):
        e0 = abs(x - root)
        run = run + 1 if COC_ERROR_MIN < e0 < COC_ERROR_MAX else 0
        if run > 2:
            triples += 1
            if math.isnan(rho) and (denom := math.log(e1 / e0)) != 0.0:
                rho = math.log(e2 / e1) / denom
        if (math.isnan(constant) and CONSTANT_ERROR_MIN < e0 <= CONSTANT_ERROR_MAX
                and e1 > CONSTANT_NEXT_MIN):
            constant = e1 / e0**3
        e1, e2 = e0, e1
    report = _new(ConvergenceReport)  # filled through the slot setters, skipping __init__
    _set_coc(report, rho if len(trace.iterates) >= 4 else math.nan)
    _set_empirical(report, constant)
    _set_theoretical(report, theoretical)
    _set_triples(report, triples)
    return report


def format_significant(x: float) -> str:
    """Format with 15 significant digits, keeping trailing zeros: fixed point when
    the rounded |x| is in [1e-4, 1e15), with no trailing ".", else exponent form."""
    return "0.0" if x == 0.0 else f"{x:#.15g}".rstrip(".")


DIVERGED_LABEL = "Diverse"  # the label used by the reference comparison table
BREAKDOWN_LABEL = "Breakdown"


def classify(outcome: Outcome) -> str:
    """Map an outcome to its comparison-table cell text."""
    if outcome.status is _CONVERGED:
        return format_significant(outcome.root)
    if outcome.status is _BREAKDOWN:
        return BREAKDOWN_LABEL
    return DIVERGED_LABEL
