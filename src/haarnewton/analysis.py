"""Convergence diagnostics: empirical order, asymptotic error constants."""

import math

from .core import _BREAKDOWN, _CONVERGED, FrozenRecord, Outcome, Trace, _builder

# Windows keeping the diagnostics in the asymptotic regime: third-order
# methods hit roundoff within a handful of steps, so pre-asymptotic and
# roundoff-dominated errors must be excluded or they dominate the estimate.
COC_ERROR_MIN = 1e-13
COC_ERROR_MAX = 1.0
CONSTANT_ERROR_MIN = 1e-10
CONSTANT_ERROR_MAX = 1e-2
CONSTANT_NEXT_MIN = 1e-16


class ConvergenceReport(FrozenRecord):
    __slots__ = _fields = ("coc", "error_constant_empirical", "usable_triples")

    def __init__(self, coc: float, error_constant_empirical: float, usable_triples: int) -> None:
        self._store(coc, error_constant_empirical, usable_triples)


_ReportBuilder = _builder(ConvergenceReport)


def convergence_report(trace: Trace, root: float, n_points: int = 2, *,
                       order: int = 3) -> ConvergenceReport:
    """Order, empirical error constant e_{n+1}/e_n^order and usable error triples of a
    run, from one backward pass over the trace. A trace too short for a diagnostic
    gives NaN there; a non-finite root gives NaN, NaN and 0. ``n_points`` is unused;
    it goes once the benchmark harness no longer passes it."""
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
            constant = e1 / e0**order
        e1, e2 = e0, e1
    report = _ReportBuilder()  # filled with plain slot stores, skipping __init__
    report.coc = rho if len(trace.iterates) >= 4 else math.nan
    report.error_constant_empirical = constant
    report.usable_triples = triples
    report.__class__ = ConvergenceReport
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
