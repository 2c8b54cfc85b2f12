"""Core domain types: problem definitions, stopping rules, traces, outcomes."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable


class Status(enum.Enum):
    """Terminal classification of an iteration run."""

    CONVERGED = "converged"
    DIVERGED = "diverged"
    MAX_ITER = "max-iterations"
    DERIVATIVE_BREAKDOWN = "derivative-breakdown"


class DerivativeBreakdownError(Exception):
    """Raised by a step when a required derivative is zero or non-finite."""


@dataclass(frozen=True)
class Problem:
    """A scalar equation f(x) = 0 with its analytic first derivative.

    ``df`` must be the hand-written derivative of ``f``: the evaluation-count
    bookkeeping assumes no hidden extra calls to ``f``.
    """

    name: str
    f: Callable[[float], float]
    df: Callable[[float], float]

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("problem name must be non-empty")


@dataclass(slots=True)
class EvalCounters:
    """Counts of f and f' evaluations, owned by a single run.

    ``n_diag`` counts f evaluations made only for the stop test: the final
    residual of a run, which no step reuses. It is not part of ``total``.
    """

    n_f: int = 0
    n_df: int = 0
    n_diag: int = 0

    @property
    def total(self) -> int:
        return self.n_f + self.n_df


@dataclass(frozen=True)
class StopCriteria:
    """Tolerances and caps governing one iteration run.

    Converged when |x_{n+1} - x_n| <= step_tol or |f(x_{n+1})| <= residual_tol;
    diverged when an iterate escapes ``escape_radius`` or goes non-finite.
    """

    step_tol: float = 1e-15
    residual_tol: float = 1e-15
    max_iter: int = 100
    escape_radius: float = 1e8

    def __post_init__(self) -> None:
        if not (self.step_tol > 0 and self.residual_tol > 0 and self.escape_radius > 0):
            raise ValueError("tolerances and escape_radius must be positive, not NaN")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(slots=True)
class Trace:
    """Ordered iterates with their residuals, as recorded during the run."""

    iterates: list[float] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    counters: EvalCounters = field(default_factory=EvalCounters)


@dataclass(frozen=True, slots=True)
class Outcome:
    """Result of a run: status, final estimate, and cost statistics."""

    status: Status
    root: float
    iterations: int
    nfe: int
    trace: Trace


MATH_ERRORS = (OverflowError, ValueError, ZeroDivisionError)


def evaluate_f(problem: Problem, x: float, counters: EvalCounters) -> float:
    """Evaluate f(x), counting the call. Non-finite results are returned as-is.

    math-module errors (overflow, domain) become NaN so callers can classify
    the point instead of crashing.
    """
    counters.n_f += 1
    try:
        return problem.f(x)
    except MATH_ERRORS:
        return math.nan


def evaluate_df(problem: Problem, x: float, counters: EvalCounters) -> float:
    """Evaluate f'(x), counting the call. Zero/non-finite values propagate."""
    counters.n_df += 1
    try:
        return problem.df(x)
    except MATH_ERRORS:
        return math.nan
