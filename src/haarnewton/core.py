"""Core domain types: problem definitions, stopping rules, traces, outcomes."""

import enum
import math
import operator
from collections.abc import Callable


class Status(enum.Enum):
    """Terminal classification of an iteration run."""

    CONVERGED = "converged"
    DIVERGED = "diverged"
    MAX_ITER = "max-iterations"
    DERIVATIVE_BREAKDOWN = "derivative-breakdown"


# the members as module constants: on Python 3.10 and 3.11 ``EnumType.__getattr__``
# keeps a read like ``Status.CONVERGED`` unspecialised, over 100 ns against ~10 for a global
_CONVERGED, _DIVERGED, _MAX_ITER, _BREAKDOWN = (
    Status.CONVERGED, Status.DIVERGED, Status.MAX_ITER, Status.DERIVATIVE_BREAKDOWN)


class DerivativeBreakdownError(Exception):
    """Raised by a step when a required derivative is zero or non-finite."""


def as_count(value: object, name: str) -> int:
    """``value`` as an int >= 1; anything else is a ``ValueError`` naming ``name``."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None
    if count < 1:
        raise ValueError(f"{name} must be >= 1")
    return count


class Record:
    """Slotted record base: ``Name(field=value, ...)`` repr and equality over
    ``_fields``, the constructor's parameters in order. Mutable and unhashable;
    ``__init__`` stores the slots directly."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()


class FrozenRecord(Record):
    """Immutable ``Record``, hashable when its fields are: ``__init__`` stores through
    ``_store``, and the result builders (``_outcome``, ``analysis.convergence_report``) skip
    it with bound slot setters; assignment and deletion raise ``AttributeError``."""

    __slots__ = ()

    def _store(self, *values: object) -> None:
        """Store ``values`` in ``__slots__`` order: every constructor's one way in."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through __init__
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Problem(FrozenRecord):
    """A scalar equation f(x) = 0 with its analytic first derivative.

    ``df`` must be the hand-written derivative of ``f``: the evaluation-count
    bookkeeping assumes no hidden extra calls to ``f``.
    """

    __slots__ = _fields = ("name", "f", "df")

    def __init__(self, name: str, f: Callable[[float], float],
                 df: Callable[[float], float]) -> None:
        if not name:
            raise ValueError("problem name must be non-empty")
        self._store(name, f, df)


class EvalCounters(Record):
    """Counts of f and f' evaluations, owned by a single run.

    ``n_diag`` counts f evaluations made only for the stop test: the final
    residual of a run, which no step reuses. It is not part of ``total``.
    """

    __slots__ = _fields = ("n_f", "n_df", "n_diag")

    def __init__(self, n_f: int = 0, n_df: int = 0, n_diag: int = 0) -> None:
        self.n_f = n_f
        self.n_df = n_df
        self.n_diag = n_diag

    @property
    def total(self) -> int:
        return self.n_f + self.n_df


class StopCriteria(FrozenRecord):
    """Tolerances and caps governing one iteration run.

    Converged when |x_{n+1} - x_n| <= step_tol or |f(x_{n+1})| <= residual_tol;
    diverged when an iterate escapes ``escape_radius`` or goes non-finite. The
    tolerances are finite and > 0; ``escape_radius`` is > 0, inf for no radius.
    """

    __slots__ = _fields = ("step_tol", "residual_tol", "max_iter", "escape_radius")

    def __init__(self, step_tol: float = 1e-15, residual_tol: float = 1e-15,
                 max_iter: int = 100, escape_radius: float = 1e8) -> None:
        for name, tol in (("step_tol", step_tol), ("residual_tol", residual_tol)):
            if not 0 < tol < math.inf:
                raise ValueError(f"{name} must be a finite number > 0, not {tol!r}")
        if not escape_radius > 0:
            raise ValueError(f"escape_radius must be a number > 0, not {escape_radius!r}")
        self._store(step_tol, residual_tol, as_count(max_iter, "max_iter"), escape_radius)


class Trace(Record):
    """Ordered iterates with their residuals, as recorded during the run."""

    __slots__ = _fields = ("iterates", "residuals", "counters")

    def __init__(self, iterates: list[float] | None = None,
                 residuals: list[float] | None = None,
                 counters: EvalCounters | None = None) -> None:
        self.iterates = [] if iterates is None else iterates
        self.residuals = [] if residuals is None else residuals
        self.counters = EvalCounters() if counters is None else counters


class Outcome(FrozenRecord):
    """Result of a run: status, final estimate, and cost statistics. Immutable but
    unhashable, as its ``Trace`` is mutable. ``trace`` is built on its first read from what
    ``_outcome`` kept raw; racing first reads may get equal but distinct traces."""

    __slots__ = ("status", "root", "iterations", "nfe", "_trace", "_raw")
    _fields = ("status", "root", "iterations", "nfe", "trace")

    def __init__(self, status: Status, root: float, iterations: int, nfe: int,
                 trace: Trace) -> None:
        self._store(status, root, iterations, nfe, trace, None)

    @property
    def trace(self) -> Trace:
        raw = self._raw
        if raw is None:
            return self._trace
        iterates, residuals, n_f, n_df, n_diag = raw
        counters = _new(EvalCounters)
        counters.n_f = n_f
        counters.n_df = n_df
        counters.n_diag = n_diag
        trace = _new(Trace)
        trace.iterates = iterates
        trace.residuals = residuals
        trace.counters = counters
        _set_trace(self, trace)  # before _raw goes: a racing reader finds one of them
        _set_raw(self, None)
        return trace


_set_status, _set_root, _set_iterations, _set_nfe, _set_trace, _set_raw = (
    Outcome.__dict__[name].__set__ for name in Outcome.__slots__)

_new = object.__new__


def _outcome(status: Status, root: float, iterations: int, iterates: list[float],
             residuals: list[float], n_f: int, n_df: int, n_diag: int) -> Outcome:
    """``Outcome(status, root, iterations, n_f + n_df, Trace(iterates, residuals,
    EvalCounters(n_f, n_df, n_diag)))`` as one object and no ``__init__``: ``iterate``'s
    return path. The rest stays raw for ``Outcome.trace``: an unread trace is never built."""
    outcome = _new(Outcome)
    _set_status(outcome, status)
    _set_root(outcome, root)
    _set_iterations(outcome, iterations)
    _set_nfe(outcome, n_f + n_df)
    _set_raw(outcome, (iterates, residuals, n_f, n_df, n_diag))
    return outcome


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
