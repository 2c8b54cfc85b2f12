"""Iterative method steps and the shared iteration driver.

Newton, wf, fs and the wavelet method ("new") are one step: f'(x) becomes
the mean of f' over n nodes, x_next = x - n*f(x) / sum f'(node). With
d = f(x)/f'(x) the nodes are x + (-d)*c for the fractions c below, plus the
already computed f'(x) for rules with the left endpoint:

    newton  ()      + f'(x)      fs (as printed)   (2.0,)
    wf      (1.0,)  + f'(x)      fs (standard)     (0.5,)
    new     ((k - 0.5)/P for k = 1..P)

This is bit-safe: x + (-d)*c rounds exactly as x - d*c, and for nonzero f'(x)
f'(x) + (0.0 + v) rounds exactly as f'(x) + v; Newton, with no nodes, rounds
as x - f/f'(x). Oz and klw stay written out. Each step makes a fixed number
of f/f' evaluations, and the driver reuses the residual evaluation as the
next f(x), so NFE is step cost times iterations (0 iterations and NFE 1 when
x0 is an exact root). Rounding (k - 0.5)/P for P not a power of two leaves
new[P] an e_n^2 term of relative size ~1e-17, which outweighs its e_n^3 term
for e_n below ~1e-17, as a run at 120 digits shows.

``iterate`` runs every method in one loop with the step inlined by the
family spec of ``MethodId.family``: averaging (node fractions and an
endpoint flag), oz or klw, with the loop's constants computed once per
``MethodId`` by ``_spec``: the node count, the step's float weight and a
one-node rule's node. All three families share the prefix that counts,
evaluates and checks f'(x) and computes d once. Two forks pay for themselves
there: Newton skips the empty node sum, and a one-node rule evaluates its
node inline; its sum then lacks node_sum's leading 0.0, which only changes
the sign of a zero sum, a breakdown either way.

Each public ``*_step`` function is one iteration of this loop, so every step
formula is written once: ``iterate(method, problem, x, StopCriteria(max_iter=1))``,
with the run's counts added to the caller's ``EvalCounters``, a breakdown raised as
``DerivativeBreakdownError`` and the root returned. So from an exact root it returns
x for 1 f; a step that does not break down counts its residual f(x_1) in ``n_diag``;
and a non-finite x is a ``ValueError``. Its ``MethodId`` comes from a cache: building one costs more than a step.

Failures are decided in one place, and one rule, ``core.NAN_ERRORS`` (the
math-module errors and the TypeError of a complex value), says which errors
read as NaN. The loop calls f and f' directly, counts before each call and
raises: a zero or non-finite divisor is a ``DerivativeBreakdownError``, and an
error in ``NAN_ERRORS`` propagates; ``iterate`` classifies them all as
``derivative-breakdown``. ``quadrature.node_sum`` reads such an error at a node
as NaN, so every node is called and the count is exact, and ``iterate`` reads it
at f(x0) and at the residuals as NaN, which means "go on". It keeps its counts
in locals, each incremented before its call: reused residuals go to ``n_f``,
the one residual that no step reuses to ``n_diag``. It builds its result once, after the loop,
through ``core._outcome``, which skips the record constructors, the largest fixed cost of a
short run (its docstring says how). It reads the ``Status``
members only as core's module constants (``_CONVERGED``, ...), never as
``Status`` attributes: on Python 3.10 and 3.11 such a read costs over 100 ns,
ten times a global's, and every run would make three.
"""

import enum
from functools import lru_cache
from math import isfinite, nan

from .core import (
    _BREAKDOWN,
    _CONVERGED,
    _DIVERGED,
    _MAX_ITER,
    NAN_ERRORS,
    DerivativeBreakdownError,
    EvalCounters,
    FrozenRecord,
    Outcome,
    Problem,
    StopCriteria,
    _outcome,
    as_count,
)
from .quadrature import midpoint_fractions, node_sum


class FsVariant(enum.Enum):
    """Inner-point convention for the midpoint-family step.

    AS_PRINTED uses x - 2f/f' as the inner point (as published in the
    comparison we reproduce); STANDARD_MIDPOINT uses the usual x - f/(2f').
    """

    AS_PRINTED = "as-printed"
    STANDARD_MIDPOINT = "standard-midpoint"


_AVERAGING, _OZ, _KLW = "averaging", "oz", "klw"

_FS_FRACTIONS = {FsVariant.AS_PRINTED: (2.0,), FsVariant.STANDARD_MIDPOINT: (0.5,)}


def _spec(family: str, fractions: tuple = (), endpoint: bool = False) -> tuple:
    """The family spec ``(family, fractions, endpoint, n, weight, node)``: the
    node count, the float weight n + endpoint of the averaging step (a float
    ``weight * fx`` has the int product's bits and specialises on 3.11) and the
    one node of a one-node rule, else None; all of ``iterate``'s loop constants."""
    n = len(fractions)
    return family, fractions, endpoint, n, float(n + endpoint), fractions[0] if n == 1 else None


# tag -> (haar_points, fs_variant) -> (family spec, label)
_RULES = {
    "newton": lambda p, v: (_spec(_AVERAGING, (), True), "newton"),
    "wf": lambda p, v: (_spec(_AVERAGING, (1.0,), True), "wf"),
    "fs": lambda p, v: (_spec(_AVERAGING, _FS_FRACTIONS[v]),
                        "fs" if v is FsVariant.AS_PRINTED else "fs(std)"),
    "oz": lambda p, v: (_spec(_OZ), "oz"),
    "klw": lambda p, v: (_spec(_KLW), "klw"),
    "new": lambda p, v: (_spec(_AVERAGING, midpoint_fractions(p)), "new" if p == 2 else f"new[P={p}]"),
}

METHOD_TAGS = tuple(_RULES)


class MethodId(FrozenRecord):
    """Identifies a method plus its per-method knobs.

    ``haar_points`` only matters for tag "new"; ``fs_variant`` only for "fs".
    ``fs_variant`` is an ``FsVariant`` or its string value; anything else is a
    ``ValueError``. ``family`` and ``label`` come from the method table and
    ``step_cost`` from the family; they are left out of the repr and of equality.
    """

    _fields = ("tag", "haar_points", "fs_variant")
    __slots__ = _fields + ("family", "step_cost", "label")

    def __init__(self, tag: str, haar_points: int = 2,
                 fs_variant: FsVariant | str = FsVariant.AS_PRINTED) -> None:
        if tag not in METHOD_TAGS:
            raise ValueError(f"unknown method tag {tag!r}; expected one of {METHOD_TAGS}")
        points, variant = as_count(haar_points, "haar_points"), FsVariant(fs_variant)
        family, label = _RULES[tag](points, variant)
        # f(x) and f'(x), then f' at each node, or oz's one f' or klw's one f
        step_cost = 2 + family[3] if family[0] is _AVERAGING else 3
        self._store(tag, points, variant, family, step_cost, label)


# every way a step can fail; caught only by ``iterate``
_STEP_ERRORS = (DerivativeBreakdownError, *NAN_ERRORS)

# the public steps' methods: building a ``MethodId`` costs more than the step it names
_method = lru_cache(maxsize=128)(MethodId)
_ONE_STEP = StopCriteria(max_iter=1)


def _one_step(method: MethodId, problem: Problem, x: float, counters: EvalCounters) -> float:
    """A public step: one ``iterate`` run from x, as the module docstring says."""
    outcome = iterate(method, problem, x, _ONE_STEP)
    run = outcome.trace.counters
    counters.n_f += run.n_f
    counters.n_df += run.n_df
    counters.n_diag += run.n_diag
    if outcome.status is _BREAKDOWN:
        raise DerivativeBreakdownError
    return outcome.root


def newton_step(problem: Problem, x: float, counters: EvalCounters) -> float:
    """Classic quadratic step x - f/f', one ``iterate`` step (see the module docstring).
    Cost: 1 f, 1 f', and the residual f(x_1) in ``n_diag``."""
    return _one_step(_method("newton"), problem, x, counters)


def wf_step(problem: Problem, x: float, counters: EvalCounters) -> float:
    """Trapezoid-average third-order step, one ``iterate`` step (see the module docstring).
    Cost: 1 f, 2 f', and the residual f(x_1) in ``n_diag``."""
    return _one_step(_method("wf"), problem, x, counters)


def fs_step(problem: Problem, x: float, counters: EvalCounters,
            variant: FsVariant | str = FsVariant.AS_PRINTED) -> float:
    """Midpoint-family step in either inner-point convention, one ``iterate`` step (see the
    module docstring). Cost: 1 f, 2 f', and the residual f(x_1) in ``n_diag``.
    ``variant`` is an ``FsVariant`` or its value; anything else is a ``ValueError``."""
    return _one_step(_method("fs", 2, FsVariant(variant)), problem, x, counters)


def oz_step(problem: Problem, x: float, counters: EvalCounters) -> float:
    """Arithmetic-mean-of-inverses third-order step, one ``iterate`` step (see the module
    docstring). Cost: 1 f, 2 f', and the residual f(x_1) in ``n_diag``."""
    return _one_step(_method("oz"), problem, x, counters)


def klw_step(problem: Problem, x: float, counters: EvalCounters) -> float:
    """Difference-quotient third-order step, one ``iterate`` step (see the module docstring).
    Cost: 2 f, 1 f', and the residual f(x_1) in ``n_diag``."""
    return _one_step(_method("klw"), problem, x, counters)


def haar_newton_step(problem: Problem, x: float, counters: EvalCounters,
                     points: int = 2) -> float:
    """Wavelet-quadrature modified Newton step with P nodes, one ``iterate`` step (see the
    module docstring). Cost: 1 f, 1+P f', and the residual f(x_1) in ``n_diag``."""
    # a bad P is a "node count" error, before any evaluation
    return _one_step(_method("new", as_count(points, "node count")), problem, x, counters)


def iterate(method: MethodId, problem: Problem, x0: float,
            criteria: StopCriteria = StopCriteria()) -> Outcome:
    """Run a method from x0 until a stopping condition triggers.

    Never raises for numerical trouble: a failed step (zero or non-finite
    derivative, math-module error, complex value) is a breakdown, and every
    outcome is reported through its status so benchmark grids always complete.
    An exact root at x0 is converged after 0 iterations and 1 evaluation.
    The final residual, used only for the stop test, is recorded in the
    trace and counted in ``n_diag``, outside the evaluation count.
    """
    if not isfinite(x0):
        raise ValueError("x0 must be finite")

    f, df = problem.f, problem.df
    family, fractions, endpoint, n, weight, c = method.family
    step_tol, residual_tol = criteria.step_tol, criteria.residual_tol
    escape_radius = criteria.escape_radius
    n_f, n_df = 1, 0
    try:
        fx = f(x0)
    except NAN_ERRORS:
        fx = nan
    iterates, residuals = [x0], [fx]
    x = x0
    if fx == 0.0:  # x0 is an exact root: no step to take
        status, max_iter = _CONVERGED, 0
    else:
        status, max_iter = _MAX_ITER, criteria.max_iter

    for _ in range(max_iter):
        try:
            # each count precedes its call
            n_df += 1
            dfx = df(x)
            if dfx == 0.0 or not isfinite(dfx):
                raise DerivativeBreakdownError
            d = fx / dfx
            if family is _AVERAGING:
                if not n:  # Newton: f'(x) + 0.0 is f'(x)
                    x_new = x - d
                else:
                    n_df += n
                    if n == 1:  # an error in NAN_ERRORS here is a breakdown below
                        total = df(x + -d * c)
                    else:
                        total = node_sum(df, x, -d, fractions)
                    if endpoint:
                        total = dfx + total
                    if total == 0.0 or not isfinite(total):
                        raise DerivativeBreakdownError
                    x_new = x - (weight * fx) / total
            elif family is _OZ:
                n_df += 1
                dz = df(x - d)
                if dz == 0.0 or not isfinite(dz):
                    raise DerivativeBreakdownError
                x_new = x - (fx / 2.0) * (1.0 / dfx + 1.0 / dz)
            else:  # klw
                n_f += 1
                shifted = f(x + d)
                if not isfinite(shifted):
                    raise DerivativeBreakdownError
                x_new = x - (shifted - fx) / dfx
            # a complex x_new, from a complex f value, raises TypeError here
            escaped = not isfinite(x_new) or abs(x_new) > escape_radius
        except _STEP_ERRORS:
            status = _BREAKDOWN
            break
        try:
            residual = f(x_new)
        except NAN_ERRORS:
            residual = nan
        iterates.append(x_new)
        residuals.append(residual)

        step_size, x = abs(x_new - x), x_new
        if escaped:
            status = _DIVERGED
            break
        if step_size <= step_tol or abs(residual) <= residual_tol:
            status = _CONVERGED
            break
        fx = residual

    # every residual but an unused final one became the next step's f(x_n)
    steps = len(iterates) - 1
    n_diag = 1 if steps and status is not _BREAKDOWN else 0
    n_f += steps - n_diag
    return _outcome(status, x, steps, iterates, residuals, n_f, n_df, n_diag)
