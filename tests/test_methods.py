import copy
import inspect
import math
import pickle
import random
import struct
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from haarnewton.core import (
    NAN_ERRORS,
    DerivativeBreakdownError,
    EvalCounters,
    Outcome,
    Problem,
    Status,
    StopCriteria,
    Trace,
    evaluate_df,
    evaluate_f,
)
from haarnewton.analysis import ConvergenceReport, classify, convergence_report
from haarnewton.bench import SuiteEntry, builtin_suite, run_comparison, suite_entry
from haarnewton.methods import (
    METHOD_TAGS,
    FsVariant,
    MethodId,
    fs_step,
    haar_newton_step,
    iterate,
    klw_step,
    newton_step,
    oz_step,
    wf_step,
)

from helpers import forbid_result_constructors
from suite_formulas import FORMULAS

QUADRATIC = Problem("x2-4", lambda x: x * x - 4.0, lambda x: 2.0 * x)
LINE = Problem("line", lambda x: x, lambda x: 1.0)
FLAT = Problem("flat", lambda x: 1.0, lambda x: 0.0)


@pytest.mark.parametrize("points", [2.5, 2.0, math.nan, "3", 0, [4]])
def test_haar_step_rejects_non_integral_points(points):
    counters = EvalCounters()
    message = "must be >= 1" if points == 0 else "must be an integer"
    with pytest.raises(ValueError, match=f"node count {message}"):
        haar_newton_step(QUADRATIC, 3.0, counters, points=points)
    assert (counters.n_f, counters.n_df) == (0, 0)


@settings(deadline=None)
@given(
    j=st.integers(min_value=-20, max_value=20),
    tag=st.sampled_from(["newton", "wf", "fs", "oz", "klw", "new"]),
)
def test_power_of_two_scaling_leaves_iterates_bit_identical(j, tag):
    scale = 2.0**j
    base = suite_entry("f6").problem
    scaled = Problem("f6-scaled", lambda x: scale * base.f(x), lambda x: scale * base.df(x))
    method = MethodId(tag)
    # stop on step size only: the residual tolerance is scale-dependent
    criteria = StopCriteria(step_tol=1e-15, residual_tol=1e-300)
    ref = iterate(method, base, 2.0, criteria)
    got = iterate(method, scaled, 2.0, criteria)
    assert got.trace.iterates == ref.trace.iterates


@pytest.mark.parametrize("tag", METHOD_TAGS)
def test_iterate_exact_root_at_start_is_converged(tag):
    # f'(0) = 0 here, so taking a step would break down
    cube = Problem("x3", lambda x: x**3, lambda x: 3.0 * x * x)
    outcome = iterate(MethodId(tag), cube, 0.0)
    counters = outcome.trace.counters
    assert (outcome.status, outcome.root, outcome.iterations, outcome.nfe) == (
        Status.CONVERGED, 0.0, 0, 1)
    assert (counters.n_f, counters.n_df, counters.n_diag) == (1, 0, 0)
    assert (outcome.trace.iterates, outcome.trace.residuals) == ([0.0], [0.0])


EXIT_PATHS = {
    "exact-root-at-x0": (LINE, 0.0, StopCriteria(), Status.CONVERGED),
    "converged": (LINE, 1.0, StopCriteria(), Status.CONVERGED),
    "diverged": (suite_entry("f3").problem, 2.0, StopCriteria(), Status.DIVERGED),  # atan
    "max-iterations": (QUADRATIC, 10.0, StopCriteria(max_iter=1), Status.MAX_ITER),
    "breakdown": (FLAT, 0.3, StopCriteria(), Status.DERIVATIVE_BREAKDOWN),
    # an infinite f' is a breakdown too, not a zero Newton step that has converged
    "breakdown-on-inf-derivative": (Problem("inf-slope", lambda x: 1.0, lambda x: math.inf), 0.3,
                                    StopCriteria(), Status.DERIVATIVE_BREAKDOWN),
    # one Newton step that lands exactly on a bound: |x| equal to escape_radius has not
    # escaped, and a step or residual equal to its tolerance has converged
    "landing-on-escape-radius": (Problem("x-2", lambda x: x - 2.0, lambda x: 1.0), 5.0,
                                 StopCriteria(escape_radius=2.0), Status.CONVERGED),
    "step-on-step-tol": (Problem("one", lambda x: 1.0, lambda x: 2.0), 3.0,
                         StopCriteria(step_tol=0.5), Status.CONVERGED),
    "residual-on-residual-tol": (Problem("half", lambda x: 0.5, lambda x: 1.0), 3.0,
                                 StopCriteria(residual_tol=0.5), Status.CONVERGED),
}


@pytest.mark.parametrize("path", EXIT_PATHS)
def test_iterate_returns_the_status_members_themselves(path):
    problem, x0, criteria, status = EXIT_PATHS[path]
    assert iterate(MethodId("newton"), problem, x0, criteria).status is status


@pytest.mark.parametrize("fn", [iterate, classify], ids=lambda fn: fn.__name__)
def test_hot_paths_read_no_status_attribute(fn):
    # a Status.X read cost 117 ns against 8 ns for a global on 3.11.7 (143 vs 25 on 3.10.13)
    assert "Status" not in fn.__code__.co_names


@pytest.mark.parametrize("path", EXIT_PATHS)
def test_iterate_result_is_the_one_the_public_constructors_build(path, monkeypatch):
    problem, x0, criteria, _ = EXIT_PATHS[path]
    forbid_result_constructors(monkeypatch)  # only the builder can fill these records
    outcome = iterate(MethodId("newton"), problem, x0, criteria)
    trace = outcome.trace  # the first read builds the Trace, also without a constructor
    monkeypatch.undo()
    counters = trace.counters
    built = Outcome(outcome.status, outcome.root, outcome.iterations,
                    counters.n_f + counters.n_df,
                    Trace(list(trace.iterates), list(trace.residuals),
                          EvalCounters(counters.n_f, counters.n_df, counters.n_diag)))
    assert outcome == built and repr(outcome) == repr(built)
    assert (type(outcome), type(trace), type(counters)) == (Outcome, Trace, EvalCounters)
    for copied in (copy.deepcopy(outcome), pickle.loads(pickle.dumps(outcome))):
        assert copied == outcome and repr(copied) == repr(outcome)
        assert copied.status is outcome.status

    # each run gets its own lists and counters, and they stay mutable
    again = iterate(MethodId("newton"), problem, x0, criteria)
    trace.iterates.append(9.0)
    trace.residuals.append(9.0)
    counters.n_f += 1
    counters.n_diag += 1
    assert again == built and repr(again) == repr(built)


def _built_results(path):
    """``iterate``'s result on the exit path, or a converged run's report, with its class."""
    if path == "convergence-report":
        f4 = suite_entry("f4")
        outcome = iterate(MethodId("new"), f4.problem, f4.x0)
        return convergence_report(outcome.trace, outcome.root, c2=0.5, c3=0.1), ConvergenceReport
    problem, x0, criteria, _ = EXIT_PATHS[path]
    return iterate(MethodId("newton"), problem, x0, criteria), Outcome


@pytest.mark.parametrize("path", [*EXIT_PATHS, "convergence-report"])
def test_built_results_are_the_public_frozen_records(path):
    # the builders fill a private subclass with plain stores; what they return must be
    # the public class again, with its refusal of every assignment and deletion
    result, record = _built_results(path)

    def assert_frozen():
        assert type(result) is record
        for name in {*record._fields, *record.__slots__}:
            with pytest.raises(AttributeError):
                setattr(result, name, None)
            with pytest.raises(AttributeError):
                delattr(result, name)

    assert_frozen()
    if record is Outcome:
        result.trace  # the first read stores the trace through its slot setter
        assert_frozen()


@pytest.mark.parametrize("path", EXIT_PATHS)
def test_iterate_builds_the_trace_once_on_its_first_read(path):
    problem, x0, criteria, _ = EXIT_PATHS[path]

    def run():
        return iterate(MethodId("newton"), problem, x0, criteria)

    read = run()
    assert not hasattr(read, "_trace")  # no Trace before the first read
    trace = read.trace
    assert type(trace) is Trace and read.trace is trace and read.trace.counters is trace.counters

    # an outcome never read equals, reprs, copies and pickles like one that was
    assert run() == read and read == run() and repr(run()) == repr(read)
    for copied in (copy.deepcopy(run()), pickle.loads(pickle.dumps(run()))):
        assert copied == read and repr(copied) == repr(read)
    with pytest.raises(TypeError, match="unhashable type: 'Trace'"):
        hash(run())

    # the lists and counters handed out are the outcome's own, and stay so
    iterates, n_f, n_diag = list(trace.iterates), trace.counters.n_f, trace.counters.n_diag
    trace.iterates.append(9.0)
    trace.residuals.append(9.0)
    trace.counters.n_f += 1
    trace.counters.n_diag += 1
    assert read.trace.iterates == [*iterates, 9.0] and read.trace.residuals[-1] == 9.0
    assert (read.trace.counters.n_f, read.trace.counters.n_diag) == (n_f + 1, n_diag + 1)
    assert read != run()

    for outcome in (read, run()):
        with pytest.raises(AttributeError):
            outcome.trace = trace
        with pytest.raises(AttributeError):
            del outcome.trace
    assert read.trace is trace


@pytest.mark.parametrize("value", [(), None, "trace"], ids=repr)
def test_outcome_returns_the_trace_it_was_given(value):
    outcome = Outcome(Status.CONVERGED, 0.0, 0, 1, value)
    assert outcome.trace is value and outcome.trace is value  # stored, never rebuilt


def test_iterate_builds_its_result_without_the_record_constructors():
    # the three __init__ calls were the largest fixed cost of a short run
    assert not {"Outcome", "Trace", "EvalCounters"} & set(iterate.__code__.co_names)


def test_iterate_has_one_mode():
    # a public step is a call of iterate with max_iter=1, not a mode of its own
    assert list(inspect.signature(iterate).parameters) == ["method", "problem", "x0", "criteria"]


# math.exp of the complex x**0.5 raises TypeError left of 0: at x0 = -1 for f and f',
# and from 14.75 at the first residual of fs (as printed)
EXP_SQRT = Problem("exp-sqrt", lambda x: math.exp(x**0.5) - 2.0,
                   lambda x: 0.5 * x**-0.5 * math.exp(x**0.5))
COMPLEX_CASES = [
    # f and f' are complex left of 0
    (Problem("x^1.5-2", lambda x: x**1.5 - 2.0, lambda x: 1.5 * x**0.5), -1.0),
    # real at x0; the first Newton step lands at -3.6, where both go complex
    (Problem("sqrt-0.1", lambda x: x**0.5 - 0.1, lambda x: 0.5 * x**-0.5), 4.0),
    # f complex, f' real: the step itself returns a complex iterate
    (Problem("sqrt-abs", lambda x: x**0.5 - 0.1, lambda x: 0.5 / abs(x) ** 0.5), -1.0),
    # math.exp of the complex x**0.5 raises TypeError: f is NaN at x0, and f' breaks down
    (EXP_SQRT, -1.0),
]


@pytest.mark.parametrize("tag", METHOD_TAGS)
@pytest.mark.parametrize("problem, x0", COMPLEX_CASES, ids=[p.name for p, _ in COMPLEX_CASES])
def test_complex_values_are_a_breakdown_not_an_exception(tag, problem, x0):
    counting, calls = _counting(problem)
    outcome = iterate(MethodId(tag), counting, x0)
    c = outcome.trace.counters
    assert outcome.status is Status.DERIVATIVE_BREAKDOWN
    assert all(isinstance(x, float) for x in outcome.trace.iterates)
    assert (calls["f"], calls["df"]) == (c.n_f + c.n_diag, c.n_df)


PUBLIC_STEPS = [newton_step, wf_step, fs_step, oz_step, klw_step, haar_newton_step]


# a Python complex and an mpmath.mpc result; ``isinstance(x, complex)`` misses the mpc
@pytest.mark.parametrize("step", PUBLIC_STEPS, ids=lambda s: s.__name__)
def test_public_step_with_complex_result_raises_breakdown(step):
    import mpmath

    # f an mpc, f' a real mpf: the step's result is an mpc, not a ``complex``
    mpc = Problem("mpc", lambda x: mpmath.mpc(x, 1) - 2, lambda x: mpmath.mpf(1))
    for problem, x0 in (COMPLEX_CASES[2], (mpc, mpmath.mpf(3))):
        with pytest.raises(DerivativeBreakdownError):
            step(problem, x0, EvalCounters())


# klw is left out: its shifted f(x + f/f') is NaN too, which is a breakdown; an f that
# raises TypeError, here on the complex (-1)**0.5, has the value NaN as iterate reads it
@pytest.mark.parametrize(
    "step", [s for s in PUBLIC_STEPS if s is not klw_step], ids=lambda s: s.__name__
)
def test_public_step_returns_a_real_nan_result(step):
    for f in (lambda x: math.nan, lambda x: math.exp(x**0.5)):
        assert math.isnan(step(Problem("nan", f, lambda x: 1.0), -1.0, EvalCounters()))


def test_iterate_rejects_non_finite_start():
    for x0 in (math.inf, math.nan):
        with pytest.raises(ValueError):
            iterate(MethodId("newton"), QUADRATIC, x0)
        for step in PUBLIC_STEPS:  # before any evaluation
            counters = EvalCounters()
            with pytest.raises(ValueError, match="x0 must be finite"):
                step(QUADRATIC, x0, counters)
            assert counters == EvalCounters(), (step.__name__, x0)


@pytest.mark.parametrize(
    "method, expected_cost",
    [
        (MethodId("newton"), 2),
        (MethodId("wf"), 3),
        (MethodId("fs"), 3),
        (MethodId("oz"), 3),
        (MethodId("klw"), 3),
        (MethodId("new", haar_points=2), 4),
        (MethodId("new", haar_points=5), 7),
    ],
)
def test_nfe_is_step_cost_times_iterations(method, expected_cost):
    assert method.step_cost == expected_cost
    entry = suite_entry("f6")
    outcome = iterate(method, entry.problem, entry.x0)
    assert outcome.nfe == expected_cost * outcome.iterations
    assert len(outcome.trace.iterates) == len(outcome.trace.residuals)
    assert outcome.iterations == len(outcome.trace.iterates) - 1


def test_method_id_validation():
    with pytest.raises(ValueError):
        MethodId("brent")
    with pytest.raises(ValueError, match="^haar_points must be >= 1$"):
        MethodId("new", haar_points=0)


@pytest.mark.parametrize("value", [2.5, 2.0, math.nan, "3"])
@pytest.mark.parametrize("tag", ["new", "wf"])
def test_method_id_rejects_non_integral_points(tag, value):
    with pytest.raises(ValueError, match="haar_points must be an integer"):
        MethodId(tag, haar_points=value)


def test_fs_variant_is_the_member_or_its_value():
    for variant in FsVariant:
        assert MethodId("fs", fs_variant=variant.value) == MethodId("fs", fs_variant=variant)
        assert MethodId("wf", fs_variant=variant.value).fs_variant is variant
        assert fs_step(QUADRATIC, 3.0, EvalCounters(), variant.value) == fs_step(
            QUADRATIC, 3.0, EvalCounters(), variant)
    assert MethodId("fs", fs_variant="standard-midpoint").label == "fs(std)"


@pytest.mark.parametrize("tag", ["fs", "wf"])
def test_method_id_rejects_unknown_fs_variant(tag):
    with pytest.raises(ValueError):
        MethodId(tag, fs_variant="bogus")


def test_fs_step_rejects_unknown_variant_before_evaluating():
    counters = EvalCounters()
    with pytest.raises(ValueError):
        fs_step(QUADRATIC, 3.0, counters, "bogus")
    assert (counters.n_f, counters.n_df) == (0, 0)


# Reference: each step formula written out longhand, one function per
# method, evaluating in the same order as the library. The public steps must
# match these bit for bit, including the evaluation counts, away from exact roots.


def _ref_require(value):
    if value == 0.0 or not math.isfinite(value):
        raise DerivativeBreakdownError
    return value


def ref_newton(problem, x, counters):
    fx = evaluate_f(problem, x, counters)
    dfx = _ref_require(evaluate_df(problem, x, counters))
    return x - fx / dfx


def ref_wf(problem, x, counters):
    fx = evaluate_f(problem, x, counters)
    dfx = _ref_require(evaluate_df(problem, x, counters))
    z = x - fx / dfx
    denom = _ref_require(evaluate_df(problem, z, counters) + dfx)
    return x - 2.0 * fx / denom


def ref_fs(problem, x, counters, variant=FsVariant.AS_PRINTED):
    fx = evaluate_f(problem, x, counters)
    dfx = _ref_require(evaluate_df(problem, x, counters))
    d = fx / dfx
    if variant is FsVariant.AS_PRINTED:
        inner = x - 2.0 * d
    else:
        inner = x - d * 0.5
    d_inner = _ref_require(evaluate_df(problem, inner, counters))
    return x - fx / d_inner


def ref_oz(problem, x, counters):
    fx = evaluate_f(problem, x, counters)
    dfx = _ref_require(evaluate_df(problem, x, counters))
    z = x - fx / dfx
    dz = _ref_require(evaluate_df(problem, z, counters))
    return x - (fx / 2.0) * (1.0 / dfx + 1.0 / dz)


def ref_klw(problem, x, counters):
    fx = evaluate_f(problem, x, counters)
    dfx = _ref_require(evaluate_df(problem, x, counters))
    shifted = evaluate_f(problem, x + fx / dfx, counters)
    if not math.isfinite(shifted):
        raise DerivativeBreakdownError
    return x - (shifted - fx) / dfx


def ref_haar(problem, x, counters, points=2):
    fx = evaluate_f(problem, x, counters)
    dfx = _ref_require(evaluate_df(problem, x, counters))
    d = fx / dfx
    total = 0.0
    for k in range(1, points + 1):
        total += evaluate_df(problem, x - d * ((k - 0.5) / points), counters)
    _ref_require(total)
    return x - (points * fx) / total


REFERENCE_POINTS = (1, 2, 3, 8, 128)
STEP_PAIRS = (
    [(newton_step, ref_newton, ()), (wf_step, ref_wf, ()), (oz_step, ref_oz, ()),
     (klw_step, ref_klw, ())]
    + [(fs_step, ref_fs, (v,)) for v in FsVariant]
    + [(haar_newton_step, ref_haar, (p,)) for p in REFERENCE_POINTS]
)


def _observe(step, problem, x, extra):
    # repr is exact for floats and keeps the sign of zero; all NaNs compare equal
    counters = EvalCounters()
    try:
        value = repr(step(problem, x, counters, *extra))
    except DerivativeBreakdownError:
        value = "breakdown"
    return value, counters.n_f, counters.n_df, counters.n_diag


@pytest.mark.parametrize("entry", builtin_suite(), ids=lambda e: e.problem.name)
def test_steps_match_longhand_reference_bitwise(entry):
    rng = random.Random(f"steps-{entry.problem.name}")
    starts = [entry.x0, 0.0, 30.0, -30.0]
    starts += [entry.x0 + rng.uniform(-4.0, 4.0) for _ in range(150)]
    for x in starts:
        exact_root = entry.problem.f(x) == 0.0
        for step, ref, extra in STEP_PAIRS:
            if exact_root:  # a public step takes no step from an exact root: x for 1 f
                want = (repr(x), 1, 0, 0)
            else:  # and counts its residual f(x_1) in n_diag, unless it broke down
                value, n_f, n_df, _ = _observe(ref, entry.problem, x, extra)
                want = (value, n_f, n_df, int(value != "breakdown"))
            assert _observe(step, entry.problem, x, extra) == want, (step.__name__, extra, x)


def test_step_cost_and_label_for_every_configuration():
    for tag in METHOD_TAGS:
        for points in REFERENCE_POINTS:
            for variant in FsVariant:
                method = MethodId(tag, haar_points=points, fs_variant=variant)
                cost = {"newton": 2, "new": 2 + points}.get(tag, 3)
                label = tag
                if tag == "new" and points != 2:
                    label = f"new[P={points}]"
                if tag == "fs" and variant is FsVariant.STANDARD_MIDPOINT:
                    label = "fs(std)"
                assert (method.step_cost, method.label) == (cost, label)


def test_family_spec_carries_the_loop_constants_for_every_configuration():
    for tag in METHOD_TAGS:
        for points in REFERENCE_POINTS:
            for variant in FsVariant:
                spec = MethodId(tag, haar_points=points, fs_variant=variant).family
                _, fractions, endpoint, n, weight, node = spec
                assert n == len(fractions)
                assert type(weight) is float and weight == n + endpoint
                if n == 1:
                    assert node == fractions[0]
                else:
                    assert node is None


def _bits(value):
    """The exact value of a float, complex or mpf, NaN payloads and signed zeros included."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, complex):
        return _bits(value.real) + _bits(value.imag)
    return value._mpf_


_FLOATS = st.floats(allow_nan=True, allow_infinity=True)


# the averaging step multiplies f(x) by its float weight n + endpoint, where an
# int weight gave the same bits; ``iterate`` must stay exact on complex and mpf values too
@settings(deadline=None, derandomize=True)
@given(st.integers(1, 129), _FLOATS, st.complex_numbers(), _FLOATS, st.integers(1, 10**40))
@example(129, math.nan, complex(math.inf, -0.0), -0.0, 3)
def test_float_weight_products_are_bit_identical_to_int_ones(w, x, z, m, k):
    import mpmath

    assert _bits(float(w) * x) == _bits(w * x)
    assert _bits(float(w) * z) == _bits(w * z)
    for dps in (15, 120):
        with mpmath.workdps(dps):
            v = mpmath.mpf(m) / k if math.isfinite(m) else mpmath.mpf(m)
            assert _bits(float(w) * v) == _bits(w * v)


MPF_METHODS = [MethodId("newton"), MethodId("wf"), MethodId("fs", fs_variant="standard-midpoint"),
               MethodId("oz"), MethodId("klw"), MethodId("new"), MethodId("new", 8)]


@pytest.mark.parametrize("method", MPF_METHODS, ids=lambda m: m.label)
def test_iterate_runs_on_mpf_values(method):
    import mpmath

    with mpmath.workdps(60):
        problem = Problem("f6", *(partial(formula, mpmath) for formula in FORMULAS["f6"]))
        criteria = StopCriteria(step_tol=1e-50, residual_tol=1e-55)
        outcome = iterate(method, problem, mpmath.mpf("0.9"), criteria)
        root = mpmath.findroot(problem.f, mpmath.mpf("0.77"))
        assert outcome.status is Status.CONVERGED
        assert isinstance(outcome.root, mpmath.mpf) and abs(outcome.root - root) < 1e-45


# Reference: the iterate loop written out longhand. Each step is one of the
# longhand steps above, which evaluates f(x_n) itself, counted; every
# residual is evaluated again, uncounted. On a deterministic f this gives
# the same bits and counts as a driver that reuses the residual as the next
# f(x_n) and counts it then, which is what ``iterate`` does in bulk.


def _uncounted(problem, x):
    try:
        return problem.f(x)
    except NAN_ERRORS:
        return math.nan


def ref_iterate(ref, extra, problem, x0, criteria=StopCriteria()):
    counters = EvalCounters()
    x = x0
    iterates, residuals = [x], [_uncounted(problem, x)]
    if residuals[0] == 0.0:
        counters.n_f += 1
        return Status.CONVERGED, x, iterates, residuals, counters
    status = Status.MAX_ITER
    for _ in range(criteria.max_iter):
        try:
            x_new = ref(problem, x, counters, *extra)
        except DerivativeBreakdownError:
            status = Status.DERIVATIVE_BREAKDOWN
            break
        residual = _uncounted(problem, x_new)
        iterates.append(x_new)
        residuals.append(residual)
        step_size, x = abs(x_new - x), x_new
        if not math.isfinite(x) or abs(x) > criteria.escape_radius:
            status = Status.DIVERGED
            break
        if step_size <= criteria.step_tol or abs(residual) <= criteria.residual_tol:
            status = Status.CONVERGED
            break
    return status, x, iterates, residuals, counters


ITERATE_CONFIGS = (
    [(MethodId(tag), ref, ()) for tag, ref in
     [("newton", ref_newton), ("wf", ref_wf), ("oz", ref_oz), ("klw", ref_klw)]]
    + [(MethodId("fs", fs_variant=v), ref_fs, (v,)) for v in FsVariant]
    + [(MethodId("new", haar_points=p), ref_haar, (p,)) for p in REFERENCE_POINTS]
)


def _iterate_starts(entry):
    rng = random.Random(f"iterate-{entry.problem.name}")
    return [entry.x0] + [entry.x0 + rng.uniform(-4.0, 4.0) for _ in range(60)]


def test_iterate_matches_longhand_reference_bitwise():
    statuses = set()
    for entry in builtin_suite():
        for x0 in _iterate_starts(entry):
            for method, ref, extra in ITERATE_CONFIGS:
                out = iterate(method, entry.problem, x0)
                status, root, iterates, residuals, counters = ref_iterate(
                    ref, extra, entry.problem, x0
                )
                got = (out.status, repr(out.root), out.iterations, out.nfe,
                       out.trace.counters.n_f, out.trace.counters.n_df,
                       list(map(repr, out.trace.iterates)), list(map(repr, out.trace.residuals)))
                want = (status, repr(root), len(iterates) - 1, counters.total,
                        counters.n_f, counters.n_df,
                        list(map(repr, iterates)), list(map(repr, residuals)))
                assert got == want, (entry.problem.name, method, x0)
                statuses.add(out.status)
    assert statuses == set(Status)


def _counting(problem):
    """``problem`` with f and f' wrapped to tally the calls they receive."""
    calls = {"f": 0, "df": 0}

    def f(x):
        calls["f"] += 1
        return problem.f(x)

    def df(x):
        calls["df"] += 1
        return problem.df(x)

    return Problem(problem.name, f, df), calls


# starts where an f' node overflows part-way through the wavelet node sum
# (f5/new and f5/new[P=8] respectively)
ACCOUNTING_STARTS = {"f5": [-84.0229150436985, 273.7748203153746]}
# math.sqrt raises left of 0 and f' divides by zero at 0: from 0.25, 3 and 9
# the klw shifted f, an oz, wf and fs f', and a wavelet node raise; at -1
# f and f' raise, and at 0 f' divides by zero
SQRT = Problem("sqrt-1", lambda x: math.sqrt(x) - 1.0, lambda x: 0.5 / math.sqrt(x))
# from 700, f/f' ~ -1e4 puts every node of the first step past 709.78, where
# exp raises OverflowError, while f and f' at x are finite
EXP_OVERFLOW = Problem("exp-1e308", lambda x: math.exp(x) - 1e308, math.exp)
# from 1, the first step's wavelet nodes left of 0 raise TypeError part-way through
# the node sum: every node is still called, and the step breaks down
EXP_SQRT_1 = Problem("exp-sqrt-1", lambda x: math.exp(x**0.5) - 1.0,
                     lambda x: math.exp(x**0.5) / (2.0 * x**0.5))
# from 1.5 klw's shifted f is evaluated at 2, where f is inf: a breakdown for the
# public step and for iterate, which must not report it as a diverged iterate
INF_PAST_2 = Problem("inf-past-2", lambda x: x - 1.0 if x < 2.0 else math.inf, lambda x: 1.0)


def _accounting_cases():
    for entry in builtin_suite():
        yield entry.problem, _iterate_starts(entry) + ACCOUNTING_STARTS.get(entry.problem.name, [])
    yield SQRT, [0.25, 3.0, 9.0, -1.0, 0.0]
    yield EXP_OVERFLOW, [700.0]
    yield INF_PAST_2, [1.5]
    yield EXP_SQRT, [-1.0, 14.75]
    yield EXP_SQRT_1, [1.0]


def test_counters_account_for_every_call():
    for base, starts in _accounting_cases():
        problem, calls = _counting(base)
        for x0 in starts:
            for method, _, _ in ITERATE_CONFIGS:
                calls.update(f=0, df=0)
                c = iterate(method, problem, x0).trace.counters
                assert (calls["f"], calls["df"]) == (c.n_f + c.n_diag, c.n_df), (
                    problem.name, method, x0)
            for step, _, extra in STEP_PAIRS:
                calls.update(f=0, df=0)
                counters = EvalCounters()
                try:
                    step(problem, x0, counters, *extra)
                except DerivativeBreakdownError:
                    pass
                assert (calls["f"], calls["df"]) == (
                    counters.n_f + counters.n_diag, counters.n_df), (problem.name, step.__name__, x0)


def test_type_error_at_a_residual_is_a_breakdown_row():
    # f raises TypeError at fs's first iterate (-0.894): its residual is NaN; f' breaks down there
    [row] = run_comparison([SuiteEntry(EXP_SQRT, 14.75)], [MethodId("fs")]).rows
    assert (row.status, row.iterations, row.root) == ("derivative-breakdown", 1, "Breakdown")


def test_an_unclassified_error_propagates_and_leaves_the_step_counters():
    # KeyError is no math error: from f at x0, and from f past x0, at x_1 or klw's shifted f
    for problem in (Problem("key-error", lambda x: {}[x], lambda x: 1.0),
                    Problem("key-error-past-1", lambda x: {1.0: 1.0}[x], lambda x: 1.0)):
        counters = EvalCounters(1, 2, 3)
        for step in PUBLIC_STEPS:
            with pytest.raises(KeyError):
                step(problem, 1.0, counters)
        assert counters == EvalCounters(1, 2, 3), problem.name
        with pytest.raises(KeyError):
            iterate(MethodId("new"), problem, 1.0)


def _polynomial(a, roots):
    """a * prod (x - r)^m over ``roots``, pairs (r, m), with its derivative written out."""

    def f(x):
        value = a
        for r, m in roots:
            value *= (x - r) ** m
        return value

    def df(x):
        total = 0.0
        for i, (r, m) in enumerate(roots):
            term = a * m * (x - r) ** (m - 1)
            for j, (s, k) in enumerate(roots):
                if j != i:
                    term *= (x - s) ** k
            total += term
        return total

    return Problem("polynomial", f, df)


@st.composite
def _polynomials(draw):
    """a * prod (x - r_i)^m_i: 1-3 roots in [-3, 3], m_i in {1, 2, 3}, |a| in [1e-2, 1e2]."""
    a = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-2.0, 2.0))
    roots = draw(st.lists(st.tuples(st.floats(-3.0, 3.0), st.integers(1, 3)), min_size=1, max_size=3))
    return _polynomial(a, roots)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(_polynomials(), st.floats(-4.0, 4.0))
def test_iterate_keeps_its_status_contract_on_polynomials(polynomial, x0):
    problem, calls = _counting(polynomial)
    criteria = StopCriteria()
    for method, _, _ in ITERATE_CONFIGS:
        calls.update(f=0, df=0)
        out = iterate(method, problem, x0, criteria)
        c = out.trace.counters
        assert (calls["f"], calls["df"]) == (c.n_f + c.n_diag, c.n_df), method
        # a breakdown's partial step and an exact root's one f call fall outside step_cost x IT
        if out.status is not Status.DERIVATIVE_BREAKDOWN and out.trace.residuals[0] != 0.0:
            assert out.nfe == method.step_cost * out.iterations, method
        if out.status is Status.MAX_ITER:
            assert out.iterations == criteria.max_iter, method
        if out.status is Status.DIVERGED:
            last = out.trace.iterates[-1]
            assert not math.isfinite(last) or abs(last) > criteria.escape_radius, method


ONE_NODE_METHODS = [MethodId("wf"), MethodId("fs"), MethodId("fs", fs_variant="standard-midpoint"),
                    MethodId("new", 1)]


@pytest.mark.parametrize("method", ONE_NODE_METHODS, ids=lambda m: m.label)
def test_one_node_overflow_is_a_breakdown(method):
    # ``iterate`` evaluates the one node of these rules outside node_sum; the
    # accounting test above checks the calls against the counts on this start
    out = iterate(method, EXP_OVERFLOW, 700.0)
    c = out.trace.counters
    assert out.status is Status.DERIVATIVE_BREAKDOWN and out.iterations == 0
    assert (c.n_f, c.n_df, c.n_diag) == (1, 2, 0)
