import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from haarnewton.analysis import (
    COC_ERROR_MAX,
    COC_ERROR_MIN,
    CONSTANT_ERROR_MAX,
    CONSTANT_ERROR_MIN,
    CONSTANT_NEXT_MIN,
    ConvergenceReport,
    classify,
    convergence_report,
    format_significant,
)
from haarnewton.core import Outcome, Status, StopCriteria, Trace
from haarnewton.bench import builtin_suite, suite_entry
from haarnewton.methods import MethodId, iterate

from helpers import forbid_result_constructors


def trace_from_errors(errors, root=0.0):
    # root at zero keeps the synthetic errors exactly representable
    iterates = [root + e for e in errors] + [root]
    return Trace(iterates=iterates, residuals=[0.0] * len(iterates))


def test_coc_exact_cubic_sequence():
    trace = trace_from_errors([1e-1, 1e-3, 1e-9])
    assert convergence_report(trace, 0.0).coc == pytest.approx(3.0, abs=1e-9)


def test_coc_exact_quadratic_sequence():
    trace = trace_from_errors([1e-1, 1e-2, 1e-4])
    assert convergence_report(trace, 0.0).coc == pytest.approx(2.0, abs=1e-9)


def test_coc_no_usable_triple_returns_nan():
    # everything at roundoff scale
    report = convergence_report(trace_from_errors([1e-14, 1e-15, 1e-16]), 0.0)
    assert math.isnan(report.coc)
    assert report.usable_triples == 0


@given(
    p=st.floats(min_value=1.5, max_value=3.5),
    e0=st.floats(min_value=0.05, max_value=0.5),
)
def test_coc_recovers_geometric_order(p, e0):
    errors = [e0]
    while len(errors) < 3 and errors[-1] ** p > 1e-12:
        errors.append(errors[-1] ** p)
    if len(errors) < 3:
        return
    trace = trace_from_errors(errors)
    assert convergence_report(trace, 0.0).coc == pytest.approx(p, abs=1e-9)


def test_error_constant_empirical_direct_quotient():
    trace = trace_from_errors([1e-2, 2.4e-7])
    assert convergence_report(trace, 0.0).error_constant_empirical == pytest.approx(0.24, rel=1e-9)


def test_error_constant_empirical_of_diverged_trace_is_nan():
    trace = Trace(iterates=[3.0, 40.0, 2.0e6], residuals=[0.0] * 3)
    assert math.isnan(convergence_report(trace, 0.0).error_constant_empirical)


@pytest.mark.parametrize(
    "iterates, root",
    [
        ([0.0], 0.0),  # exact root at x0: no step taken
        ([3.0, 40.0, math.inf], math.inf),  # diverged to a non-finite iterate
        ([1.0, 2.0, 3.0], 0.0),  # too short for an order
        ([1.0] * 4, math.nan),  # non-finite roots
        ([1.0] * 4, math.inf),
        ([1.0] * 4, -math.inf),
    ],
)
def test_convergence_report_of_degenerate_trace_is_nan(iterates, root):
    trace = Trace(iterates=iterates, residuals=[0.0] * len(iterates))
    report = convergence_report(trace, root)
    assert math.isnan(report.coc)
    assert math.isnan(report.error_constant_empirical)
    assert report.usable_triples == 0


# Reference: the diagnostics as first written, in separate passes over the
# errors: the windowed triple search with one slice and one all() per window,
# the COC from the last of those triples with a nonzero denominator, the
# constant from the last pair inside the constant window, and the report built
# from them by keyword. The library computes all three in one backward pass.


def ref_usable_triples(errors):
    triples = []
    for i in range(1, len(errors) - 1):
        window = errors[i - 1 : i + 2]
        if all(COC_ERROR_MIN < abs(e) < COC_ERROR_MAX for e in window):
            triples.append(tuple(window))
    return triples


def ref_coc_from(triples):
    for e0, e1, e2 in reversed(triples):
        denom = math.log(abs(e1 / e0))
        if denom != 0.0:
            return math.log(abs(e2 / e1)) / denom
    return math.nan


def ref_constant_from(errors):
    for i in reversed(range(len(errors) - 1)):
        e_n, e_next = abs(errors[i]), abs(errors[i + 1])
        if CONSTANT_ERROR_MIN < e_n <= CONSTANT_ERROR_MAX and e_next > CONSTANT_NEXT_MIN:
            return e_next / e_n**3
    return math.nan


def ref_convergence_report(trace, root):
    errors = [x - root for x in trace.iterates] if math.isfinite(root) else []
    triples = ref_usable_triples(errors)
    return ConvergenceReport(
        coc=ref_coc_from(triples) if len(errors) >= 4 else math.nan,
        error_constant_empirical=ref_constant_from(errors),
        usable_triples=len(triples),
    )


def _report_runs():
    for entry in builtin_suite():
        rng = random.Random(f"report-{entry.problem.name}")
        starts = [entry.x0] + [entry.x0 + rng.uniform(-0.5, 0.5) for _ in range(3)]
        for points in (1, 2, 4, 8, 16, 32, 64, 128):
            for x0 in starts:
                yield iterate(MethodId("new", points), entry.problem, x0)
    f1 = suite_entry("f1")
    capped = iterate(MethodId("new"), f1.problem, f1.x0, StopCriteria(max_iter=3))
    assert capped.status is Status.MAX_ITER
    yield capped
    # near the critical point of f1, where f' = 0: the run oscillates to the cap
    oscillating = iterate(MethodId("new", 128), f1.problem, -0.67)
    assert oscillating.status is Status.MAX_ITER and len(oscillating.trace.iterates) == 101
    yield oscillating


def test_convergence_report_matches_windowed_reference_on_suite_runs():
    statuses = set()
    for outcome in _report_runs():
        got = convergence_report(outcome.trace, outcome.root)
        want = ref_convergence_report(outcome.trace, outcome.root)
        assert repr(got) == repr(want), outcome
        statuses.add(outcome.status)
    assert {Status.CONVERGED, Status.MAX_ITER} <= statuses


def test_convergence_report_runs_no_record_constructor(monkeypatch):
    # with every __init__ raising, only the builders can have filled these records
    f4 = suite_entry("f4")
    forbid_result_constructors(monkeypatch)
    outcome = iterate(MethodId("new"), f4.problem, f4.x0)
    got = convergence_report(outcome.trace, outcome.root)
    monkeypatch.undo()
    want = ref_convergence_report(outcome.trace, outcome.root)
    assert outcome.status is Status.CONVERGED and all(map(math.isfinite, got._values()))
    assert got == want and repr(got) == repr(want) and type(got) is ConvergenceReport


EDGE_ERRORS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-13, -1e-13, 1.0, -1.0, 1e-3, 2e-9]


@given(st.lists(st.one_of(st.sampled_from(EDGE_ERRORS), st.floats()), max_size=12))
@example([1e-1, 1e-3, 1e-9, math.nan, 1e-2, 1e-4, 1e-12])
@example([1.0, 1e-13, 0.5, 1e-2, 1e-6, -0.0, 1e-2, 1e-5, 1e-14])
# an error exactly on a window's bound: COC_ERROR_MAX, CONSTANT_ERROR_MIN, CONSTANT_NEXT_MIN
@example([1.0, 1e-1, 1e-3, 1e-9])
@example([1e-10, 1e-15])
@example([1e-3, 1e-16])
def test_usable_triples_and_report_match_windowed_reference(errors):
    trace = Trace(iterates=errors, residuals=[0.0] * len(errors))  # root 0.0: e == x
    assert repr(convergence_report(trace, 0.0)) == repr(ref_convergence_report(trace, 0.0))


def outcome_with(status, root):
    trace = Trace(iterates=[root], residuals=[0.0])
    return Outcome(status=status, root=root, iterations=0, nfe=0, trace=trace)


def test_classify_converged_formats_root():
    assert classify(outcome_with(Status.CONVERGED, 0.7390851332151607)) == "0.739085133215161"


def test_classify_non_converged_labels():
    assert classify(outcome_with(Status.DIVERGED, 1e9)) == "Diverse"
    assert classify(outcome_with(Status.MAX_ITER, 2.0)) == "Diverse"
    assert classify(outcome_with(Status.DERIVATIVE_BREAKDOWN, 2.0)) == "Breakdown"


@pytest.mark.parametrize(
    "value, text",
    [
        (0.0, "0.0"),
        (-1.1673039782614187, "-1.16730397826142"),
        (0.7728829591492102, "0.772882959149210"),
        (4.534682865610013e-17, "4.53468286561001e-17"),
        (1.2926957193733983, "1.29269571937340"),
        (math.nan, "nan"),
        (math.inf, "inf"),
        # the 15-digit rounding carries into the next power of ten
        (0.9999999999999999, "1.00000000000000"),
        (0.09999999999999996, "0.100000000000000"),
        (9.99999999999999e-05, "9.99999999999999e-05"),
    ],
)
def test_format_significant(value, text):
    assert format_significant(value) == text


@given(st.floats(allow_nan=False, allow_infinity=False).filter(bool))
@example(0.9999999999999999)
@example(0.09999999999999996)
@example(9.99999999999999e-05)
def test_format_significant_is_the_15_digit_rounding(x):
    text = format_significant(x)
    assert float(text) == float(f"{x:.14e}")
    mantissa = text.lstrip("-").split("e")[0].replace(".", "").lstrip("0")
    assert len(mantissa) == 15
