import math

import pytest

from haarnewton.core import (
    EvalCounters,
    Problem,
    StopCriteria,
    evaluate_df,
    evaluate_f,
)
from haarnewton.bench import suite_entry


def test_problem_requires_name():
    with pytest.raises(ValueError):
        Problem("", lambda x: x, lambda x: 1.0)


@pytest.mark.parametrize(
    "name, x, expected",
    [
        ("f2", 0.0, 1.0),  # cos 0 - 0
        ("f3", 0.0, 0.0),
    ],
)
def test_evaluate_f_values(name, x, expected):
    counters = EvalCounters()
    assert evaluate_f(suite_entry(name).problem, x, counters) == expected
    assert counters.n_f == 1 and counters.n_df == 0


def test_evaluate_f_at_reference_root():
    counters = EvalCounters()
    value = evaluate_f(suite_entry("f1").problem, -1.16730397826142, counters)
    assert abs(value) < 1e-13


@pytest.mark.parametrize(
    "name, x, expected",
    [
        ("f2", 0.0, -1.0),
        ("f3", 3.0, 0.1),
        ("f1", 2.0, 79.0),
    ],
)
def test_evaluate_df_values(name, x, expected):
    counters = EvalCounters()
    assert evaluate_df(suite_entry(name).problem, x, counters) == expected
    assert counters.n_df == 1 and counters.n_f == 0


def test_counters_accumulate():
    counters = EvalCounters()
    problem = suite_entry("f2").problem
    for _ in range(3):
        evaluate_f(problem, 0.5, counters)
    evaluate_df(problem, 0.5, counters)
    assert (counters.n_f, counters.n_df, counters.total) == (3, 1, 4)


def test_overflowing_f_returns_non_finite_instead_of_raising():
    problem = Problem("explode", lambda x: math.exp(x), lambda x: math.exp(x))
    counters = EvalCounters()
    value = evaluate_f(problem, 1e9, counters)
    assert not math.isfinite(value)
    assert counters.n_f == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"step_tol": 0.0},
        {"residual_tol": -1.0},
        {"max_iter": 0},
        {"escape_radius": 0.0},
        {"step_tol": math.nan},
        {"residual_tol": math.nan},
        {"escape_radius": math.nan},
    ],
)
def test_stop_criteria_validation(kwargs):
    with pytest.raises(ValueError):
        StopCriteria(**kwargs)


def test_stop_criteria_defaults():
    criteria = StopCriteria()
    assert criteria.step_tol == 1e-15
    assert criteria.residual_tol == 1e-15
    assert criteria.max_iter == 100
    assert criteria.escape_radius == 1e8
