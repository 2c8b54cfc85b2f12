import copy
import inspect
import math
import pickle
import types

import pytest

from haarnewton import analysis, core
from haarnewton.analysis import ConvergenceReport
from haarnewton.bench import ComparisonTable, SuiteEntry, TableRow, suite_entry
from haarnewton.core import (
    EvalCounters,
    Outcome,
    Problem,
    Status,
    StopCriteria,
    Trace,
    evaluate_df,
    evaluate_f,
)
from haarnewton.methods import FsVariant, MethodId, haar_newton_step


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
    # exp overflows at 1e9; math.exp of the complex (-1)**0.5 raises TypeError
    for g, x in ((math.exp, 1e9), (lambda x: math.exp(x**0.5), -1.0)):
        problem = Problem("explode", g, g)
        counters = EvalCounters()
        assert not math.isfinite(evaluate_f(problem, x, counters))
        assert not math.isfinite(evaluate_df(problem, x, counters))
        assert (counters.n_f, counters.n_df) == (1, 1)


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
        {"step_tol": math.inf},
        {"residual_tol": math.inf},
        {"escape_radius": -math.inf},
    ],
)
def test_stop_criteria_validation(kwargs):
    [(name, value)] = kwargs.items()
    with pytest.raises(ValueError, match=f"^{name} must be ") as info:
        StopCriteria(**kwargs)
    if name != "max_iter":  # the message names the value given
        assert str(info.value).endswith(f", not {value!r}")


def test_stop_criteria_takes_an_infinite_escape_radius_as_none():
    assert StopCriteria(escape_radius=math.inf).escape_radius == math.inf


LINE = Problem("line", lambda x: x, lambda x: 1.0)
# every caller of ``core.as_count`` but the CLI's and the quadrature's (which
# ``test_quadrature`` checks), with the name its message gives the count; each
# takes the count and an ``EvalCounters`` that a run counts into
COUNT_CALLERS = [
    ("StopCriteria", "max_iter", lambda v, counters: StopCriteria(max_iter=v)),
    ("MethodId-new", "haar_points", lambda v, counters: MethodId("new", haar_points=v)),
    ("MethodId-wf", "haar_points", lambda v, counters: MethodId("wf", haar_points=v)),
    ("haar_newton_step", "node count", lambda v, counters: haar_newton_step(LINE, 3.0, counters, points=v)),
]


@pytest.mark.parametrize("value", [2.5, 2.0, math.nan, math.inf, "3", [4], 0], ids=str)
@pytest.mark.parametrize("name, caller", [row[1:] for row in COUNT_CALLERS], ids=[row[0] for row in COUNT_CALLERS])
def test_a_count_that_is_not_an_integer_from_1_is_refused_by_name(name, caller, value):
    counters = EvalCounters()
    with pytest.raises(ValueError) as info:
        caller(value, counters)
    assert str(info.value) == (f"{name} must be >= 1" if value == 0 else f"{name} must be an integer, not {value!r}")
    assert (counters.n_f, counters.n_df) == (0, 0)  # refused before any evaluation


class Four:
    def __index__(self):
        return 4


def test_counts_are_stored_as_the_int_they_index_to():
    assert StopCriteria(max_iter=Four()) == StopCriteria(max_iter=4)
    assert type(StopCriteria(max_iter=True).max_iter) is int
    method = MethodId("new", haar_points=Four())
    assert repr(method) == repr(MethodId("new", 4))
    assert (method.label, method.step_cost) == ("new[P=4]", 6)
    assert MethodId("new", haar_points=True).label == "new[P=1]"


def test_stop_criteria_defaults():
    criteria = StopCriteria()
    assert criteria.step_tol == 1e-15
    assert criteria.residual_tol == 1e-15
    assert criteria.max_iter == 100
    assert criteria.escape_radius == 1e8


# --- record types -------------------------------------------------------------

SIN = Problem("sin", math.sin, math.cos)
ROW = ("f1", 2.0, "new", "converged", 3, 12, "1.0")
ROW_REPR = (
    "TableRow(function='f1', x0=2.0, method='new', status='converged', "
    "iterations=3, nfe=12, root='1.0')"
)
SIN_REPR = "Problem(name='sin', f=<built-in function sin>, df=<built-in function cos>)"
TRACE_REPR = (
    "Trace(iterates=[1.0, 1.5], residuals=[0.5, 0.0], "
    "counters=EvalCounters(n_f=3, n_df=2, n_diag=1))"
)


def _trace():
    return Trace([1.0, 1.5], [0.5, 0.0], EvalCounters(3, 2, 1))


# Per record type: build it positionally, build the same by keyword, build one
# that differs in a compared field, and the repr the dataclass version printed.
RECORDS = {
    "Problem": (
        lambda: Problem("sin", math.sin, math.cos),
        lambda: Problem(name="sin", f=math.sin, df=math.cos),
        lambda: Problem("sin", math.sin, math.sin),
        SIN_REPR,
    ),
    "EvalCounters": (
        lambda: EvalCounters(3, 2, 1),
        lambda: EvalCounters(n_f=3, n_df=2, n_diag=1),
        lambda: EvalCounters(3, 2),
        "EvalCounters(n_f=3, n_df=2, n_diag=1)",
    ),
    "StopCriteria": (
        lambda: StopCriteria(1e-8, 1e-9, 5, 10.0),
        lambda: StopCriteria(step_tol=1e-8, residual_tol=1e-9, max_iter=5, escape_radius=10.0),
        lambda: StopCriteria(1e-8, 1e-9, 6, 10.0),
        "StopCriteria(step_tol=1e-08, residual_tol=1e-09, max_iter=5, escape_radius=10.0)",
    ),
    "Trace": (
        _trace,
        lambda: Trace(
            iterates=[1.0, 1.5], residuals=[0.5, 0.0], counters=EvalCounters(3, 2, 1)
        ),
        lambda: Trace([1.0, 1.5], [0.5, 0.0]),
        TRACE_REPR,
    ),
    "Outcome": (
        lambda: Outcome(Status.CONVERGED, 1.5, 2, 4, _trace()),
        lambda: Outcome(
            status=Status.CONVERGED, root=1.5, iterations=2, nfe=4, trace=_trace()
        ),
        lambda: Outcome(Status.DIVERGED, 1.5, 2, 4, _trace()),
        "Outcome(status=<Status.CONVERGED: 'converged'>, root=1.5, iterations=2, "
        f"nfe=4, trace={TRACE_REPR})",
    ),
    "MethodId": (
        lambda: MethodId("new", 4),
        lambda: MethodId(tag="new", haar_points=4, fs_variant=FsVariant.AS_PRINTED),
        lambda: MethodId("new", 3),
        "MethodId(tag='new', haar_points=4, fs_variant=<FsVariant.AS_PRINTED: 'as-printed'>)",
    ),
    "ConvergenceReport": (
        lambda: ConvergenceReport(3.0, 0.5, 2),
        lambda: ConvergenceReport(coc=3.0, error_constant_empirical=0.5, usable_triples=2),
        lambda: ConvergenceReport(3.0, 0.5, 1),
        "ConvergenceReport(coc=3.0, error_constant_empirical=0.5, usable_triples=2)",
    ),
    "SuiteEntry": (
        lambda: SuiteEntry(SIN, 1.0),
        lambda: SuiteEntry(problem=SIN, x0=1.0),
        lambda: SuiteEntry(SIN, 2.0),
        f"SuiteEntry(problem={SIN_REPR}, x0=1.0)",
    ),
    "TableRow": (
        lambda: TableRow(*ROW),
        lambda: TableRow(
            function="f1", x0=2.0, method="new", status="converged", iterations=3,
            nfe=12, root="1.0",
        ),
        lambda: TableRow(*ROW[:-1], "Diverse"),
        ROW_REPR,
    ),
    "ComparisonTable": (
        lambda: ComparisonTable([TableRow(*ROW)]),
        lambda: ComparisonTable(rows=[TableRow(*ROW)]),
        lambda: ComparisonTable(),
        f"ComparisonTable(rows=[{ROW_REPR}])",
    ),
}
MUTABLE = ["EvalCounters", "Trace", "ComparisonTable"]
FROZEN = [name for name in RECORDS if name not in MUTABLE]


def _field_names(record):
    return list(inspect.signature(type(record)).parameters)


@pytest.mark.parametrize("name", RECORDS)
def test_record_repr_construction_and_equality(name):
    positional, keyword, different, expected_repr = RECORDS[name]
    record = positional()
    assert repr(record) == expected_repr
    assert record == keyword() and not record != keyword()
    assert record != different() and not record == different()
    assert record != tuple(getattr(record, f) for f in _field_names(record))


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_record_is_immutable_hashable_and_copyable(name):
    record = RECORDS[name][0]()
    field = _field_names(record)[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert repr(copy.deepcopy(record)) == repr(record)
    if name == "Outcome":  # its Trace is mutable, so it cannot be hashed
        with pytest.raises(TypeError, match="unhashable type: 'Trace'"):
            hash(record)
        return
    assert hash(record) == hash(RECORDS[name][1]())
    assert len({record, RECORDS[name][1](), RECORDS[name][2]()}) == 2


def test_outcome_fields_are_plain_slots_and_trace_the_one_property():
    # every read of status, root, iterations or nfe stays a slot read; only the
    # trace, built on its first read, goes through a property
    for name in ("status", "root", "iterations", "nfe"):
        assert type(vars(Outcome)[name]) is types.MemberDescriptorType, name
    properties = {name for cls in Outcome.__mro__ for name, value in vars(cls).items()
                  if isinstance(value, property)}
    assert properties == {"trace"}


@pytest.mark.parametrize("builder, record", [(core._OutcomeBuilder, Outcome),
                                             (analysis._ReportBuilder, ConvergenceReport)],
                         ids=["Outcome", "ConvergenceReport"])
def test_result_builder_takes_plain_slot_stores(builder, record):
    # with only __setattr__ restored, tp_setattro still dispatches in Python: ~145 ns a
    # store, not ~10; both overrides must be object's
    assert builder.__bases__ == (record,)
    assert builder.__setattr__ is object.__setattr__
    assert builder.__delattr__ is object.__delattr__
    assert builder.__init__ is object.__init__
    assert builder.__slots__ == () and not hasattr(builder(), "__dict__")


@pytest.mark.parametrize("name", MUTABLE)
def test_mutable_record_is_unhashable_and_sets_slots_directly(name):
    record = RECORDS[name][0]()
    with pytest.raises(TypeError):
        hash(record)
    # no Python-level __setattr__: ``counters.n_df += 1`` is on the hot path
    assert type(record).__setattr__ is object.__setattr__
    assert not hasattr(record, "__dict__")


def test_method_id_equality_ignores_table_fields():
    a, b = MethodId("new", 4), MethodId("new", 4)
    assert a == b and hash(a) == hash(b)
    assert MethodId("fs") != MethodId("fs", fs_variant=FsVariant.STANDARD_MIDPOINT)
    for field in ("step_cost", "label"):
        with pytest.raises(AttributeError):
            setattr(a, field, None)


def test_counters_and_frozen_records_survive_a_pickle_round_trip():
    for record in (EvalCounters(3, 2, 1), StopCriteria(1e-8), MethodId("new", 4)):
        assert pickle.loads(pickle.dumps(record)) == record
    assert pickle.loads(pickle.dumps(MethodId("new", 4))).step_cost == 6


def test_default_lists_and_counters_are_new_per_record():
    a, b = Trace(), Trace()
    a.iterates.append(1.0)
    a.residuals.append(2.0)
    a.counters.n_f += 1
    assert (b.iterates, b.residuals, b.counters) == ([], [], EvalCounters())
    c, d = ComparisonTable(), ComparisonTable()
    c.rows.append(TableRow(*ROW))
    assert d.rows == []
