import importlib.util
import json
import math
import random
import sys
from functools import partial

import mpmath
import pytest
import sympy

from haarnewton.bench import (
    ComparisonTable,
    builtin_suite,
    format_table,
    run_comparison,
    suite_entry,
)
from haarnewton.core import StopCriteria
from haarnewton.methods import MethodId

from goldens import bits, suite_bits
from helpers import ROOT
from suite_formulas import FORMULAS

PAPER_ORDER = [MethodId("wf"), MethodId("fs"), MethodId("oz"), MethodId("klw"), MethodId("new")]


@pytest.mark.parametrize(
    "name, root, bound",
    [
        ("f2", 0.739085133215161, 1e-14),
        ("f6", 0.77288295914921, 1e-13),
        ("f1", -1.16730397826142, 1e-13),
        ("f7", 1.29269571937339, 1e-13),
    ],
)
def test_suite_functions_vanish_at_reference_roots(name, root, bound):
    assert abs(suite_entry(name).problem.f(root)) < bound


_ints = random.Random(6)
INT_SAMPLE = [0, 1, -1, 2707, -2707, 9749, -9749, 10**5, -(10**5)] + [
    _ints.randint(-(10**5), 10**5) for _ in range(500)
]


@pytest.mark.parametrize("name", list(FORMULAS))
def test_suite_callables_give_the_printed_formulas_bits(name):
    suite_bits(name)


@pytest.mark.parametrize("name", list(FORMULAS))
def test_suite_callables_treat_an_int_as_its_float(name):
    problem = suite_entry(name).problem
    for fn in (problem.f, problem.df):
        wrong = [n for n in INT_SAMPLE if bits(fn, n) != bits(fn, float(n))]
        assert not wrong, f"{name}: {len(wrong)} ints differ, first {wrong[:5]}"


def test_printed_f1_rounds_an_exact_int_power():
    # x**5 of an int is exact and rounded once, at the end; INT_SAMPLE holds such ints
    f1, df1 = (partial(formula, math) for formula in FORMULAS["f1"])
    assert f1(2707) != f1(2707.0) and f1(2706) == f1(2706.0)
    assert df1(9749) != df1(9749.0) and df1(9748) == df1(9748.0)
    assert any(f1(n) != f1(float(n)) for n in INT_SAMPLE)


X = sympy.Symbol("x", real=True)


@pytest.mark.parametrize("name", list(FORMULAS))
def test_derivatives_match_sympy(name):
    # oracle: sympy's derivative at 30 digits; the absolute floor covers points near a
    # zero of f or f', where the float formula's own terms cancel
    entry = suite_entry(name)
    # the table's float constants as exact rationals, so that the oracle holds no rounding
    exact_f, table_df = (sympy.nsimplify(formula(sympy, X), rational=True)
                         for formula in FORMULAS[name])
    exact_df = sympy.diff(exact_f, X)
    assert sympy.simplify(exact_df - table_df) == 0
    rng = random.Random(1)
    for x in [entry.x0] + [rng.uniform(-3.0, 3.0) for _ in range(19)]:
        at = {X: sympy.Float(x, 30)}
        for ours, exact in ((entry.problem.f, exact_f), (entry.problem.df, exact_df)):
            want = float(exact.evalf(30, subs=at))
            assert ours(x) == pytest.approx(want, rel=1e-13, abs=1e-13), (name, x)


@pytest.mark.parametrize("name", list(FORMULAS))
def test_perfbench_oracle_suite_is_the_table(name, monkeypatch):
    # perfbench checks roots against its own mpmath copy of the suite; loaded by path,
    # with nothing else of perfbench imported and no bytecode written there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("oracle", ROOT / "perfbench" / "oracle.py")
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    assert list(oracle.SUITE_MP) == list(FORMULAS)
    rng = random.Random(3)
    with mpmath.workdps(50):
        for x in [suite_entry(name).x0] + [rng.uniform(-5.0, 5.0) for _ in range(200)]:
            x = mpmath.mpf(x)
            assert oracle.SUITE_MP[name](mpmath, x) == FORMULAS[name][0](mpmath, x), (name, x)


def test_unknown_suite_name():
    with pytest.raises(KeyError):
        suite_entry("f9")


def test_run_comparison_reference_cells():
    table = run_comparison(builtin_suite(), PAPER_ORDER)
    by_key = {(r.function, r.method): r for r in table.rows}

    f7_new = by_key[("f7", "new")]
    assert f7_new.status == "converged"
    assert f7_new.nfe == 4 * f7_new.iterations
    assert float(f7_new.root) == pytest.approx(1.29269571937339, abs=1e-12)

    f4_klw = by_key[("f4", "klw")]
    assert f4_klw.status == "converged"
    assert f4_klw.iterations == 6
    assert f4_klw.nfe == 18
    assert float(f4_klw.root) == pytest.approx(1.67963061042845, abs=1e-12)


def test_converged_rows_respect_cost_accounting():
    methods = PAPER_ORDER + [MethodId("newton"), MethodId("new", haar_points=4)]
    table = run_comparison(builtin_suite(), methods)
    costs = {m.label: m.step_cost for m in methods}
    for row in table.rows:
        if row.status == "converged":
            assert row.nfe == costs[row.method] * row.iterations


def test_run_comparison_rejects_empty_inputs():
    with pytest.raises(ValueError):
        run_comparison([], PAPER_ORDER)
    with pytest.raises(ValueError):
        run_comparison(builtin_suite(), [])


def test_csv_and_json_agree_field_by_field():
    table = run_comparison(builtin_suite(), PAPER_ORDER)
    csv_rows = format_table(table, "csv").strip().splitlines()[1:]
    json_rows = json.loads(format_table(table, "json"))
    assert len(csv_rows) == len(json_rows)
    for line, obj in zip(csv_rows, json_rows):
        fields = line.split(",")
        assert fields[0] == obj["function"]
        assert float(fields[1]) == obj["x0"]
        assert fields[2] == obj["method"]
        assert fields[3] == obj["status"]
        assert int(fields[4]) == obj["iterations"]
        assert int(fields[5]) == obj["nfe"]
        assert fields[6] == obj["root"]


def test_unknown_format_lists_supported():
    with pytest.raises(ValueError, match="text"):
        format_table(ComparisonTable(), "yaml")


def test_custom_criteria_flow_through():
    table = run_comparison(
        [suite_entry("f2")], [MethodId("newton")], StopCriteria(max_iter=1)
    )
    assert table.rows[0].iterations <= 1
