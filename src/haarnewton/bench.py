"""Built-in benchmark suite and the comparison-grid runner/formatters."""

from math import atan, cos, exp, log, sin

from .analysis import classify
from .core import FrozenRecord, Problem, Record, StopCriteria
from .methods import MethodId, iterate


class SuiteEntry(FrozenRecord):
    __slots__ = _fields = ("problem", "x0")

    def __init__(self, problem: Problem, x0: float) -> None:
        self._store(problem, x0)


class TableRow(FrozenRecord):
    __slots__ = _fields = ("function", "x0", "method", "status", "iterations", "nfe", "root")

    def __init__(self, function: str, x0: float, method: str, status: str,
                 iterations: int, nfe: int, root: str) -> None:
        self._store(function, x0, method, status, iterations, nfe, root)


class ComparisonTable(Record):
    __slots__ = _fields = ("rows",)

    def __init__(self, rows: list[TableRow] | None = None) -> None:
        self.rows = [] if rows is None else rows


# x**5.0 rounds as x**5, and bound math names as math.X: same bits, f1/f1' ~10% cheaper (ROADMAP)
SUITE = (
    SuiteEntry(
        Problem("f1", lambda x: x**5.0 - x + 1.0, lambda x: 5.0 * x**4.0 - 1.0),
        2.0,
    ),
    SuiteEntry(
        Problem("f2", lambda x: cos(x) - x, lambda x: -sin(x) - 1.0),
        1.2,
    ),
    SuiteEntry(
        Problem("f3", atan, lambda x: 1.0 / (1.0 + x * x)),
        3.0,
    ),
    SuiteEntry(
        Problem(
            "f4",
            lambda x: 10.0 * x * exp(-(x * x)) - 1.0,
            lambda x: 10.0 * exp(-(x * x)) * (1.0 - 2.0 * x * x),
        ),
        2.5,
    ),
    SuiteEntry(
        Problem(
            "f5",
            lambda x: exp(-x) * sin(x) + log(x * x + 1.0),
            lambda x: exp(-x) * (cos(x) - sin(x)) + 2.0 * x / (x * x + 1.0),
        ),
        1.3,
    ),
    SuiteEntry(
        Problem("f6", lambda x: x**3.0 - exp(-x), lambda x: 3.0 * x * x + exp(-x)),
        2.0,
    ),
    SuiteEntry(
        Problem("f7", lambda x: exp(-x) - cos(x), lambda x: -exp(-x) + sin(x)),
        2.0,
    ),
)


def builtin_suite() -> list[SuiteEntry]:
    """The seven benchmark equations with their starting points, as a new list."""
    return list(SUITE)


def suite_entry(name: str) -> SuiteEntry:
    # built per call, not at import: perfbench's traced CLI pass patches ``builtin_suite``
    entries = {entry.problem.name: entry for entry in builtin_suite()}
    if name not in entries:
        raise KeyError(f"unknown suite function {name!r}; known: {list(entries)}")
    return entries[name]


def run_comparison(
    suite: list[SuiteEntry],
    methods: list[MethodId],
    criteria: StopCriteria = StopCriteria(),
) -> ComparisonTable:
    """Run every (entry, method) cell; per-cell failures become rows, never raise."""
    if not suite or not methods:
        raise ValueError("suite and methods must be non-empty")
    table = ComparisonTable()
    for entry in suite:
        for method in methods:
            outcome = iterate(method, entry.problem, entry.x0, criteria)
            table.rows.append(TableRow(entry.problem.name, entry.x0, method.label,
                                       outcome.status.value, outcome.iterations,
                                       outcome.nfe, classify(outcome)))
    return table


FORMATS = ("text", "csv", "json")
CSV_HEADER = ",".join(TableRow._fields)


def format_table(table: ComparisonTable, fmt: str = "text") -> str:
    """Render the grid as an aligned text table, csv, or json (deterministic)."""
    if fmt == "csv":
        # str of a float is its repr, so x0 round-trips
        lines = [CSV_HEADER] + [",".join(map(str, r._values())) for r in table.rows]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        import json  # only this format needs it; keeps it out of CLI start-up

        rows = [dict(zip(r._fields, r._values())) for r in table.rows]
        return json.dumps(rows, indent=2) + "\n"
    if fmt == "text":
        rows = [("Function", "x0", "Method", "IT", "NFE", "x_n")] + [
            (r.function, repr(r.x0), r.method, str(r.iterations), str(r.nfe), r.root)
            for r in table.rows
        ]
        widths = [max(len(row[i]) for row in rows) for i in range(6)]
        lines = ["  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip() for row in rows]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}; supported: {FORMATS}")

