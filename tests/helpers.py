"""Shared test helpers."""

import os
from pathlib import Path

import haarnewton
from haarnewton.analysis import ConvergenceReport
from haarnewton.bench import CSV_HEADER, ComparisonTable, TableRow
from haarnewton.core import EvalCounters, Outcome, Trace

ROOT = Path(__file__).resolve().parent.parent


def child_env() -> dict:
    """This process's environment, with the directory that holds the imported
    ``haarnewton`` first on PYTHONPATH, so that a child runs the same copy."""
    env = dict(os.environ)
    package_dir = str(Path(haarnewton.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_dir, env.get("PYTHONPATH")]))
    return env


def parse_csv(text: str) -> ComparisonTable:
    """Inverse of format_table(..., 'csv'); used for round-trip checks."""
    lines = text.strip().split("\n")
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or malformed csv header")
    table = ComparisonTable()
    for line in lines[1:]:
        function, x0, method, status, iterations, nfe, root = line.split(",")
        table.rows.append(
            TableRow(function, float(x0), method, status, int(iterations), int(nfe), root)
        )
    return table


def forbid_result_constructors(monkeypatch) -> None:
    """Make ``Outcome``, ``Trace``, ``EvalCounters`` and ``ConvergenceReport``
    raise on ``__init__``, so that only a builder that skips it can make one."""

    def forbidden(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__}.__init__ ran")

    for cls in (Outcome, Trace, EvalCounters, ConvergenceReport):
        monkeypatch.setattr(cls, "__init__", forbidden)
