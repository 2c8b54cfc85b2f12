"""Interval certificates for the roots the golden grids report.

For a reported root x and r = 1e-13·max(1, |x|), f evaluated in interval
arithmetic (``mpmath.iv``, 30 digits) at x - r and at x + r has strictly
opposite signs, so a root lies between them, and f′ over [x - r, x + r]
excludes 0, so it is the only one there (Moore, *Interval Analysis*, 1966).
Every converged cell of both golden grids is certified, which covers every
root the README commands print.
"""

import csv
import json
from types import SimpleNamespace

import pytest
from mpmath import iv

from goldens import GOLDEN
from suite_formulas import FORMULAS

# mpmath.iv has no atan. atan is odd and increasing, so atan(y) has the sign of
# y: f3 = atan(x) is read here only for its sign, and f3′ needs no atan.
IV = SimpleNamespace(cos=iv.cos, sin=iv.sin, exp=iv.exp, log=iv.log, atan=lambda y: y)

CONVERGED = [
    (variant, row["function"], row["method"], row["root"])
    for variant in ("as-printed", "standard-midpoint")
    for row in csv.DictReader((GOLDEN / f"grid_{variant}.csv").read_text().splitlines())
    if row["status"] == "converged"
]


@pytest.fixture(autouse=True)
def thirty_digits():
    saved, iv.dps = iv.dps, 30
    yield
    iv.dps = saved


def sign(interval):
    """+1 or -1 when the interval lies strictly on that side of 0, else 0."""
    return 1 if interval.a > 0 else -1 if interval.b < 0 else 0


@pytest.mark.parametrize("variant, name, method, root", CONVERGED,
                         ids=[f"{variant}-{name}-{method}" for variant, name, method, _ in CONVERGED])
def test_reported_root_is_certified(variant, name, method, root):
    f, df = FORMULAS[name]
    x = iv.mpf(root)
    r = iv.mpf("1e-13") * max(1, abs(float(root)))
    below, above = f(IV, x - r), f(IV, x + r)
    assert sign(below) * sign(above) == -1, (below, above)
    assert sign(df(IV, iv.mpf([(x - r).a, (x + r).b]))) != 0


def test_certified_cells_cover_every_readme_root():
    printed = set()
    for path in GOLDEN.glob("readme_*.txt"):
        text = path.read_text()
        if text.startswith("["):
            printed |= {(row["function"], row["root"]) for row in json.loads(text)}
        elif text.startswith("function,"):
            printed |= {(row["function"], row["root"]) for row in csv.DictReader(text.splitlines())}
        else:
            fields = dict(line.split(":", 1) for line in text.splitlines() if not line.startswith(" "))
            printed.add((fields["function"].strip(), fields.get("result", "Diverse").strip()))
    printed = {(name, root) for name, root in printed if root != "Diverse"}
    assert len(printed) > 5
    assert printed <= {(name, root) for _, name, _, root in CONVERGED}
