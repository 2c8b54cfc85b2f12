"""The experiment scripts run against the package in src/: smoke tests, and
convergence_diagnostics.py against its golden stdout. Also the CI workflow's
pinned test dependencies against pyproject.toml's ``test`` extra."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from haarnewton.bench import SUITE
from haarnewton.methods import FsVariant

ROOT = Path(__file__).resolve().parent.parent
NAMES = [entry.problem.name for entry in SUITE]


def run_script(name):
    """The script's (stdout, stderr) bytes, after checking that it exited 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        capture_output=True, env=env, cwd=ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout, done.stderr


def script_lines(name):
    return run_script(name)[0].decode().splitlines()


def test_reproduce_comparison_prints_both_fs_grids():
    lines = script_lines("reproduce_comparison.py")
    headers = [line for line in lines if line.startswith("== fs inner point:")]
    assert headers == [f"== fs inner point: {v.value} ==" for v in FsVariant]
    for name in NAMES:
        # five methods per grid, two grids
        assert sum(line.split()[:1] == [name] for line in lines) == 10


def test_convergence_diagnostics_reports_every_suite_function():
    lines = script_lines("convergence_diagnostics.py")
    for name in NAMES:
        assert sum(line.startswith(f"  {name}: IT=") for line in lines) == 1, name
    assert any(line.strip().startswith("empirical:") for line in lines)


# Regenerate only for a deliberate change of output:
#   PYTHONPATH=src python3 scripts/convergence_diagnostics.py \
#       > tests/golden/script_convergence_diagnostics.txt
def test_convergence_diagnostics_prints_its_golden_output():
    stdout, stderr = run_script("convergence_diagnostics.py")
    assert stderr == b""
    assert stdout == (ROOT / "tests" / "golden" / "script_convergence_diagnostics.txt").read_bytes()


def test_ci_pins_exactly_the_test_extra():
    # regexes, not tomllib or a YAML parser: Python 3.10 has no tomllib
    pyproject = (ROOT / "pyproject.toml").read_text()
    extra = re.findall(r'"([^"]+)"', re.search(r"^test = \[(.*)\]$", pyproject, re.M).group(1))
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    [install] = re.findall(r"^\s*run: python -m pip install (.+)$", workflow, re.M)
    pins = [re.fullmatch(r"([\w.-]+)==[\w.]+", spec) for spec in install.split()]
    assert all(pins), f"not every package is pinned: {install}"
    assert sorted(pin.group(1) for pin in pins) == sorted(extra)
