"""The experiment script runs against the package in src/: a smoke test, and
convergence_diagnostics.py against its golden stdout; the README lists
exactly the scripts there are. Also the CI workflow's pinned test
dependencies against pyproject.toml's ``test`` extra, and its console script
against the CLI's entry point."""

import importlib
import re
import subprocess
import sys

from haarnewton import cli
from haarnewton.bench import SUITE

from helpers import ROOT, child_env

NAMES = [entry.problem.name for entry in SUITE]


def run_script(name):
    """The script's (stdout, stderr) bytes, after checking that it exited 0."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        capture_output=True, env=child_env(), cwd=ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout, done.stderr


def script_lines(name):
    return run_script(name)[0].decode().splitlines()


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


def test_readme_lists_exactly_the_scripts():
    readme = (ROOT / "README.md").read_text()
    listed = re.findall(r"^python3 scripts/(\S+\.py)\b", readme, re.M)
    # every listed script exists, and every script is listed
    assert sorted(listed) == sorted(path.name for path in (ROOT / "scripts").glob("*.py"))


def test_console_script_resolves_to_cli_main():
    # a regex, not tomllib: Python 3.10 has no tomllib
    pyproject = (ROOT / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n((?:[^[\n].*\n)*)", pyproject, re.M).group(1)
    [(name, module, attr)] = re.findall(r'^(\S+) = "([\w.]+):(\w+)"$', scripts, re.M)
    assert name == "haarnewton"
    assert getattr(importlib.import_module(module), attr) is cli.main
