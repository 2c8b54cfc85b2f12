"""The experiment script against its golden stdout, and the golden checker
against the golden directory; the README lists exactly the scripts there
are. Also the CI workflow's pinned test dependencies against pyproject.toml's
``test`` extra, its expected failures against the criterion-3 runs, the
console script against the CLI's process entry, and the kill-matrix tool's
mutants, enumerated without running one."""

import importlib
import re
from collections import Counter

from haarnewton import cli
from haarnewton.core import Status

import goldens
import mutants
from helpers import ROOT
from test_acceptance import DIVERGENT_IDS, REFERENCE_DIVERGENT, run_cell


def test_convergence_diagnostics_prints_its_golden_output():
    goldens.script()


def test_checker_compares_exactly_the_golden_files():
    # an orphan golden file, or a check with no file, fails here
    compared = {file for _, file, _ in goldens.CHECKS if file}
    assert compared == {path.name for path in goldens.GOLDEN.iterdir()}
    assert len(compared) == 13


def test_ci_pins_exactly_the_test_extra():
    # regexes, not tomllib or a YAML parser: Python 3.10 has no tomllib
    pyproject = (ROOT / "pyproject.toml").read_text()
    extra = re.findall(r'"([^"]+)"', re.search(r"^test = \[(.*)\]$", pyproject, re.M).group(1))
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    [install] = re.findall(r"^\s*run: python -m pip install (.+)$", workflow, re.M)
    pins = [re.fullmatch(r"([\w.-]+)==[\w.]+", spec) for spec in install.split()]
    assert all(pins), f"not every package is pinned: {install}"
    assert sorted(pin.group(1) for pin in pins) == sorted(extra)


def test_ci_expects_exactly_the_criterion_3_cells_that_converge():
    # the by-design failures: the cells the reference table records as
    # divergent whose run converges from the suite start
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    assert 'f"tests.test_acceptance::test_criterion_3_divergence_reproduction[{cell}]"' in workflow
    [cells] = re.findall(r"^\s*for cell in \((.*)\)$", workflow, re.M)
    converging = {cell for cell, (name, method) in zip(DIVERGENT_IDS, REFERENCE_DIVERGENT)
                  if run_cell(name, method).status is Status.CONVERGED}
    assert set(re.findall(r'"([^"]+)"', cells)) == converging


def test_readme_lists_exactly_the_scripts():
    readme = (ROOT / "README.md").read_text()
    listed = re.findall(r"^python3 scripts/(\S+\.py)\b", readme, re.M)
    # every listed script exists, and every script is listed
    assert sorted(listed) == sorted(path.name for path in (ROOT / "scripts").glob("*.py"))


def test_console_script_resolves_to_cli_main():
    # the process entry, as python -m haarnewton runs it, not the in-process
    # main; a regex, not tomllib: Python 3.10 has no tomllib
    pyproject = (ROOT / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n((?:[^[\n].*\n)*)", pyproject, re.M).group(1)
    [(name, module, attr)] = re.findall(r'^(\S+) = "([\w.]+):(\w+)"$', scripts, re.M)
    assert name == "haarnewton"
    assert getattr(importlib.import_module(module), attr) is cli.run


# mutants per module; CI's 3.10-3.13 matrix checks that every version enumerates these
# (3.12 tokenizes f-strings apart, so mutants.py skips operators inside them)
MUTANTS_PER_MODULE = {"core": 17, "quadrature": 11, "methods": 62, "analysis": 29, "bench": 48, "cli": 37}


def test_mutants_are_enumerated_the_same_every_run_and_each_compiles():
    every = mutants.mutants()
    assert every == mutants.mutants()
    assert Counter(mutant.module for mutant in every) == MUTANTS_PER_MODULE
    for mutant in every:
        compile(mutant.source, f"{mutant.module}.py", "exec")
    # each equivalent entry names exactly one mutant, so a stale entry fails
    keys = Counter((mutant.module, mutant.text, mutant.swap) for mutant in every)
    assert {key: keys[key] for key in mutants.EQUIVALENT} == dict.fromkeys(mutants.EQUIVALENT, 1)
