"""Shared test helpers."""

import os
import subprocess
import sys
from pathlib import Path

import haarnewton
from haarnewton.analysis import ConvergenceReport
from haarnewton.core import EvalCounters, Outcome, Trace

ROOT = Path(__file__).resolve().parent.parent


def run_python(*argv, stdin=b"", stdout=subprocess.PIPE, env=None, cwd=None, timeout=60):
    """``python ARGV`` in a child process, its stderr captured, that runs this
    copy of haarnewton under this process's warnings policy: the directory that
    holds the imported package goes first on PYTHONPATH, and ``-X dev`` and the
    ``-W`` options reach the child as PYTHONDEVMODE and PYTHONWARNINGS (an
    empty value of either is unset). ``env`` sets variables on top of that; a
    value of None removes one."""
    child = dict(os.environ, PYTHONDEVMODE="1" if sys.flags.dev_mode else "",
                 PYTHONWARNINGS=",".join(sys.warnoptions))
    package_dir = str(Path(haarnewton.__file__).resolve().parents[1])
    child["PYTHONPATH"] = os.pathsep.join(filter(None, [package_dir, child.get("PYTHONPATH")]))
    child = {name: value for name, value in {**child, **(env or {})}.items() if value is not None}
    return subprocess.run([sys.executable, *argv], input=stdin, stdout=stdout, stderr=subprocess.PIPE,
                          env=child, cwd=cwd, timeout=timeout)


def forbid_result_constructors(monkeypatch) -> None:
    """Make ``Outcome``, ``Trace``, ``EvalCounters`` and ``ConvergenceReport``
    raise on ``__init__``, so that only a builder that skips it can make one."""

    def forbidden(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__}.__init__ ran")

    for cls in (Outcome, Trace, EvalCounters, ConvergenceReport):
        monkeypatch.setattr(cls, "__init__", forbidden)
