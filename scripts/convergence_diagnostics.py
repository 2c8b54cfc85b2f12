#!/usr/bin/env python3
"""Convergence-order and error-constant diagnostics for the wavelet method."""

import math

from haarnewton.analysis import convergence_report
from haarnewton.bench import builtin_suite
from haarnewton.core import Problem, Status
from haarnewton.methods import MethodId, iterate


def main() -> None:
    method = MethodId("new", haar_points=2)
    print("suite convergence orders (wavelet method, P = 2):")
    for entry in builtin_suite():
        outcome = iterate(method, entry.problem, entry.x0)
        if outcome.status is not Status.CONVERGED or len(outcome.trace.iterates) < 4:
            print(f"  {entry.problem.name}: {outcome.status.value}")
            continue
        rho = convergence_report(outcome.trace, outcome.root).coc
        print(f"  {entry.problem.name}: IT={outcome.iterations}  rho={rho:.3f}")

    print()
    print("asymptotic error constant check on e^x - 1 (c2=1/2, c3=1/6):")
    problem = Problem("expm1", lambda x: math.exp(x) - 1.0, math.exp)
    outcome = iterate(method, problem, 0.05)
    empirical = convergence_report(outcome.trace, outcome.root).error_constant_empirical
    _, theoretical = method.error_law(0.5, 1.0 / 6.0)
    print(f"  empirical:   {empirical:.6f}")
    print(f"  theoretical: {theoretical:.6f}  (23/96)")


if __name__ == "__main__":
    main()
