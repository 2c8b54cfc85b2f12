"""Machine-speed calibration interleaved with every timed workload.

On a 2-vCPU Xeon virtual machine that shares its cores with other tenants
the speed of plain Python drifts by 20-40% over tens of seconds: 20-second
runs of the same code differed by that much. So each untraced run interleaves a fixed reference
task, which no change to the library can alter, with the operations it
times, and states every end-to-end time at reference speed: each measured
time is multiplied by ``ref_ns / local``, where ``local`` is a moving
average of the reference task's time over the latest slices.
Converting each sample at the speed measured next to it also corrects
percentiles, which a single factor per run does not: in a run with a slow,
noisy spell the mean of the reference task rises more than the median of
the operations.

Two reference tasks are used, each matched to the work it corrects:
- ``compute``: Newton's method on four equations in plain Python. It does
  the kind of work the in-process solvers do (calls, float arithmetic,
  libm). On that machine, scaled basin-sweep throughput over 8-second runs
  spread 3% (quartile distance over median) where unscaled spread 19%.
- ``interpreter``: a bare ``python -c pass``, the floor under every CLI
  invocation. Scaled CLI wall time over 11-second windows spread 2% where
  unscaled spread 13%; the compute task tracked process start-up badly (24%).

Per-layer probes are reported as timed; ``unit_ns`` (the mean over a run)
is printed beside them.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

COMPUTE_REF_NS = 20_000.0  # one compute unit at reference speed
INTERPRETER_REF_NS = 75e6  # one bare interpreter start at reference speed
SLICE_EVERY_NS = 10e6  # least time between two slices that ``maybe`` runs

_EQUATIONS = (
    (lambda x: x**5 - x + 1.0, lambda x: 5.0 * x**4 - 1.0, -1.5),
    (lambda x: math.cos(x) - x, lambda x: -math.sin(x) - 1.0, 1.2),
    (lambda x: x**3 - math.exp(-x), lambda x: 3.0 * x * x + math.exp(-x), 2.0),
    (lambda x: math.exp(-x) - math.cos(x), lambda x: -math.exp(-x) + math.sin(x), 1.5),
)


class _Count:
    __slots__ = ("n",)


def newton_unit() -> float:
    """Six Newton steps on each equation; the same work on every call."""
    count = _Count()
    count.n = 0
    total = 0.0
    for f, df, x in _EQUATIONS:
        trail = [x]
        for _ in range(6):
            fx = f(x)
            count.n += 1
            d = df(x)
            count.n += 1
            if d == 0.0 or not math.isfinite(d):
                break
            x = x - fx / d
            trail.append(x)
        total += trail[-1] + count.n
    return total


class Calibrator:
    """Runs slices of a reference task; ``maybe`` runs one at most every
    ``SLICE_EVERY_NS``. ``local_factor`` turns a measured time into one at
    reference speed."""

    def __init__(self, unit, ref_ns: float, units_per_slice: int, smoothing: float) -> None:
        self._unit = unit
        self.ref_ns = ref_ns
        self.units_per_slice = units_per_slice
        self.smoothing = smoothing  # weight of the newest slice in the moving average
        self.units = 0
        self.spent_ns = 0
        self.local_ns = 0.0
        self._next = 0

    def slice(self) -> int:
        """Run one slice now; returns the nanoseconds it took."""
        t0 = time.perf_counter_ns()
        for _ in range(self.units_per_slice):
            self._unit()
        t1 = time.perf_counter_ns()
        per_unit = (t1 - t0) / self.units_per_slice
        a = self.smoothing if self.units else 1.0
        self.local_ns = (1.0 - a) * self.local_ns + a * per_unit
        self.units += self.units_per_slice
        self.spent_ns += t1 - t0
        self._next = t1 + SLICE_EVERY_NS
        return t1 - t0

    def maybe(self, now_ns: int) -> int:
        """A slice if one is due at ``now_ns``; returns its nanoseconds, or 0."""
        return self.slice() if now_ns >= self._next else 0

    @property
    def unit_ns(self) -> float:
        """Mean time of one unit over every slice so far."""
        return self.spent_ns / self.units

    @property
    def local_factor(self) -> float:
        """Multiply a time measured now by this to state it at reference speed."""
        return self.ref_ns / self.local_ns


def compute() -> Calibrator:
    return Calibrator(newton_unit, COMPUTE_REF_NS, units_per_slice=20, smoothing=0.2)


def interpreter(root, env) -> Calibrator:
    def bare():
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env, check=True)
    return Calibrator(bare, INTERPRETER_REF_NS, units_per_slice=1, smoothing=0.5)
