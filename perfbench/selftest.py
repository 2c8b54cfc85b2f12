"""Self-test of the benchmark at a tiny size. Makes no wall-clock assertions.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks that
- every workload reports exactly the metric names and units that
  BENCHMARK.json lists (end-to-end untraced, per-layer traced);
- ``run.py`` prints one JSON object with exactly the contract keys last;
- the oracle flags a planted wrong root and counts it as a failed operation,
  while ``correct`` stays true; a planted raising equation makes it false;
- the traced counts, and the untraced ``attempted`` and ``failed``, repeat
  exactly for the same seed.
Exits 0 when all pass, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys

import workloads
from run import ROOT, add_probes

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def units(metrics: dict) -> dict:
    return {name: unit for name, (_, unit) in metrics.items()}


def tiny(workload: str, trace: bool) -> workloads.Result:
    if workload == "cli-readme":
        res = workloads.cli_readme(ROOT, 1, 0.5, trace, **({"traced_cycles": 1} if trace else {}))
    else:
        res = workloads.in_process(ROOT, workload, 1, 0.3, trace, starts=2,
                                   **({"traced_ops": 30} if trace else {}))
    if trace:
        add_probes(res, scale=0.005)
    return res


def schema() -> None:
    for workload in SPEC_WORKLOADS:
        res = tiny(workload, trace=False)
        check(units(res.metrics) == E2E, f"{workload}: end-to-end names and units match BENCHMARK.json")
        check(all(math.isfinite(v) and v > 0 for v, _ in res.metrics.values()), f"{workload}: end-to-end values positive")
        check(res.correct and res.failed == 0 if workload != "basin-sweep" else res.correct,
              f"{workload}: tiny untraced run correct")
        res = tiny(workload, trace=True)
        check(units(res.metrics) == LAYER, f"{workload}: per-layer names and units match BENCHMARK.json")
        missing = sorted(set(LAYER) - set(res.metrics)) + sorted(set(res.metrics) - set(LAYER))
        if missing:
            print("  differing names:", missing)


def planted_f3(f):
    """A suite hook that replaces f3's f by ``f``."""
    def hook(hn):
        suite = hn.builtin_suite()
        for i, entry in enumerate(suite):
            if entry.problem.name == "f3":
                suite[i] = hn.SuiteEntry(hn.Problem("f3", f, entry.problem.df), entry.x0)
        return suite
    return hook


def planted_wrong_root() -> None:
    hook = planted_f3(lambda x: math.atan(x) - 0.5)
    res = workloads.in_process(ROOT, "resolution-scan", 3, 0.3, False, starts=2, suite_hook=hook)
    false_f3 = [f for f in res.details["failures"] if f[0] == "false-convergence" and f[1][0] == "f3"]
    check(bool(false_f3), "oracle flags the roots of a planted wrong f3")
    check(res.failed > 0 and any(ln.startswith(f"failed_share: {res.failed}/") for ln in res.notes),
          "planted wrong roots are counted in failed_share")
    check(res.correct, "false convergences alone leave correct true")


def planted_raise() -> None:
    def raising(x):
        raise RuntimeError("planted")

    res = workloads.in_process(ROOT, "resolution-scan", 3, 0.3, False, starts=2, suite_hook=planted_f3(raising))
    check(res.failed > 0 and not res.correct, "an operation that raises fails and makes the run incorrect")


def counts_repeat() -> None:
    names = [n for n in LAYER if n.startswith("methods.") and LAYER[n] == "count"]
    a = workloads.in_process(ROOT, "basin-sweep", 7, 0.3, True, starts=3, traced_ops=40)
    b = workloads.in_process(ROOT, "basin-sweep", 7, 0.3, True, starts=3, traced_ops=40)
    check(all(a.metrics[n] == b.metrics[n] for n in names), "traced methods.* counts repeat for the same seed")
    # A timed loop cut after its first operation must still check every input.
    short = workloads.in_process(ROOT, "basin-sweep", 7, 1e-9, False, starts=3)
    full = workloads.in_process(ROOT, "basin-sweep", 7, 0.3, False, starts=3)
    check((short.attempted, short.failed) == (full.attempted, full.failed) and short.attempted == 7 * 7 * 3,
          "untraced attempted and failed count every seeded input, however far the timed loop got")


def last_line() -> None:
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "resolution-scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True)
    check(proc.returncode == 0, "run.py exits 0")
    try:
        line = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        line = {}
    check(sorted(line) == ["attempted", "correct", "failed", "metrics"], "last line has exactly the contract keys")
    check(isinstance(line.get("attempted"), int) and line["attempted"] >= 1, "attempted is a positive integer")
    check({k: v.get("unit") for k, v in line.get("metrics", {}).items()} == E2E, "last line lists every end-to-end metric")


SPEC_WORKLOADS = [w["name"] for w in SPEC["workloads"]]

if __name__ == "__main__":
    schema()
    planted_wrong_root()
    planted_raise()
    counts_repeat()
    last_line()
    print(f"{len(FAILURES)} failed")
    sys.exit(1 if FAILURES else 0)
