"""Benchmark for haarnewton: three closed-loop workloads checked by an oracle.

Run from the root of a checkout:

    python3 perfbench/run.py --workload basin-sweep --seed 1 --seconds 20 --trace 0

Workloads: ``cli-readme`` (fresh ``python -m haarnewton`` processes running
the README commands), ``basin-sweep`` (``iterate`` from seeded starts over
f1..f7 and seven method variants) and ``resolution-scan`` (the wavelet
method at P = 2..128 followed by ``convergence_report``).

``--trace 0`` times the workload with nothing wrapped and reports the
end-to-end metrics. ``--trace 1`` runs a fixed, seeded set of operations
with spans around every layer call, writes the spans, and reports the
per-layer metrics. The report goes to stdout; its last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. A fuller record,
with the environment, goes to ``.perfbench_out/`` in the checkout.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import calibration
import probes
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("cli-readme", "basin-sweep", "resolution-scan")


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    bare = calibration.interpreter(ROOT, workloads.child_env(ROOT))
    for _ in range(5):
        bare.slice()
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "bare_interpreter_ms": bare.unit_ns / 1e6,
    }


def _git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree; read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def run(workload: str, seed: int, seconds: float, trace: bool) -> workloads.Result:
    if workload == "cli-readme":
        res = workloads.cli_readme(ROOT, seed, seconds, trace)
    else:
        res = workloads.in_process(ROOT, workload, seed, seconds, trace)
    if trace:
        add_probes(res, scale=1.0)
    return res


def add_probes(res: workloads.Result, scale: float) -> None:
    """Per-layer probes, reported as timed, with the compute reference time
    measured alongside so runs at different machine speeds can be compared."""
    res.metrics.update(probes.probe_metrics(ROOT, sys.modules["haarnewton"], res.calibrator, scale))
    res.metrics["calibration.unit_ns"] = (res.calibrator.unit_ns, "ns")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment(args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if res.tracer is not None:
        res.tracer.write(OUT_DIR / f"{stem}-spans.json")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for key, value in env.items():
        print(f"  {key}: {value}")
    for key, value in res.calibration.items():
        print(f"  calibration {key}: {value}")
    if res.as_timed:
        print("end-to-end metrics at reference speed  [as timed]")
    for name, (value, unit) in res.metrics.items():
        n = res.samples.get(name)
        raw = res.as_timed.get(name, (value,))[0]
        print(f"{name:42s} {value:14.6g} {unit}" + (f"  [{raw:.6g}]" if raw != value else "")
              + (f"  (n={n})" if n is not None else ""))
    for line in res.notes:
        print(line)
    print(f"attempted {res.attempted}  failed {res.failed}  correct {res.correct}")

    line = {
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in res.metrics.items()},
    }
    record = dict(line, workload=args.workload, seconds=args.seconds, trace=args.trace, environment=env,
                  calibration=res.calibration, as_timed={k: v for k, (v, _) in res.as_timed.items()},
                  samples=res.samples, notes=res.notes, **res.details)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
