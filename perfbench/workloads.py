"""The three workloads: seeded inputs, the timed closed loop, and the checks.

Every workload is a closed loop with one client in one process: the next
operation starts only when the previous one has returned. The library
receives only ``Problem``, ``MethodId`` and ``x0`` values built here.
"""

from __future__ import annotations

import compileall
import contextlib
import csv
import importlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import calibration
from calibration import Calibrator
from oracle import Oracle, check_suite_matches, counts_ok, mp_value
from tracing import Tracer, children_of, self_times, span_cost_ns

# basin-sweep: every suite function, seven method variants, starts drawn
# uniformly within +-BASIN_RADIUS of the suite x0 (stratified) and shared by
# the methods.
BASIN_METHODS = (
    ("newton", 2, "as-printed"),
    ("wf", 2, "as-printed"),
    ("fs", 2, "as-printed"),
    ("fs", 2, "standard-midpoint"),
    ("oz", 2, "as-printed"),
    ("klw", 2, "as-printed"),
    ("new", 2, "as-printed"),
)
BASIN_RADIUS = 4.0
BASIN_STARTS = 1000

# resolution-scan: the wavelet method at P = 2^(j1+1), j1 = 0..6, from the
# suite x0 and seeded starts within +-SCAN_RADIUS of it.
SCAN_POINTS = (2, 4, 8, 16, 32, 64, 128)
SCAN_RADIUS = 0.5
SCAN_STARTS = 500

# cli-readme: the five README commands, run as fresh processes.
CLI_COMMANDS = {
    "solve_f2_new": ["solve", "--function", "f2", "--method", "new", "--m", "1"],
    "solve_f6_klw_trace": ["solve", "--function", "f6", "--method", "klw", "--trace"],
    "compare_csv": ["compare", "--format", "csv"],
    "compare_f6_new_json": ["compare", "--functions", "f6", "--methods", "new", "--format", "json"],
    "coc_f6_new": ["coc", "--function", "f6", "--method", "new", "--m", "1"],
}
EXIT_CODES = {"converged": 0, "diverged": 2, "max-iterations": 2, "derivative-breakdown": 3}

SETUP_REPS = 25  # a single set-up varies by about 15% on a shared host
FAILURE_LINES = 25  # distinct failing inputs listed in the report
# in-process operations in the traced pass, about 80k spans each
TRACED_OPS = {"basin-sweep": 2000, "resolution-scan": 250}
TRACED_CLI_CYCLES = 10  # rounds of the five commands in the traced pass
# The highest percentile with at least ten samples beyond it: in-process runs
# have 24549 or 49000 inputs, a CLI run about 150 invocations.
IN_PROCESS_TAIL = 99.9
CLI_TAIL = 90.0
# Latencies kept per input, a uniform sample of its calls over the whole run;
# fixed so memory does not follow throughput. Each input is called 5-15
# times in 30 seconds.
KEPT_PER_INPUT = 5


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    samples: dict = field(default_factory=dict)  # metric name -> sample count
    notes: list = field(default_factory=list)  # lines for the report
    details: dict = field(default_factory=dict)  # extra JSON for the result file
    as_timed: dict = field(default_factory=dict)  # metrics before scaling to reference speed
    calibration: dict = field(default_factory=dict)  # how they were scaled
    tracer: Tracer | None = None
    calibrator: Calibrator | None = None  # the compute reference, for the probes


# --- loading the package under test -----------------------------------------


def child_env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def load_package(root: Path):
    """Import haarnewton afresh from ``root/src``; refuse any other copy."""
    src = str(root / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "haarnewton" or m.startswith("haarnewton.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    hn = importlib.import_module("haarnewton")
    if not Path(hn.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise ImportError(f"haarnewton imported from {hn.__file__}, not from {src}")
    return hn


def timed_setup(root: Path, env: dict, cal: Calibrator, code: str, recompile: bool = False):
    """``SETUP_REPS`` times: run ``code`` in a fresh interpreter, after
    force-compiling the package's bytecode when ``recompile`` is set
    (otherwise one untimed run first warms the bytecode). A fresh process
    times interpreter start-up and every import the library makes, none of
    which the benchmark's own process has left warm. Returns the times in
    seconds as timed and at reference speed."""
    pkg = root / "src" / "haarnewton"
    if not pkg.is_dir():
        raise FileNotFoundError(f"no package to benchmark at {pkg}")
    cmd = [sys.executable, "-c", code]
    if not recompile:
        subprocess.run(cmd, cwd=root, env=env, check=True)
    times = ([], [])
    for _ in range(SETUP_REPS):
        cal.slice()
        t0 = time.perf_counter()
        if recompile and not compileall.compile_dir(str(pkg), force=True, quiet=1):
            raise RuntimeError("bytecode compilation failed")
        subprocess.run(cmd, cwd=root, env=env, check=True)
        _record(times, time.perf_counter() - t0, cal)
    return times


def _record(times, value: float, cal: Calibrator) -> None:
    times[0].append(value)
    times[1].append(value * cal.local_factor)


# --- seeded inputs ------------------------------------------------------------


def stratified(rng: random.Random, centre: float, radius: float, n: int) -> list:
    """``n`` points uniform within +-radius of ``centre``, one in each of
    ``n`` equal strata. Seeds then differ only within strata, so the share of
    costly starts, which sets the latency tail, hardly varies between seeds."""
    width = 2.0 * radius / n
    return [centre - radius + (k + rng.random()) * width for k in range(n)]


def basin_ops(hn, suite, seed: int, starts: int = BASIN_STARTS):
    """Shuffled ((method, problem, x0), (function, label, tag, P, x0)) pairs."""
    rng = random.Random(seed)
    methods = [
        (hn.MethodId(tag, haar_points=p, fs_variant=hn.FsVariant(v)), tag, p)
        for tag, p, v in BASIN_METHODS
    ]
    ops = []
    for entry in suite:
        xs = stratified(rng, entry.x0, BASIN_RADIUS, starts)
        for method, tag, p in methods:
            meta = (entry.problem.name, method.label, tag, p)
            ops.extend(((method, entry.problem, x), (*meta, x)) for x in xs)
    rng.shuffle(ops)
    return ops


def scan_ops(hn, suite, seed: int, starts: int = SCAN_STARTS):
    rng = random.Random(seed)
    ops = []
    for p in SCAN_POINTS:
        method = hn.MethodId("new", haar_points=p)
        for entry in suite:
            xs = [entry.x0] + stratified(rng, entry.x0, SCAN_RADIUS, starts)
            meta = (entry.problem.name, method.label, "new", p)
            ops.extend(((method, entry.problem, x), (*meta, x)) for x in xs)
    rng.shuffle(ops)
    return ops


# --- the operations -----------------------------------------------------------


def scan_call(hn):
    """iterate, then convergence_report when there are 4+ iterates to use."""
    iterate, report = hn.iterate, hn.convergence_report

    def solve_and_report(method, problem, x0):
        out = iterate(method, problem, x0)
        rep = None
        if len(out.trace.iterates) >= 4 and math.isfinite(out.root):
            rep = report(out.trace, out.root, n_points=method.haar_points)
        return out, rep

    return solve_and_report


def summary(result) -> tuple:
    """The part of an operation's output that is checked and compared."""
    out, rep = result if isinstance(result, tuple) else (result, None)
    row = (out.status.value, out.root, out.iterations, out.nfe)
    if rep is not None:
        row += (rep.coc, rep.error_constant_empirical, rep.usable_triples)
    return row


def outcome(call, args) -> tuple:
    """The checked summary of one untimed call, or why it raised."""
    try:
        return summary(call(*args))
    except Exception as exc:  # a raising operation is counted as failed
        return ("raised", repr(exc))


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    k = max(0, min(len(sorted_values) - 1, math.ceil(q / 100.0 * len(sorted_values)) - 1))
    return sorted_values[k]


def closed_loop(ops, call, seconds: float, seed: int, cal: Calibrator):
    """Run ``call(*args)`` over ``ops`` in order, wrapping round, until
    ``seconds`` have passed, with calibration slices in between. A uniform
    sample of ``KEPT_PER_INPUT`` latencies of each input is kept (a
    reservoir per input), as timed and at reference speed, and the latency
    of an input is their median: a call that the host interrupts then does
    not set the tail. On a shared host the interruptions, not the library,
    set the p99.9 of single calls: its quartile spread over ten basin-sweep
    seeds was 11%. The peak RSS is read as the loop ends, before the
    medians are taken."""
    n_ops = len(ops)
    first: list = [None] * n_ops
    changed: set = set()
    runs = [0] * n_ops
    lat = array("q", bytes(8 * KEPT_PER_INPUT * n_ops))
    lat_ref = array("d", bytes(8 * KEPT_PER_INPUT * n_ops))
    busy = busy_ref = 0.0
    slot = random.Random(seed).randrange
    now = time.perf_counter_ns
    n = i = 0
    cal.slice()
    scale = cal.local_factor
    deadline = now() + int(seconds * 1e9)
    while True:
        args = ops[i][0]
        t0 = now()
        try:
            out = call(*args)
        except Exception as exc:  # a raising operation is counted as failed
            out = exc
        t1 = now()
        d = t1 - t0
        busy += d
        busy_ref += d * scale
        r = runs[i]
        j = r if r < KEPT_PER_INPUT else slot(r + 1)
        if j < KEPT_PER_INPUT:
            lat[KEPT_PER_INPUT * i + j], lat_ref[KEPT_PER_INPUT * i + j] = d, d * scale
        runs[i] = r + 1
        n += 1
        row = ("raised", repr(out)) if isinstance(out, Exception) else summary(out)
        ref = first[i]
        if ref is None:
            first[i] = row
        elif row != ref and repr(row) != repr(ref):
            changed.add(i)
        if cal.maybe(t1):
            scale = cal.local_factor
        if t1 >= deadline:
            break
        i = i + 1 if i + 1 < n_ops else 0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    medians = ([], [])
    for i, r in enumerate(runs):
        if r:
            lo, hi = KEPT_PER_INPUT * i, KEPT_PER_INPUT * i + min(r, KEPT_PER_INPUT)
            medians[0].append(statistics.median(lat[lo:hi]))
            medians[1].append(statistics.median(lat_ref[lo:hi]))
    return {"count": n, "peak_rss_mb": peak_rss_mb, "busy_ns": (busy, busy_ref),
            "lat_ns": (sorted(medians[0]), sorted(medians[1])), "first": first, "changed": changed}


def verdict(meta, row, oracle: Oracle) -> str | None:
    """Why an operation's output is wrong, or None when it passes."""
    if row[0] == "raised":
        return f"raised {row[1]}"
    function, _, tag, points, _ = meta
    status, root, iterations, nfe = row[:4]
    if not counts_ok(tag, points, status, iterations, nfe):
        return "nfe-mismatch"
    if status == "converged" and not oracle.root_ok(function, root):
        return "false-convergence"
    return None


def judge(ops, first, oracle: Oracle):
    """The distinct failing inputs, with why each fails."""
    failures = []
    for (_, meta), row in zip(ops, first):
        why = verdict(meta, row, oracle)
        if why is not None:
            failures.append((why, meta, row))
    return failures


def failure_lines(failures) -> list:
    lines = []
    for why, (function, label, _, _, x0), row in failures[:FAILURE_LINES]:
        line = f"  {why}: {function}/{label} x0={x0!r} status={row[0]}"
        if why == "false-convergence":
            line += f" root={row[1]!r} f(root)={mp_value(function, row[1]):.3g} it={row[2]}"
        lines.append(line)
    if len(failures) > FAILURE_LINES:
        lines.append(f"  ... {len(failures) - FAILURE_LINES} more distinct failing inputs")
    return lines


# --- in-process workloads -----------------------------------------------------


def in_process(root: Path, name: str, seed: int, seconds: float, trace: bool,
               starts: int | None = None, suite_hook=None, traced_ops: int | None = None) -> Result:
    """basin-sweep or resolution-scan. ``suite_hook(hn)`` may replace the
    built-in suite (the self-test plants a wrong equation with it).

    ``attempted`` and ``failed`` count distinct seeded inputs, so they repeat
    exactly for a seed whatever the machine's speed: inputs the timed loop
    did not reach are run once more, untimed, to be checked.

    ``correct`` is false when outputs change on repeat, or when an operation
    raises or miscounts its evaluations. False convergences, which the
    library's stop rule is known to produce, count only in ``failed``."""
    make_ops = basin_ops if name == "basin-sweep" else scan_ops
    size = {} if starts is None else {"starts": starts}
    env = child_env(root)
    setup_cal, cal = calibration.interpreter(root, env), calibration.compute()
    setup = timed_setup(root, env, setup_cal, "import haarnewton; haarnewton.builtin_suite()")
    hn = load_package(root)
    suite = hn.builtin_suite() if suite_hook is None else suite_hook(hn)
    ops = make_ops(hn, suite, seed, **size)
    call = hn.iterate if name == "basin-sweep" else scan_call(hn)
    if trace:
        res = traced_in_process(hn, name, ops[:traced_ops or TRACED_OPS[name]], call, cal)
        res.calibrator = cal
        return res

    loop = closed_loop(ops, call, seconds, seed, cal)
    first = loop["first"]
    reached = sum(1 for row in first if row is not None)
    for i, row in enumerate(first):
        if row is None:
            first[i] = outcome(call, ops[i][0])
    oracle = Oracle()
    check_suite_matches(hn.builtin_suite())
    failures = judge(ops, first, oracle)
    failed = len(failures)
    unexpected = [f for f in failures if f[0] != "false-convergence"]
    res = Result(correct=not loop["changed"] and not unexpected, attempted=len(ops), failed=failed)
    end_to_end(res, setup, loop["count"], loop["busy_ns"], loop["lat_ns"], IN_PROCESS_TAIL, loop["peak_rss_mb"])
    res.calibration = calibration_record("compute", setup_cal, cal)
    kept = len(loop["lat_ns"][0])
    res.notes = [
        f"latency: p50 and p{IN_PROCESS_TAIL:g} over {kept} inputs of each input's median"
        f" of {KEPT_PER_INPUT} of its calls",
        f"timed operations: {loop['count']}; distinct inputs: {len(ops)}, reached by the timed loop: {reached}",
        f"oracle: {oracle.checked} distinct roots checked at 50 digits",
        f"failed_share: {failed}/{len(ops)} = {failed / len(ops):.6f} distinct inputs",
        *failure_lines(failures),
    ]
    if loop["changed"]:
        res.notes.append(f"NOT DETERMINISTIC: {len(loop['changed'])} inputs gave different outputs on repeat")
    if unexpected:
        res.notes.append(f"INCORRECT: {len(unexpected)} inputs raised or miscounted evaluations")
    res.details = {"failures": [[w, list(m), list(map(repr, r))] for w, m, r in failures]}
    return res


def end_to_end(res: Result, setup, count: int, busy_ns, lat_ns, tail: float, peak_rss_mb: float) -> None:
    """Fill ``res.as_timed`` and ``res.metrics`` (at reference speed) from
    (as timed, at reference speed) pairs of set-up times, total operation
    time and sorted latencies."""
    for k, target in enumerate((res.as_timed, res.metrics)):
        target.update({
            "setup_s": (statistics.median(setup[k]), "s"),
            "ops_per_s": (count / (busy_ns[k] / 1e9), "1/s"),
            "op_us_p50": (percentile(lat_ns[k], 50) / 1e3, "us"),
            "op_us_tail": (percentile(lat_ns[k], tail) / 1e3, "us"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        })
    n = len(lat_ns[0])
    res.samples = {"setup_s": len(setup[0]), "ops_per_s": count, "op_us_p50": n, "op_us_tail": n}


def calibration_record(reference: str, setup_cal: Calibrator, cal: Calibrator) -> dict:
    return {"reference": reference, "unit_ns": cal.unit_ns, "units": cal.units,
            "setup_reference": "interpreter", "setup_unit_ns": setup_cal.unit_ns, "setup_units": setup_cal.units}


def traced_in_process(hn, name: str, ops, call, cal: Calibrator) -> Result:
    """One untraced and one traced pass over the same fixed operations."""
    def untraced_wall():
        cal.slice()
        t0 = time.perf_counter_ns()
        for args, _ in ops:
            call(*args)
        return time.perf_counter_ns() - t0

    tracer = Tracer()
    wrapped = {}
    for (_, problem, _), _ in ops:
        if problem.name not in wrapped:
            wrapped[problem.name] = hn.Problem(
                problem.name, tracer.wrap_leaf("user_f", problem.f), tracer.wrap_leaf("user_df", problem.df)
            )
    solves = []
    raised = 0
    iterate, report = hn.iterate, hn.convergence_report

    def op(method, problem, x0):
        nonlocal raised
        try:
            out = tracer.call("iterate", iterate, method, wrapped[problem.name], x0)
            solves.append((problem.name, method.tag, method.haar_points, out))
            if name == "resolution-scan" and len(out.trace.iterates) >= 4 and math.isfinite(out.root):
                tracer.call("convergence_report", report, out.trace, out.root, n_points=method.haar_points)
        except Exception:  # counted as failed, as in the untraced loop
            raised += 1

    before = untraced_wall()
    cal.slice()
    t0 = time.perf_counter_ns()
    for args, _ in ops:
        tracer.operation(op, *args)
    traced = time.perf_counter_ns() - t0
    after = untraced_wall()
    res = span_result(tracer, solves, traced, (before + after) / 2)
    res.failed += raised
    res.correct = res.correct and not raised
    return res


def span_result(tracer: Tracer, solves, traced_ns: float, untraced_ns: float) -> Result:
    """Per-layer metrics derived from the spans and the recorded solves.

    A solve fails when it fails a check; ``correct`` is false when one
    miscounts its evaluations."""
    oracle = Oracle()
    spans = tracer.spans
    total, own, count = self_times(spans)
    cost = span_cost_ns()
    under_iterate = sum(children_of(spans, "iterate").values())
    nfe = sum(o.nfe for *_, o in solves)
    it_self = own.get("iterate", 0) - cost * under_iterate
    it_total = total.get("iterate", 0) - cost * under_iterate
    useful = failed = false_conv = miscounted = 0
    status = {"converged": 0, "diverged": 0, "max-iterations": 0, "derivative-breakdown": 0}
    for function, tag, points, o in solves:
        s = o.status.value
        status[s] += 1
        root_ok = s == "converged" and oracle.root_ok(function, o.root)
        if root_ok:
            useful += o.nfe
        if s == "converged" and not root_ok:
            false_conv += 1
        counted = counts_ok(tag, points, s, o.iterations, o.nfe)
        miscounted += not counted
        if not counted or (s == "converged" and not root_ok):
            failed += 1
    op_total = total.get("operation", 0) or 1
    m = {
        "core.callable_calls_per_nfe": (
            (count.get("user_f", 0) + count.get("user_df", 0)) / max(nfe, 1), "ratio"),
        "methods.iterate_ns_per_nfe": (it_self / max(nfe, 1), "ns"),
        "methods.iterate_self_share": (it_self / it_total if it_total > 0 else 0.0, "ratio"),
        "methods.solves": (len(solves), "count"),
        "methods.iterations": (sum(o.iterations for *_, o in solves), "count"),
        "methods.nfe": (nfe, "count"),
        "methods.status.converged": (status["converged"], "count"),
        "methods.status.diverged": (status["diverged"], "count"),
        "methods.status.max_iterations": (status["max-iterations"], "count"),
        "methods.status.breakdown": (status["derivative-breakdown"], "count"),
        "methods.false_converged": (false_conv, "count"),
        "methods.nfe_useful_share": (useful / max(nfe, 1), "ratio"),
        "trace.overhead_share": (traced_ns / untraced_ns - 1.0, "ratio"),
        "trace.span_cost_ns": (cost, "ns"),
        "trace.spans": (len(spans), "count"),
    }
    for span_name in SPAN_NAMES:
        m[f"trace.self_share.{span_name}"] = (own.get(span_name, 0) / op_total, "ratio")
    ops = count.get("operation", 0)
    res = Result(correct=not miscounted, attempted=ops, failed=failed, metrics=m)
    res.tracer = tracer
    res.notes = [f"traced operations: {ops}, spans: {len(spans)}, span cost {cost:.1f} ns"]
    return res


SPAN_NAMES = ("operation", "cli_main", "run_comparison", "format_table", "iterate",
              "convergence_report", "user_f", "user_df")


# --- cli-readme ---------------------------------------------------------------


def _fields(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if sep and not line.startswith(" "):
            out[key.strip()] = value.strip()
    return out


def _label_method(label: str) -> tuple[str, int]:
    if label.startswith("new[P="):
        return "new", int(label[6:-1])
    return ("fs" if label == "fs(std)" else label), 2


def _check_rows(rows, reference, oracle: Oracle) -> str | None:
    if len(rows) != len(reference):
        return "row-count"
    for row, ref in zip(rows, reference):
        tag, points = _label_method(row["method"])
        status, iterations, nfe = row["status"], int(row["iterations"]), int(row["nfe"])
        if (row["function"], row["method"], status, iterations, nfe, row["root"]) != (
            ref.function, ref.method, ref.status, ref.iterations, ref.nfe, ref.root
        ):
            return f"differs from in-process run at {row['function']}/{row['method']}"
        if not counts_ok(tag, points, status, iterations, nfe):
            return f"nfe-mismatch at {row['function']}/{row['method']}"
        if status == "converged" and not oracle.root_ok(row["function"], float(row["root"])):
            return f"false-convergence at {row['function']}/{row['method']}"
    return None


def check_cli_output(hn, argv, rc: int, stdout: str, oracle: Oracle) -> str | None:
    """Check one README command's output against the library called directly."""
    suite = {e.problem.name: e for e in hn.builtin_suite()}
    if argv[0] == "compare":
        functions = argv[argv.index("--functions") + 1].split(",") if "--functions" in argv else list(suite)
        labels = argv[argv.index("--methods") + 1].split(",") if "--methods" in argv else ["wf", "fs", "oz", "klw", "new"]
        table = hn.run_comparison([suite[f] for f in functions], [hn.MethodId(t) for t in labels])
        if rc != 0:
            return f"exit code {rc}"
        fmt = argv[argv.index("--format") + 1]
        try:
            rows = list(csv.DictReader(io.StringIO(stdout))) if fmt == "csv" else json.loads(stdout)
        except (ValueError, csv.Error) as exc:
            return f"unparsable {fmt}: {exc}"
        return _check_rows(rows, table.rows, oracle)
    function, tag = argv[argv.index("--function") + 1], argv[argv.index("--method") + 1]
    entry = suite[function]
    out = hn.iterate(hn.MethodId(tag, haar_points=2), entry.problem, entry.x0)
    got = _fields(stdout)
    if got.get("status") != out.status.value:
        return "status differs from in-process run"
    if argv[0] == "coc":
        report = hn.convergence_report(out.trace, out.root, n_points=2)
        if got.get("order (coc)") != f"{report.coc:.6g}":
            return "coc differs from in-process run"
        return None if rc == (0 if math.isfinite(report.coc) else 2) else f"exit code {rc}"
    if (int(got["iterations"]), int(got["nfe"])) != (out.iterations, out.nfe):
        return "iterations or nfe differ from in-process run"
    if rc != EXIT_CODES[out.status.value]:
        return f"exit code {rc} for status {out.status.value}"
    if not counts_ok(tag, 2, out.status.value, out.iterations, out.nfe):
        return "nfe-mismatch"
    if out.status.value == "converged" and not oracle.root_ok(function, float(got["result"])):
        return "false-convergence"
    if "--trace" in argv and stdout.count("  x=") != out.iterations + 1:
        return "trace length"
    return None


def run_cli_inproc(cli, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def cli_readme(root: Path, seed: int, seconds: float, trace: bool,
               traced_cycles: int = TRACED_CLI_CYCLES) -> Result:
    """``correct`` is false when any invocation's output differs from the
    in-process call, or when those outputs fail a check."""
    env = child_env(root)
    setup_cal = calibration.interpreter(root, env)
    setup = timed_setup(root, env, setup_cal, "import haarnewton.cli", recompile=True)
    hn = load_package(root)
    cli = importlib.import_module("haarnewton.cli")
    check_suite_matches(hn.builtin_suite())
    oracle = Oracle()
    expected, bad = {}, {}
    for name, argv in CLI_COMMANDS.items():
        rc, text = run_cli_inproc(cli, argv)
        expected[name] = (rc, text.encode())
        why = check_cli_output(hn, argv, rc, text, oracle)
        if why is not None:
            bad[name] = why
    rng = random.Random(seed)
    names = list(CLI_COMMANDS)
    if trace:
        order = [n for _ in range(traced_cycles) for n in rng.sample(names, len(names))]
        cal = calibration.compute()
        res = traced_cli(hn, cli, order, expected, bad, cal)
        res.calibrator = cal
        return res

    def invoke(name):
        proc = subprocess.run([sys.executable, "-m", "haarnewton", *CLI_COMMANDS[name]],
                              cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        return (proc.returncode, proc.stdout) == expected[name]

    for name in names:  # warm the file cache; untimed
        invoke(name)
    # Each invocation is converted at the speed measured by the bare
    # interpreter starts just before and just after it.
    cal = calibration.interpreter(root, env)
    cal.slice()
    lat, failed, by_cmd = ([], []), 0, {n: [] for n in names}
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    t1 = 0
    while t1 < deadline:
        for name in rng.sample(names, len(names)):
            t0 = time.perf_counter_ns()
            ok = invoke(name)
            t1 = time.perf_counter_ns()
            cal.slice()
            _record(lat, t1 - t0, cal)
            by_cmd[name].append(t1 - t0)
            failed += (not ok) or name in bad
            if t1 >= deadline:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    count = len(lat[0])
    res = Result(correct=not failed and not bad, attempted=count, failed=failed)
    end_to_end(res, setup, count, (sum(lat[0]), sum(lat[1])), (sorted(lat[0]), sorted(lat[1])),
               CLI_TAIL, peak_rss_mb)
    res.calibration = calibration_record("interpreter", setup_cal, cal)
    res.notes = [
        f"tail percentile: p{CLI_TAIL:g} of {count} invocations (interleaved, seeded order per round)",
        *(f"  {n}: median {statistics.median(v) / 1e6:.2f} ms over {len(v)}" for n, v in by_cmd.items() if v),
        f"failed_share: {failed}/{count} = {failed / max(count, 1):.6f}",
        *(f"  {n}: {why}" for n, why in bad.items()),
    ]
    return res


@contextlib.contextmanager
def _patched(targets):
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in targets]
    for obj, attr, value in targets:
        setattr(obj, attr, value)
    try:
        yield
    finally:
        for obj, attr, value in saved:
            setattr(obj, attr, value)


def traced_cli(hn, cli, order, expected, bad, cal: Calibrator) -> Result:
    """In-process ``cli.main`` calls, with the layers it reaches wrapped by
    patching the module attributes it looks up at call time."""
    bench, analysis = hn.bench, hn.analysis
    tracer = Tracer()
    solves = []
    original_suite = bench.builtin_suite()
    traced_suite = [
        bench.SuiteEntry(hn.Problem(e.problem.name, tracer.wrap_leaf("user_f", e.problem.f),
                                    tracer.wrap_leaf("user_df", e.problem.df)), e.x0)
        for e in original_suite
    ]

    def recording_iterate(method, problem, x0, *rest):
        out = hn.iterate(method, problem, x0, *rest)
        solves.append((problem.name, method.tag, method.haar_points, out))
        return out

    traced_iterate = tracer.wrap("iterate", recording_iterate)
    targets = [
        (bench, "builtin_suite", lambda: list(traced_suite)),
        (bench, "run_comparison", tracer.wrap("run_comparison", bench.run_comparison)),
        (bench, "format_table", tracer.wrap("format_table", bench.format_table)),
        (bench, "iterate", traced_iterate),
        (cli, "iterate", traced_iterate),
        (analysis, "convergence_report", tracer.wrap("convergence_report", analysis.convergence_report)),
    ]

    def untraced_wall():
        cal.slice()
        t0 = time.perf_counter_ns()
        for name in order:
            run_cli_inproc(cli, CLI_COMMANDS[name])
        return time.perf_counter_ns() - t0

    before = untraced_wall()
    mismatched = 0
    cal.slice()
    t0 = time.perf_counter_ns()
    with _patched(targets):
        for name in order:
            got = tracer.operation(lambda argv: tracer.call("cli_main", run_cli_inproc, cli, argv),
                                   CLI_COMMANDS[name])
            mismatched += (got[0], got[1].encode()) != expected[name] or name in bad
    traced = time.perf_counter_ns() - t0
    after = untraced_wall()
    res = span_result(tracer, solves, traced, (before + after) / 2)
    res.failed = mismatched
    res.correct = res.correct and not mismatched
    return res

