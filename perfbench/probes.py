"""Per-layer probes: each public layer timed on its own at fixed inputs.

These run in every traced run, after the workload's traced pass, so every
workload reports the same per-layer names. Times are medians of repeated
loops; ``scale`` shrinks the loop counts (the self-test uses a small one).
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

from workloads import CLI_COMMANDS, SCAN_POINTS, child_env, run_cli_inproc

IMPORTTIME_MODULES = (
    "haarnewton", "haarnewton.core", "haarnewton.quadrature", "haarnewton.methods",
    "haarnewton.analysis", "haarnewton.bench", "haarnewton.cli", "dataclasses", "inspect", "json",
)
STEP_NAMES = ("newton", "wf", "fs", "fs_std", "oz", "klw", "new", "new_p128")
_now = time.perf_counter_ns
REPEATS = 5  # loops per probe; the median is reported


def _median_ns(loop, calls: int) -> float:
    """Median over ``REPEATS`` of one ``loop()`` run, per call."""
    times = []
    for _ in range(REPEATS):
        t0 = _now()
        loop()
        times.append((_now() - t0) / calls)
    return statistics.median(times)


def _core(hn, suite, n: int) -> dict:
    counters = hn.EvalCounters()
    ev_f, ev_df = hn.evaluate_f, hn.evaluate_df
    pairs = [(e.problem, e.x0) for e in suite]
    calls = n * len(pairs)

    def raw(attr):
        fns = [(getattr(p, attr), x) for p, x in pairs]

        def loop():
            for _ in range(n):
                for fn, x in fns:
                    fn(x)
        return _median_ns(loop, calls)

    def counted(ev):
        def loop():
            for _ in range(n):
                for p, x in pairs:
                    ev(p, x, counters)
        return _median_ns(loop, calls)

    raw_f, raw_df = raw("f"), raw("df")
    eval_f, eval_df = counted(ev_f), counted(ev_df)
    return {
        "core.raw_f_ns": (raw_f, "ns"),
        "core.raw_df_ns": (raw_df, "ns"),
        "core.evaluate_f_ns": (eval_f, "ns"),
        "core.evaluate_df_ns": (eval_df, "ns"),
        "core.wrapper_overhead_ratio": ((eval_f + eval_df) / (raw_f + raw_df), "ratio"),
    }


def _quadrature(hn, suite, n: int) -> dict:
    integral = hn.haar_indefinite_integral
    spans = [(e.problem.df, e.x0, e.x0 - e.problem.f(e.x0) / e.problem.df(e.x0)) for e in suite]
    nodes = n * len(spans) * sum(SCAN_POINTS)

    def loop():
        for _ in range(n):
            for p in SCAN_POINTS:
                for df, a, b in spans:
                    integral(df, a, b, p)
    return {"quadrature.ns_per_node": (_median_ns(loop, nodes), "ns")}


def _steps(hn, suite, n: int) -> dict:
    counters = hn.EvalCounters()
    std = hn.FsVariant.STANDARD_MIDPOINT
    steps = {
        "newton": lambda p, x: hn.newton_step(p, x, counters),
        "wf": lambda p, x: hn.wf_step(p, x, counters),
        "fs": lambda p, x: hn.fs_step(p, x, counters),
        "fs_std": lambda p, x: hn.fs_step(p, x, counters, std),
        "oz": lambda p, x: hn.oz_step(p, x, counters),
        "klw": lambda p, x: hn.klw_step(p, x, counters),
        "new": lambda p, x: hn.haar_newton_step(p, x, counters, 2),
        "new_p128": lambda p, x: hn.haar_newton_step(p, x, counters, 128),
    }
    pairs = [(e.problem, e.x0) for e in suite]
    out = {}
    for name in STEP_NAMES:
        step = steps[name]
        reps = max(1, n // 16) if name == "new_p128" else n

        def loop():
            for _ in range(reps):
                for p, x in pairs:
                    step(p, x)
        out[f"methods.step_ns.{name}"] = (_median_ns(loop, reps * len(pairs)), "ns")
    return out


def _analysis_and_bench(hn, suite, n: int) -> dict:
    new = hn.MethodId("new")
    runs = [hn.iterate(new, e.problem, e.x0) for e in suite]
    reportable = [o for o in runs if len(o.trace.iterates) >= 4]
    grid_methods = [hn.MethodId(t) for t in ("wf", "fs", "oz", "klw", "new")]
    grid = [hn.iterate(m, e.problem, e.x0) for e in suite for m in grid_methods]
    table = hn.run_comparison(suite, grid_methods)
    names = [e.problem.name for e in suite]

    def reports():
        for _ in range(n):
            for o in reportable:
                hn.convergence_report(o.trace, o.root, n_points=2)

    def classify():
        for _ in range(n):
            for o in grid:
                hn.classify(o)

    def entries():
        for _ in range(max(1, n // 4)):
            for name in names:
                hn.suite_entry(name)

    out = {
        "analysis.convergence_report_us": (_median_ns(reports, n * len(reportable)) / 1e3, "us"),
        "analysis.classify_ns": (_median_ns(classify, n * len(grid)), "ns"),
        "bench.builtin_suite_us": (_median_ns(lambda: [hn.builtin_suite() for _ in range(n)], n) / 1e3, "us"),
        "bench.suite_entry_us": (_median_ns(entries, max(1, n // 4) * len(names)) / 1e3, "us"),
        "bench.run_comparison_ms": (
            _median_ns(lambda: hn.run_comparison(suite, grid_methods), 1) / 1e6, "ms"),
    }
    for fmt in ("text", "csv", "json"):
        reps = max(1, n // 4)
        out[f"bench.format_table_us.{fmt}"] = (
            _median_ns(lambda: [hn.format_table(table, fmt) for _ in range(reps)], reps) / 1e3, "us")
    return out


def _cli_inproc(hn, n: int) -> dict:
    import haarnewton.cli as cli

    out = {}
    for name, argv in CLI_COMMANDS.items():
        reps = max(1, n // 20)
        out[f"cli.main_inproc_us.{name}"] = (
            _median_ns(lambda: [run_cli_inproc(cli, argv) for _ in range(reps)], reps) / 1e3, "us")
    return out


def _cli_processes(root, cycles: int) -> dict:
    """Interleaved cold starts: bare interpreter, package import, commands."""
    env = child_env(root)
    py = sys.executable
    runs = {"bare": [py, "-c", "pass"], "import": [py, "-c", "import haarnewton.cli"]}
    runs.update({name: [py, "-m", "haarnewton", *argv] for name, argv in CLI_COMMANDS.items()})
    times = {name: [] for name in runs}
    for _ in range(cycles):
        for name, cmd in runs.items():
            t0 = _now()
            subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            times[name].append((_now() - t0) / 1e6)
    bare = statistics.median(times["bare"])
    imported = statistics.median(times["import"])
    command = statistics.median([t for name in CLI_COMMANDS for t in times[name]])
    selfs = {m: [] for m in IMPORTTIME_MODULES}
    for _ in range(3):
        proc = subprocess.run([py, "-X", "importtime", "-c", "import haarnewton.cli"], cwd=root, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=True)
        seen = {}
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and "|" in line:
                own, _, name = line[len("import time:"):].split("|")
                if own.strip().isdigit():
                    seen[name.strip()] = int(own)
        for m in IMPORTTIME_MODULES:
            selfs[m].append(seen.get(m, 0))
    out = {
        "cli.python_bare_ms": (bare, "ms"),
        "cli.import_ms": (imported - bare, "ms"),
        "cli.run_ms": (command - imported, "ms"),
    }
    for m in IMPORTTIME_MODULES:
        out[f"cli.importtime_us.{m}"] = (statistics.median(selfs[m]), "us")
    return out


def probe_metrics(root, hn, cal, scale: float = 1.0) -> dict:
    """Every probe, with a calibration slice before each group."""
    suite = hn.builtin_suite()
    n = max(1, int(2000 * scale))
    groups = (
        lambda: _core(hn, suite, n),
        lambda: _quadrature(hn, suite, max(1, n // 20)),
        lambda: _steps(hn, suite, n // 2 or 1),
        lambda: _analysis_and_bench(hn, suite, max(1, n // 4)),
        lambda: _cli_inproc(hn, n),
        lambda: _cli_processes(root, max(1, int(5 * scale))),
    )
    metrics = {}
    for group in groups:
        cal.slice()
        metrics.update(group())
    cal.slice()
    return metrics

