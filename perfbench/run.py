#!/usr/bin/env python3
"""acopt benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload optimize-n8 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --write-spec

Run from the root of a checkout; the library is imported from `src/`.
A run repeats the workload's op on inputs drawn from `--seed` until
`--seconds` have passed, each op starting after the previous one finished
and on a problem freshly built for it, and checks every op's output.
With `--trace 1` the library's public functions are wrapped and the
per-layer metrics are reported instead of the end-to-end ones.
`--workload all` runs every workload untraced and traced, each in a fresh
process, and prints a summary with the tracing overhead. `--write-spec`
regenerates BENCHMARK.json from the definitions below.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. See README.md.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tracing import Tracer, layer_of

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"

RUN_SECONDS = 30
MIN_OPS = 2  # the exact counters are compared between ops on one seed
BUILDS_PER_OP = 5  # set-ups timed before each op, the last one used by it
REFERENCE_SEED = 0

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("time_to_solution_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]
# name, unit, better; all per op except geometry.build_s, which is per set-up
PER_LAYER = [
    ("geometry.build_s", "s", "lower"),
    ("potentials.clamp_events", "count", "lower"),
    ("pde_state.solve_calls", "count", "lower"),
    ("pde_state.newton_iters", "count", "lower"),
    ("pde_state.solve_s", "s", "lower"),
    ("pde_state.newton_step_ms", "ms", "lower"),
    ("pde_linear.operators_built", "count", "lower"),
    ("pde_linear.adjoint_calls", "count", "lower"),
    ("pde_linear.adjoint_s", "s", "lower"),
    ("pde_linear.linearized_calls", "count", "lower"),
    ("pde_linear.linearized_s", "s", "lower"),
    ("pde_linear.step_solves", "count", "lower"),
    ("objective.cost_s", "s", "lower"),
    ("objective.gradient_s", "s", "lower"),
    ("objective.curvature_s", "s", "lower"),
    ("objective.report_s", "s", "lower"),
    ("objective.curvature_samples", "count", "higher"),
    ("optimizer.iterations", "count", "lower"),
    ("optimizer.trial_steps", "count", "lower"),
    ("optimizer.accept_ratio", "ratio", "higher"),
    ("optimizer.self_s", "s", "lower"),
    ("cli_io.write_s", "s", "lower"),
    ("cli_io.bytes_written", "B", "lower"),
]
UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
EXACT = {name for name, unit, _ in PER_LAYER if unit in ("count", "B")}


def import_acopt():
    """Put the checkout's `src/` first on the path; refuse to run without it."""
    if not (SRC / "acopt" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'acopt'} not found; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import acopt

    if Path(acopt.__file__).resolve().parent != (SRC / "acopt").resolve():
        sys.exit(f"perfbench: imported acopt from {acopt.__file__}, not from {SRC}")


# -- environment ---------------------------------------------------------------


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_libraries():
    """Version and thread count of each OpenBLAS bundled with numpy and scipy."""
    import scipy

    out = []
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            entry = {"package": pkg.__name__, "library": lib.name}
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    threads = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
                    config = getattr(handle, f"{prefix}_get_config{suffix}", None)
                    if threads is not None and config is not None:
                        threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                        entry["threads"] = threads()
                        entry["config"] = config().decode()
            out.append(entry)
    return out


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment():
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_libraries(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "ACOPT_THREADS": os.environ.get("ACOPT_THREADS"),
        "commit": git_commit(),
    }


# -- one run -------------------------------------------------------------------


@dataclass
class Op:
    seconds: float = None  # None when the op raised
    failures: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    values: object = None  # curvature values, compared between ops
    layers: dict = field(default_factory=dict)  # traced runs only
    self_by_layer: dict = field(default_factory=dict)


def attempt(workload, problem, cfg, inputs, seed, outdir):
    outdir.mkdir(parents=True)
    op = Op()
    try:
        start = time.perf_counter()
        output = workload.run(problem, cfg, inputs, seed, outdir)
        op.seconds = time.perf_counter() - start
        op.failures, op.counters, op.values = workload.check(problem, cfg, inputs, output, outdir)
    except Exception as exc:  # a raising op counts as failed; the run goes on
        traceback.print_exc()
        op.failures = [f"raised {type(exc).__name__}: {exc}"]
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return op


def compare_repeats(ops):
    """Mark ops whose exact counters or curvature values differ from the first good op."""
    good = [op for op in ops if not op.failures]
    if not good:
        return
    first = good[0]
    exact = {**first.counters, **{k: v for k, v in first.layers.items() if k in EXACT}}
    for op in good[1:]:
        mine = {**op.counters, **{k: v for k, v in op.layers.items() if k in EXACT}}
        if mine != exact:
            op.failures.append(f"counters {mine} differ from the first op's {exact}")
        if first.values is not None:
            limit = 1e-8 * float(np.max(np.abs(first.values)))
            if not float(np.max(np.abs(op.values - first.values))) <= limit:
                op.failures.append("curvature values differ from the first op's")


def layer_metrics(tracer, op_id, counters):
    """Per-layer metrics of one traced op (see README.md for definitions)."""
    total, calls = defaultdict(float), defaultdict(int)
    minimize_ids, solves = set(), []
    for index, span in enumerate(tracer.spans):
        if span.op != op_id:
            continue
        total[span.name] += span.end - span.start
        calls[span.name] += 1
        if span.name == "optimizer.minimize":
            minimize_ids.add(index)
        elif span.name == "pde_state.solve_state":
            solves.append(span)
    own = tracer.self_times(op_id)
    by_layer = defaultdict(float)
    for name, seconds in own.items():
        by_layer[layer_of(name)] += seconds
    newton = sum(sum(s.info["newton_iters"]) for s in solves)
    trials = sum(1 for s in solves if s.parent in minimize_ids) - len(minimize_ids)
    iterations = counters.get("optimizer.iterations", 0)
    metrics = {
        "potentials.clamp_events": sum(s.info["clamp_events"] for s in solves),
        "pde_state.solve_calls": len(solves),
        "pde_state.newton_iters": newton,
        "pde_state.solve_s": own["pde_state.solve_state"],
        "pde_state.newton_step_ms": 1e3 * own["pde_state.solve_state"] / newton if newton else 0.0,
        "pde_linear.operators_built": tracer.count(op_id, "pde_linear.operators_built"),
        "pde_linear.adjoint_calls": calls["pde_linear.solve_adjoint"],
        "pde_linear.adjoint_s": total["pde_linear.solve_adjoint"],
        "pde_linear.linearized_calls": calls["pde_linear.solve_linearized"],
        "pde_linear.linearized_s": total["pde_linear.solve_linearized"],
        "pde_linear.step_solves": tracer.count(op_id, "pde_linear.step_solves"),
        "objective.cost_s": total["objective.evaluate_cost"],
        "objective.gradient_s": total["objective.reduced_gradient"] + total["objective.stationarity_norm"],
        "objective.curvature_s": own["objective.curvature"],
        "objective.report_s": own["objective.optimality_report"],
        "objective.curvature_samples": counters.get("objective.curvature_samples", 0),
        "optimizer.iterations": iterations,
        "optimizer.trial_steps": trials,
        "optimizer.accept_ratio": iterations / trials if trials > 0 else 0.0,
        "optimizer.self_s": own["optimizer.minimize"],
        "cli_io.write_s": sum(t for name, t in total.items() if name.startswith("cli_io.write")),
        "cli_io.bytes_written": counters.get("cli_io.bytes_written", 0),
    }
    return metrics, dict(by_layer)


def percentile_line(times):
    """Median plus the highest percentile with at least ten ops beyond it."""
    n = len(times)
    line = f"median {statistics.median(times):.6f} s over {n} ops"
    if n > 10:
        ordered = sorted(times)
        line += f", p{100 * (n - 10) // n} {ordered[n - 11]:.6f} s"
    else:
        line += " (too few ops for a tail percentile)"
    return line


def run_one(name, seed, seconds, trace):
    from acopt import cli_io
    from workloads import WORKLOADS

    if os.environ.get("ACOPT_THREADS"):
        sys.exit("perfbench: the workloads are defined with ACOPT_THREADS unset")
    workload = WORKLOADS[name]
    cfg = workload.config()
    env = environment()
    print("env " + json.dumps(env))
    tracer = Tracer() if trace else None
    scratch = SCRATCH / f"{name}-{os.getpid()}"
    ops = []
    if tracer is not None:
        tracer.install()
        for missing in tracer.missing:
            print(f"warning: {missing} not found; its spans or counts read 0", file=sys.stderr)
    try:
        setup_times, build_times = [], []

        def build():
            # spread over the run, so that the median sees the machine as the ops do
            first_span = len(tracer.spans) if tracer is not None else 0
            start = time.perf_counter()
            problem = cli_io.build_problem(cfg)
            setup_times.append(time.perf_counter() - start)
            if tracer is not None:
                build_times.append(sum(s.end - s.start for s in tracer.spans[first_span:]
                                       if layer_of(s.name) == "geometry"))
            return problem

        def one(op_seed, op_id):
            if tracer is not None:
                tracer.op = -1
            for _ in range(BUILDS_PER_OP):
                problem = build()
            if tracer is not None:
                tracer.op = op_id
            op = attempt(workload, problem, cfg, workload.make_input(problem, op_seed), op_seed,
                         scratch / f"op{op_id}")
            if tracer is not None and op.seconds is not None:
                op.layers, op.self_by_layer = layer_metrics(tracer, op_id, op.counters)
            return op

        reference_failures = []
        has_reference = hasattr(workload, "check_reference")
        if has_reference:
            # untimed warm-up on the recorded input, checked against recorded values
            reference = one(REFERENCE_SEED, -1000)
            reference_failures = reference.failures or workload.check_reference(reference.values)
        loop_start = time.perf_counter()
        while len(ops) < MIN_OPS or time.perf_counter() - loop_start < seconds:
            ops.append(one(seed, len(ops)))
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()

    compare_repeats(ops)
    attempted = len(ops) + has_reference
    failed = sum(1 for op in ops if op.failures) + bool(reference_failures)
    for i, op in enumerate(ops):
        for failure in op.failures:
            print(f"op {i} FAILED: {failure}")
    for failure in reference_failures:
        print(f"reference op FAILED: {failure}")

    passed = [op for op in ops if not op.failures]
    timed = passed or [op for op in ops if op.seconds is not None]
    if not timed:
        sys.exit(f"perfbench: no {name} op completed")
    times = [op.seconds for op in timed]
    print(f"workload {name} seed {seed} trace {int(trace)}: {len(ops)} ops, "
          f"{failed} of {attempted} failed (failed_frac {failed / attempted:g})")
    summary = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "ops": len(ops),
        "failed_frac": failed / attempted,
        "time_to_solution_s": statistics.median(times),
        "op_seconds": times,
        "counters": timed[0].counters,
    }
    if trace:
        metrics = {key: value if key in EXACT else statistics.median(op.layers[key] for op in timed)
                   for key, value in timed[0].layers.items()}
        metrics = {"geometry.build_s": statistics.median(build_times), **metrics}
        layers = sorted({layer for op in timed for layer in op.self_by_layer})
        self_s = {layer: statistics.median(op.self_by_layer.get(layer, 0.0) for op in timed)
                  for layer in layers}
        self_s["(outside spans)"] = statistics.median(
            op.seconds - sum(op.self_by_layer.values()) for op in timed)
        summary["self_s_by_layer"] = self_s
        print(f"traced time_to_solution_s: {percentile_line(times)}")
        print("self time per op by layer (median):")
        for layer, seconds in self_s.items():
            print(f"  {layer:<18} {seconds:10.6f} s  {100 * seconds / summary['time_to_solution_s']:5.1f} %")
        print("per-layer metrics (per op; geometry.build_s per set-up):")
        for key, value in metrics.items():
            print(f"  {key:<30} {value:.6g} {UNITS[key]}")
    else:
        metrics = {
            "time_to_solution_s": statistics.median(times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        print(f"time_to_solution_s: {percentile_line(times)}")
        print(f"setup_s: median {metrics['setup_s']:.6f} s over {len(setup_times)} builds")
        print(f"peak_rss_mb: {metrics['peak_rss_mb']:.3f} MB")
        print(f"failed_frac: {failed / attempted:g} ({failed} of {attempted} ops)")
        print(f"exact counters per op: {json.dumps(timed[0].counters)}")
    summary["metrics"] = metrics
    print("summary " + json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": UNITS[key]} for key, value in metrics.items()},
    }))


# -- all workloads ---------------------------------------------------------------


def run_all(seed, seconds):
    from workloads import WORKLOADS

    rows = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            summaries = [line[8:] for line in proc.stdout.splitlines() if line.startswith("summary ")]
            if proc.returncode != 0 or not summaries:
                sys.exit(f"perfbench: {name} (trace {trace}) exited with {proc.returncode}")
            rows[name, trace] = json.loads(summaries[-1])
    print(f"\n{'workload':<12} {'time_to_solution_s':>19} {'setup_s':>10} {'peak_rss_mb':>12} "
          f"{'failed_frac':>11} {'trace overhead':>15}")
    for name in WORKLOADS:
        plain, traced = rows[name, 0], rows[name, 1]
        m = plain["metrics"]
        overhead = traced["time_to_solution_s"] / plain["time_to_solution_s"] - 1.0
        print(f"{name:<12} {m['time_to_solution_s']:>17.4f} s {m['setup_s']:>8.5f} s "
              f"{m['peak_rss_mb']:>9.1f} MB {max(plain['failed_frac'], traced['failed_frac']):>11g} "
              f"{100 * overhead:>13.1f} %")
    print("\nself time per op by layer (traced run, median, seconds):")
    layers = sorted({layer for name in WORKLOADS for layer in rows[name, 1]["self_s_by_layer"]})
    print(f"{'layer':<18}" + "".join(f"{name:>14}" for name in WORKLOADS))
    for layer in layers:
        print(f"{layer:<18}" + "".join(
            f"{rows[name, 1]['self_s_by_layer'].get(layer, 0.0):>14.5f}" for name in WORKLOADS))
    bad = [name for name in WORKLOADS if rows[name, 0]["failed_frac"] or rows[name, 1]["failed_frac"]]
    if bad:
        sys.exit(f"perfbench: failed ops in {', '.join(bad)}")


def write_spec():
    from workloads import WORKLOADS

    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="seed of the workload's inputs")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: wrap the library and report per-layer metrics")
    parser.add_argument("--write-spec", action="store_true", help="regenerate BENCHMARK.json")
    args = parser.parse_args()
    import_acopt()
    from workloads import WORKLOADS

    if args.write_spec:
        write_spec()
    elif args.workload == "all":
        run_all(args.seed, args.seconds)
    elif args.workload in WORKLOADS:
        run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")


if __name__ == "__main__":
    main()
