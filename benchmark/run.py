#!/usr/bin/env python3
"""Benchmark of `bsteiner.solve` on the workloads of workloads.py.

    python3 benchmark/run.py --workload uniform --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 30

Load is a closed loop with one client: one process solves one instance at
a time, generated outside the timed region from (seed, repetition), and
checks every output after the clock stops.  The only extra threads are
cKDTree's `workers=-1` queries inside the solver.

`--trace 0` reports the end-to-end metrics and `--trace 1`, a separate
run, the per-layer metrics of tracing.py.  `--workload all` runs every
workload both ways, each in a fresh process, and prints one table.
Metric names and units come from BENCHMARK.json at the repository root.
The last line of standard output is a JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

SETUP_RUNS = 5  # fresh processes per run; setup_s is their median
COUNTER_REPS = 3  # counters are the median over repetitions 1..COUNTER_REPS

# Time from a bare interpreter to the end of one tiny solve.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import bsteiner
bsteiner.solve(*bsteiner.gen_random_instance(8, 8, 1000.0, seed=0))
print(time.perf_counter() - t0)
"""


def machine_info() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cores": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def tail_percentile(samples: list[float]) -> str:
    """The highest of p99..p50 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75, 50):
        if len(samples) * (100 - p) >= 1000:
            return f"p{p} {statistics.quantiles(samples, n=100)[p - 1]:.4f} s"
    return "no percentile has ten samples beyond it"


def measure_setup() -> float:
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def check(report) -> None:
    """Raise ValueError unless the solve's output is a valid optimum-shaped tree."""
    from bsteiner import bottleneck, validate_full_steiner_tree

    validate_full_steiner_tree(report.tree)
    if report.lambda_star != bottleneck(report.tree):
        raise ValueError("lambda_star differs from bottleneck(tree)")


def oracle_check(wl, seed: int) -> None:
    """Solve the workload's down-scaled instance and compare with the oracle bit for bit."""
    from bsteiner import brute_force_optimum, solve

    P, S = wl.small_instance(seed)
    report = solve(P, S)
    check(report)
    want, _ = brute_force_optimum(P, S)
    if report.lambda_star != want:
        raise ValueError(f"small instance: lambda_star {report.lambda_star!r} != oracle {want!r}")


class Tally:
    """Attempted and failed operations of one run, with their errors."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    def attempt(self, fn, *args):
        """Call fn; a raised exception counts as a failure and returns None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # every failure is counted and reported
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None


def run_plain(wl, seed: int, seconds: float, tally: Tally) -> dict:
    from bsteiner import solve

    setup = measure_setup()
    solve(*wl.instance(seed, 0))  # warm-up

    def timed(P, S):
        t0 = time.perf_counter()
        report = solve(P, S)
        dt = time.perf_counter() - t0
        check(report)
        return dt

    times, points = [], 0
    deadline = time.perf_counter() + seconds
    rep = 1
    while rep == 1 or time.perf_counter() < deadline:
        P, S = wl.instance(seed, rep)
        rep += 1
        dt = tally.attempt(timed, P, S)
        if dt is not None:
            times.append(dt)
            points += len(P) + len(S)
    if not times:
        return {}
    print(f"solve_s samples {len(times)}, {tail_percentile(times)}")
    return {
        "solve_s": statistics.median(times),
        "points_per_s": points / sum(times),
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_traced(wl, seed: int, seconds: float, tally: Tally) -> dict:
    from bsteiner import solve
    from tracing import COUNTERS, layer_metrics, traced_solve

    absent: set[str] = set()

    def pair(P, S, traced_first: bool):
        """Untraced and traced solve of one instance, in the given order."""
        out = {}
        for traced in (traced_first, not traced_first):
            t0 = time.perf_counter()
            if traced:
                report, tracer, missing = traced_solve(P, S)
            else:
                report = solve(P, S)
            out[traced] = (time.perf_counter() - t0, report)
        report = out[True][1]
        check(report)
        if report.lambda_star != out[False][1].lambda_star:
            raise ValueError("traced lambda_star differs from untraced")
        metrics = layer_metrics(report, tracer, missing)
        absent.update(missing)
        return out[False][0], metrics

    P, S = wl.instance(seed, 0)
    solve(P, S)  # warm-up
    traced_solve(P, S)

    plain, layers = [], []
    deadline = time.perf_counter() + seconds
    rep = 1
    while rep <= COUNTER_REPS or time.perf_counter() < deadline:
        result = tally.attempt(pair, *wl.instance(seed, rep), rep % 2 == 0)
        rep += 1
        if result is not None:
            plain.append(result[0])
            layers.append(result[1])
    if not layers:
        return {}
    if absent:
        print("absent: " + ", ".join(sorted(absent)))
    metrics = {}
    for name in layers[0]:
        pool = layers[:COUNTER_REPS] if name in COUNTERS else layers
        metrics[name] = statistics.median(x[name] for x in pool)
    metrics["trace.overhead"] = metrics["trace.solve_s"] / statistics.median(plain)
    return metrics


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in its own process."""
    from workloads import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(out.stderr)
            if out.returncode != 0:
                print(f"{name} trace {trace}: exit {out.returncode}", file=sys.stderr)
                return 1
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            print(f"== {name} (trace {trace})")
            print("\n".join(lines[:-1]))
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "bsteiner" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: run from a checkout holding src/bsteiner and BENCHMARK.json ({ROOT})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bsteiner

    if not Path(bsteiner.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported bsteiner from {bsteiner.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of: all, {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    print("machine: " + json.dumps(machine_info()))
    print(f"workload {wl.name}: n={wl.n} m={wl.m} seed={args.seed} seconds={args.seconds}")
    tally = Tally()
    tally.attempt(oracle_check, wl, args.seed)
    if args.trace:
        metrics, wanted = run_traced(wl, args.seed, args.seconds, tally), spec["per_layer"]
    else:
        metrics, wanted = run_plain(wl, args.seed, args.seconds, tally), spec["end_to_end"]
    for err in tally.errors[:5]:
        print(f"failure: {err}", file=sys.stderr)
    if not metrics:
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    failed = len(tally.errors)
    print(f"fail_ratio {failed / tally.attempted:.4g} ({failed} of {tally.attempted})")
    out = {}
    for m in wanted:
        out[m["name"]] = {"value": float(metrics[m["name"]]), "unit": m["unit"]}
        print(f"{m['name']:<30} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
                      "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
