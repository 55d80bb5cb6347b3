"""Doubling benchmark for the end-to-end solver.

Times `solve` on seeded random instances over an ascending size schedule
and reports the median per size together with the ratio to the previous
size; near-linearithmic scaling shows up as ratios close to 2 on a
doubling schedule.  Repetitions run sequentially to keep timings honest.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from .generators import gen_random_instance
from .solver import solve

EXTENT = 1000.0


@dataclass(frozen=True)
class BenchRow:
    size: int
    n: int
    m: int
    median_ns: int
    ratio_vs_prev: float


def bench(sizes, seed: int, reps: int = 5) -> list[BenchRow]:
    """Median solve times over `reps` seeded instances per size.

    Sizes must ascend; each size N splits into n = N // 2 terminals and
    m = N - n candidates.  Instance streams are deterministic in
    (seed, size position, repetition), so repeated runs see identical
    inputs.
    """
    sizes = [int(x) for x in sizes]
    if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly ascending")
    if reps < 1:
        raise ValueError("reps must be at least 1")
    solve(*gen_random_instance(8, 8, EXTENT, seed=0))  # warm-up
    rows: list[BenchRow] = []
    prev: int | None = None
    for si, size in enumerate(sizes):
        n = size // 2
        m = size - n
        times = []
        for rep in range(reps):
            P, S = gen_random_instance(n, m, EXTENT, seed=[seed, si, rep])
            t0 = time.perf_counter_ns()
            solve(P, S)
            times.append(time.perf_counter_ns() - t0)
        med = int(statistics.median(times))
        rows.append(BenchRow(size, n, m, med, med / prev if prev else 1.0))
        prev = med
    return rows


def bench_csv(rows: list[BenchRow]) -> str:
    lines = ["N,median_ns,ratio_vs_prev"]
    lines += [f"{r.size},{r.median_ns},{r.ratio_vs_prev:.3f}" for r in rows]
    return "\n".join(lines)
