"""Seeded instance generators for the benchmark workloads.

Each workload stresses a different layer of the solver:

* uniform: terminals and candidates uniform in a square, the generator of
  the scaling criterion.  The optimum binds on a terminal attach edge
  above the largest tree edge, so the search only confirms its upper end.
* blob: a small disc of terminals inside a denser disc of candidates, with
  the other half of the candidates spread over the square.  The spanning
  tree dominates, and the optimum binds mid-way through the threshold
  list, so the decision layer works on a partial forest.
* hull: candidates fill a disc and terminals ring it.  Every terminal has
  empty cones, so the Yao layer grows k to its cap and runs the exact cone
  fallback on each empty cone.

An instance depends only on (workload, seed, repetition); the solver
receives nothing but the two float64 arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from bsteiner.generators import gen_random_instance

EXTENT = 1000.0
BLOB_CENTER = (500.0, 500.0)


def _disc(rng: np.random.Generator, k: int, r0: float, r1: float, center=(0.0, 0.0)) -> np.ndarray:
    """k points uniform by area in the annulus r0 <= r < r1 around center."""
    r = np.sqrt(rng.uniform(r0 * r0, r1 * r1, k))
    t = rng.uniform(0.0, 2.0 * np.pi, k)
    return np.column_stack((center[0] + r * np.cos(t), center[1] + r * np.sin(t)))


def _uniform(n: int, m: int, seed: list[int]) -> tuple[np.ndarray, np.ndarray]:
    return gen_random_instance(n, m, EXTENT, seed=seed)


def _blob(n: int, m: int, seed: list[int]) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    P = _disc(rng, n, 0.0, 48.0, BLOB_CENTER)
    near = _disc(rng, m // 2, 0.0, 60.0, BLOB_CENTER)
    far = rng.uniform(0.0, EXTENT, (m - m // 2, 2))
    return P, np.concatenate((near, far))


def _hull(n: int, m: int, seed: list[int]) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    S = _disc(rng, m, 0.0, 1000.0)
    P = _disc(rng, n, 1010.0, 1200.0)
    return P, S


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    m: int
    generate: Callable[[int, int, list[int]], tuple[np.ndarray, np.ndarray]]
    small_n: int  # down-scaled size for the brute-force oracle check
    small_m: int

    def instance(self, seed: int, rep: int) -> tuple[np.ndarray, np.ndarray]:
        """Full-size instance number `rep` of this workload under `seed`."""
        return self.generate(self.n, self.m, [seed, rep])

    def small_instance(self, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """Instance of the same shape with n, m <= 40, for the oracle."""
        return self.generate(self.small_n, self.small_m, [seed, 0, 1])


WORKLOADS = {
    w.name: w
    for w in (
        Workload("uniform", 2**14, 2**14, _uniform, 40, 40),
        Workload("blob", 2**11, 2**15, _blob, 8, 40),
        Workload("hull", 2**11, 2**11, _hull, 40, 40),
    )
}
