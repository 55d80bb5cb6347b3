"""Instance generators with known answers, plus random fuzzing instances.

Two constructions have provable optima and double as hard test cases:

* max-gap instances: candidates on the x axis at the input values,
  terminals hugging both extremes; the optimal bottleneck equals the
  largest gap between consecutive sorted values.
* membership instances: candidates on an integer baseline, terminals on
  the grid row above plus two anchors; in an optimal tree every on-grid
  terminal attaches straight down, so inspecting the external edges
  decides whether all terminals sat exactly on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import as_points, isin_sorted, max_gap, points_as_complex
from .solver import FullSteinerTree, validate_instance


@dataclass(frozen=True)
class MaxGapInstance:
    values: np.ndarray
    n: int
    delta: float
    g: float  # terminal offsets stay within g/2 of the extremes
    P: np.ndarray
    S: np.ndarray
    expected: float  # optimal bottleneck length == max gap


@dataclass(frozen=True)
class MembershipInstance:
    m: int
    f: tuple  # 1-based grid columns, one per on-grid terminal
    P: np.ndarray  # rows: anchor (0,0), anchor (m+1,0), then grid terminals
    S: np.ndarray  # (i, 0) for i = 1..m
    perturbed: int | None  # 1-based index of the moved terminal, if any

    @property
    def n(self) -> int:
        return len(self.f)

    def grid_rows(self) -> range:
        """Row indices of the on-grid terminals within P."""
        return range(2, 2 + len(self.f))


def gen_maxgap_instance(values, n: int, seed: int = 0) -> MaxGapInstance:
    """Instance whose optimal bottleneck length equals max_gap(values).

    Half the terminals sit strictly left of the smallest value, half
    strictly right of the largest, at seeded offsets in (0, g/2] where
    g = (max - min) / (m + 1).  Values whose gap or terminal coordinates
    overflow float64 are rejected, and so is any instance that
    `solver.validate_instance` would reject.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size < 2:
        raise ValueError("need at least two values")
    if not np.isfinite(v).all():
        raise ValueError("values contains a non-finite entry")
    if n < 2 or n % 2 != 0:
        raise ValueError("n must be even and at least 2")
    lo, hi = float(v.min()), float(v.max())
    delta = hi - lo
    if delta == 0.0:
        raise ValueError("degenerate sequence")
    g = delta / (v.size + 1)
    # the terminals lie within g/2 beyond the extremes, so these bounds
    # are finite exactly when every coordinate and the gap are
    if not (math.isfinite(lo - g / 2) and math.isfinite(hi + g / 2)):
        raise ValueError(
            "values span a gap that overflows float64: the instance would"
            " hold non-finite numbers, which JSON cannot carry"
        )
    rng = np.random.default_rng(seed)
    half = n // 2
    left = lo - (g / 2) * (1.0 - rng.random(half))  # offsets in (0, g/2]
    right = hi + (g / 2) * (1.0 - rng.random(half))
    P = np.zeros((n, 2))
    P[:half, 0] = left
    P[half:, 0] = right
    S = np.zeros((v.size, 2))
    S[:, 0] = v
    validate_instance(P, S)
    return MaxGapInstance(v, n, delta, g, P, S, max_gap(v))


def gen_membership_instance(f, m: int, perturb=None) -> MembershipInstance:
    """Baseline candidates (i, 0), grid terminals (f_j, 1), two anchors.

    `perturb`, if given, is a pair (j, (x, y)) replacing the j-th grid
    terminal (1-based) with an off-grid point; the replacement must avoid
    every grid point (i, 1) and every candidate.  Any instance that
    `solver.validate_instance` would reject is rejected here.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    f = tuple(int(x) for x in f)
    if any(not 1 <= x <= m for x in f):
        raise ValueError("f out of range")
    n = len(f)
    S = np.zeros((m, 2))
    S[:, 0] = np.arange(1, m + 1)
    P = np.zeros((n + 2, 2))
    P[1, 0] = m + 1
    P[2:, 0] = f
    P[2:, 1] = 1.0
    perturbed = None
    if perturb is not None:
        j, new = perturb
        j = int(j)
        if not 1 <= j <= n:
            raise ValueError("perturb index out of range")
        x, y = float(new[0]), float(new[1])
        if not (np.isfinite(x) and np.isfinite(y)):
            raise ValueError("perturbed point must be finite")
        if y == 1.0 and x.is_integer() and 1 <= x <= m:
            raise ValueError("perturbed point must leave the grid")
        if y == 0.0 and x.is_integer() and 1 <= x <= m:
            raise ValueError("perturbed point collides with a candidate")
        P[j + 1] = (x, y)
        perturbed = j
    validate_instance(P, S)
    return MembershipInstance(m, f, P, S, perturbed)


def verify_membership(tree: FullSteinerTree, inst: MembershipInstance) -> bool:
    """True iff every grid terminal's external edge drops straight to its column.

    Vacuously true with no grid terminals.  Raises if the tree was not
    solved on this instance.
    """
    if not (np.array_equal(tree.P, inst.P) and np.array_equal(tree.S, inst.S)):
        raise ValueError("tree does not belong to this instance")
    for row in inst.grid_rows():
        col = float(tree.external_edges[row] + 1)  # candidate s sits at (s+1, 0)
        if not (inst.P[row, 0] == col and inst.P[row, 1] == 1.0):
            return False
    return True


def gen_random_instance(n: int, m: int, extent: float, seed) -> tuple[np.ndarray, np.ndarray]:
    """Uniform points in [0, extent]^2; terminals resample away from candidates."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be at least 1")
    if not 0 < extent < np.inf:
        raise ValueError("extent must be positive and finite")
    rng = np.random.default_rng(seed)
    S = as_points(rng.uniform(0.0, extent, (m, 2)), "S")
    P = as_points(rng.uniform(0.0, extent, (n, 2)), "P")
    skey = np.sort(points_as_complex(S))
    while True:
        clash = isin_sorted(points_as_complex(P), skey)
        if not clash.any():
            break
        P[clash] = rng.uniform(0.0, extent, (int(clash.sum()), 2))
    return P, S
