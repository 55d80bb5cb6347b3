"""Planar primitives shared by the whole package.

Every squared length in the package is `squared_norms(dx, dy)`, either
called on deltas a caller already holds or through the broadcasting
`squared_distances(A, B)`, and every cone class is
`cone_indices_from_deltas(dx, dy)`.  The solver, the oracle, and the
tests therefore compare bit-identical float64 values and never disagree
on ties or cone boundaries.
"""

from __future__ import annotations

import numpy as np

NUM_CONES = 6
CONE_ANGLE = np.pi / 3.0
TWO_PI = 2.0 * np.pi

# Coordinate domain: 0 or MIN_ABS <= |c| <= MAX_ABS.  Squared distances and
# cross products then stay below 2**1003, and distinct coordinates differ by
# at least 2**-452, so no squared difference overflows or goes subnormal.
MIN_ABS = 2.0**-400
MAX_ABS = 2.0**500


def as_points(obj, name: str = "points") -> np.ndarray:
    """Coerce `obj` to a (k, 2) float64 array whose coordinates are each 0 or
    of magnitude in [MIN_ABS, MAX_ABS]; ValueError names the first bad row."""
    pts = np.asarray(obj, dtype=np.float64)
    if pts.size == 0:
        return pts.reshape(0, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"{name} must be a sequence of (x, y) pairs")
    mag = np.abs(pts)
    ok = (((mag >= MIN_ABS) & (mag <= MAX_ABS)) | (mag == 0.0)).all(axis=1)
    if not ok.all():
        bad = int(np.flatnonzero(~ok)[0])
        finite = np.isfinite(pts[bad]).all()
        what = "magnitude outside [2**-400, 2**500]" if finite else "is not finite"
        raise ValueError(f"{name}[{bad}]: coordinate {what}")
    return pts


def points_as_complex(pts: np.ndarray) -> np.ndarray:
    """View rows as complex numbers for exact set operations (-0.0 folded to 0.0)."""
    q = pts + 0.0
    return q[:, 0] + 1j * q[:, 1]


def check_disjoint(P: np.ndarray, S: np.ndarray) -> None:
    """Raise if the two point sets share any coordinate pair."""
    a = np.sort(points_as_complex(P))
    b = np.sort(points_as_complex(S))
    if len(a) and len(b):
        at = np.minimum(np.searchsorted(b, a), len(b) - 1)
        if (b[at] == a).any():
            raise ValueError("P and S must be disjoint")


def squared_norms(dx, dy):
    """Squared length dx * dx + dy * dy of each delta: the package's one length formula."""
    return dx * dx + dy * dy


def squared_distances(A, B):
    """Squared distances between points A and B, coordinates on the last axis.

    The leading axes broadcast: two (k, 2) arrays give k row-wise
    distances, a (k, 2) array and one point give k, `A[:, None]` against
    B gives the (len(A), len(B)) table, and two points give a scalar.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    return squared_norms(A[..., 0] - B[..., 0], A[..., 1] - B[..., 1])


def _ray_start(j: int) -> float:
    """Smallest float64 >= j * CONE_ANGLE, the product taken as a real."""
    num, den = CONE_ANGLE.as_integer_ratio()
    r = (j * num) / den  # int / int is correctly rounded
    rn, rd = r.as_integer_ratio()
    return r if rn * den >= j * num * rd else float(np.nextafter(r, np.inf))


def _negative_start(ray: float) -> float:
    """Smallest float64 t with t + TWO_PI >= ray in float arithmetic (pi < ray)."""
    lo, hi = -4.0, 0.0  # lo + TWO_PI < ray <= hi + TWO_PI
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (lo, mid) if mid + TWO_PI >= ray else (mid, hi)
    return hi


# R_1..R_6, the ray starts: theta in [0, 2*pi] lies in cone #{j : R_j <= theta} mod 6.
RAY_STARTS = np.array([_ray_start(j) for j in range(1, NUM_CONES + 1)])
# The same classes on t = arctan2 in [-pi, pi]: t lies in cone _SLOT_CONE[i],
# i = #{b in _T_BOUNDS : b <= t}.
_T_BOUNDS = np.array([_negative_start(r) for r in RAY_STARTS[3:]] + list(RAY_STARTS[:3]))
_SLOT_CONE = np.array([3, 4, 5, 0, 1, 2, 3], dtype=np.int64)


def cone_indices_from_deltas(dx, dy) -> np.ndarray:
    """Cone index in {0..5} of each direction vector (dx, dy).

    Cone c covers directions with angle in [c*pi/3, (c+1)*pi/3), measured
    counterclockwise from the positive x axis.  The single definition
    point for cone classification: every construction in the package
    funnels through here, so boundary rounding cannot diverge.

    The specification is `(arctan2(dy, dx) % TWO_PI) // CONE_ANGLE % 6`,
    and this computes the same integer by counting the six sorted bounds
    at or below t = arctan2(dy, dx) in [-pi, pi], one comparison each,
    instead of a float modulo and division.
    `t % TWO_PI` is fmod(t, TWO_PI) = t, exact because |t| < TWO_PI, plus
    TWO_PI where t < 0: theta = t + TWO_PI there, rounded once, and t
    elsewhere (t = -0.0 lands in cone 0 either way).  For 0 <= theta <=
    TWO_PI, float `theta // CONE_ANGLE` is the exact floor q of the real
    quotient: fmod gives the exact remainder, and the rounding of
    (theta - remainder) / CONE_ANGLE, a few ulps at q <= 6, is undone by
    numpy's correction to the nearest integer.  Hence q >= j exactly when
    theta >= j * CONE_ANGLE as reals, and for a float theta that holds
    exactly when theta >= R_j, the smallest float64 not below that real
    (`RAY_STARTS`).  So q counts the R_j at or below theta, and q = 6,
    where theta rounds up to TWO_PI, folds back onto cone 0.  For t >= 0
    the bounds R_1..R_3 apply to t itself.  For t < 0, theta >= pi = R_3
    always, and since rounding is monotone, theta >= R_j (j = 4, 5, 6)
    exactly when t is at least the smallest float whose sum with TWO_PI
    rounds to R_j or above (`_negative_start`).  Those six bounds, in
    order, split [-pi, pi] into the slots of `_SLOT_CONE`.
    """
    return _cone_of_angle(np.arctan2(dy, dx))


def _cone_of_angle(t) -> np.ndarray:
    """Cone index of each angle t in [-pi, pi]: the slot of t among `_T_BOUNDS`.

    Counts the bounds at or below t with six comparisons, which equals
    `np.searchsorted(_T_BOUNDS, t, side="right")` and is several times faster.
    """
    slot = np.zeros(np.shape(t), dtype=np.uint8)
    for bound in _T_BOUNDS:
        slot += bound <= t
    return _SLOT_CONE[slot]


def max_gap(values) -> float:
    """Largest difference between consecutive values in sorted order.

    A single value has gap 0.  Empty or non-finite input is rejected.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        raise ValueError("values must be non-empty")
    if not np.isfinite(v).all():
        raise ValueError("values contains a non-finite entry")
    s = np.sort(v)
    return float(np.max(s[1:] - s[:-1], initial=0.0))
