"""Planar primitives shared by the whole package.

Every length comparison in the solver, the oracle, and the tests goes
through the squared-distance helpers below, so all components compare
bit-identical float64 values and never disagree on ties.
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
    if np.intersect1d(points_as_complex(P), points_as_complex(S)).size:
        raise ValueError("P and S must be disjoint")


def squared_distance(a, b) -> float:
    """Squared Euclidean distance between two points."""
    dx = float(a[0]) - float(b[0])
    dy = float(a[1]) - float(b[1])
    return dx * dx + dy * dy


def squared_distances(points: np.ndarray, q) -> np.ndarray:
    """Squared distances from every row of `points` to the single point `q`."""
    dx = points[:, 0] - q[0]
    dy = points[:, 1] - q[1]
    return dx * dx + dy * dy


def pair_squared_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-wise squared distances between two equally shaped point arrays."""
    dx = A[:, 0] - B[:, 0]
    dy = A[:, 1] - B[:, 1]
    return dx * dx + dy * dy


def squared_distance_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """All-pairs squared distances, shape (len(A), len(B))."""
    dx = A[:, 0, None] - B[None, :, 0]
    dy = A[:, 1, None] - B[None, :, 1]
    return dx * dx + dy * dy


def cone_indices_from_deltas(dx, dy) -> np.ndarray:
    """Cone index in {0..5} of each direction vector (dx, dy).

    Cone c covers directions with angle in [c*pi/3, (c+1)*pi/3), measured
    counterclockwise from the positive x axis.  The single definition
    point for cone classification: every construction in the package
    funnels through here, so boundary rounding cannot diverge.
    """
    theta = np.arctan2(dy, dx) % TWO_PI
    # theta can round up to exactly 2*pi; fold that back onto cone 0.
    return (theta // CONE_ANGLE).astype(np.int64) % NUM_CONES


def cone_indices(apex, targets: np.ndarray) -> np.ndarray:
    """Cone index of each target as seen from `apex` (no coincident targets)."""
    t = np.asarray(targets, dtype=np.float64)
    return cone_indices_from_deltas(t[..., 0] - apex[0], t[..., 1] - apex[1])


def cone_index(apex, target) -> int:
    """Cone index of a single apex/target pair; errors on coincident points."""
    if float(apex[0]) == float(target[0]) and float(apex[1]) == float(target[1]):
        raise ValueError("degenerate direction")
    return int(cone_indices(apex, np.asarray(target, dtype=np.float64)))


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
