"""Bipartite six-cone nearest-neighbor graph between terminals and candidates.

Around every terminal the plane splits into six half-open 60-degree cones.
Each cone that contains at least one candidate point contributes exactly one
edge, to the Euclidean-nearest candidate inside the cone (ties broken by the
smallest candidate index).  Terminals therefore carry at most six edges,
and the whole graph has at most 6n edges.

Two constructions share the same output contract: `yao_bruteforce` scans all
candidate points per terminal, `yao_bipartite` accelerates the search with a
k-d tree.  Both classify cones and measure distances through the shared
routines in `geometry`, so their edge sets are identical bit for bit.

A candidate that coincides with the terminal lies in no cone, so an
overlapping pair yields no edge.  The solver never meets one, because
`solver.validate_instance` rejects P and S that share a point, but
`emst` builds the graph of a point set with itself, `yao_bipartite(U, U)`,
where every point is its own apex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import (
    CONE_ANGLE,
    NUM_CONES,
    TWO_PI,
    as_points,
    check_disjoint,  # noqa: F401  (unused here; the benchmark tracer rebinds yao.check_disjoint)
    cone_indices,
    cone_indices_from_deltas,
    squared_distances,
)


@dataclass(frozen=True)
class YaoGraph:
    """Flat edge arrays sorted by (terminal, cone)."""

    terminal_count: int
    candidate_count: int
    p_idx: np.ndarray
    s_idx: np.ndarray
    cone: np.ndarray
    w: np.ndarray

    def edge_count(self) -> int:
        return len(self.p_idx)

    def degrees(self) -> np.ndarray:
        """Number of edges per terminal."""
        return np.bincount(self.p_idx, minlength=self.terminal_count)

    def edges_of(self, p: int) -> list[tuple[int, int, float]]:
        """Edges (s, cone, squared length) of one terminal."""
        lo = np.searchsorted(self.p_idx, p, side="left")
        hi = np.searchsorted(self.p_idx, p, side="right")
        return list(
            zip(
                self.s_idx[lo:hi].tolist(),
                self.cone[lo:hi].tolist(),
                self.w[lo:hi].tolist(),
            )
        )


def same_edges(a: YaoGraph, b: YaoGraph) -> bool:
    """Exact edge-for-edge equality of two graphs."""
    return (
        a.terminal_count == b.terminal_count
        and np.array_equal(a.p_idx, b.p_idx)
        and np.array_equal(a.s_idx, b.s_idx)
        and np.array_equal(a.cone, b.cone)
        and np.array_equal(a.w, b.w)
    )


def _graph_from_best(n: int, m: int, best_w: np.ndarray, best_s: np.ndarray) -> YaoGraph:
    rows, cols = np.nonzero(best_s < m)  # row-major: sorted by (terminal, cone)
    return YaoGraph(
        n,
        m,
        rows.astype(np.int64),
        best_s[rows, cols],
        cols.astype(np.int64),
        best_w[rows, cols],
    )


def yao_bruteforce(P, S) -> YaoGraph:
    """Reference construction scanning every candidate per terminal, O(nm).

    Precondition: P and S are non-empty (not checked here).
    """
    P = as_points(P, "P")
    S = as_points(S, "S")
    n, m = len(P), len(S)
    best_w = np.full((n, NUM_CONES), np.inf)
    best_s = np.full((n, NUM_CONES), m, dtype=np.int64)
    for i in range(n):
        d = squared_distances(S, P[i])
        cones = np.where(d > 0, cone_indices(P[i], S), -1)
        for c in range(NUM_CONES):
            sel = np.flatnonzero(cones == c)
            if sel.size == 0:
                continue
            ds = d[sel]
            wmin = ds.min()
            best_w[i, c] = wmin
            best_s[i, c] = sel[ds == wmin].min()
    return _graph_from_best(n, m, best_w, best_s)


class _BoxTree:
    """Static 2-d tree over the candidate points, tight boxes per node."""

    __slots__ = ("pts", "perm", "bbox", "left", "right", "lo", "hi")

    def __init__(self, pts: np.ndarray, leaf_size: int = 64):
        self.pts = pts
        self.perm = np.arange(len(pts), dtype=np.int64)
        self.bbox: list[tuple[float, float, float, float]] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.lo: list[int] = []
        self.hi: list[int] = []
        self._build(0, len(pts), leaf_size)

    def _build(self, lo: int, hi: int, leaf_size: int) -> int:
        idx = self.perm[lo:hi]
        sub = self.pts[idx]
        x0, y0 = sub.min(axis=0)
        x1, y1 = sub.max(axis=0)
        node = len(self.bbox)
        self.bbox.append((float(x0), float(x1), float(y0), float(y1)))
        self.left.append(-1)
        self.right.append(-1)
        self.lo.append(lo)
        self.hi.append(hi)
        if hi - lo > leaf_size:
            axis = 0 if (x1 - x0) >= (y1 - y0) else 1
            mid = (hi - lo) // 2
            part = np.argpartition(sub[:, axis], mid)
            self.perm[lo:hi] = idx[part]
            self.left[node] = self._build(lo, lo + mid, leaf_size)
            self.right[node] = self._build(lo + mid, hi, leaf_size)
        return node


def _box_min_sqdist(ax: float, ay: float, box) -> float:
    x0, x1, y0, y1 = box
    dx = x0 - ax if ax < x0 else (ax - x1 if ax > x1 else 0.0)
    dy = y0 - ay if ay < y0 else (ay - y1 if ay > y1 else 0.0)
    return dx * dx + dy * dy


_ANGLE_SLACK = 1e-9


def _cone_box_overlap(ax: float, ay: float, cone: int, box) -> bool:
    """Conservative test whether a cone with apex (ax, ay) can meet the box."""
    x0, x1, y0, y1 = box
    if x0 <= ax <= x1 and y0 <= ay <= y1:
        return True
    a0 = math.atan2(y0 - ay, x0 - ax)
    rel1 = (math.atan2(y0 - ay, x1 - ax) - a0 + math.pi) % TWO_PI - math.pi
    rel2 = (math.atan2(y1 - ay, x1 - ax) - a0 + math.pi) % TWO_PI - math.pi
    rel3 = (math.atan2(y1 - ay, x0 - ax) - a0 + math.pi) % TWO_PI - math.pi
    rmin = min(0.0, rel1, rel2, rel3)
    rmax = max(0.0, rel1, rel2, rel3)
    box_center = a0 + 0.5 * (rmin + rmax)
    box_half = 0.5 * (rmax - rmin)
    cone_center = (cone + 0.5) * CONE_ANGLE
    gap = abs((box_center - cone_center + math.pi) % TWO_PI - math.pi)
    return gap <= box_half + 0.5 * CONE_ANGLE + _ANGLE_SLACK


def _cone_query(
    tree: _BoxTree,
    apex: np.ndarray,
    cone: int,
    seed_w: float,
    seed_s: int,
) -> tuple[float, int]:
    """Exact nearest candidate inside one cone, starting from a seed bound.

    Boxes are pruned when they cannot intersect the cone or when their
    minimum distance strictly exceeds the best bound; equal distances are
    still explored so index tie-breaks stay exact.
    """
    best_w, best_s = seed_w, seed_s
    ax, ay = float(apex[0]), float(apex[1])
    pts = tree.pts
    perm = tree.perm
    stack = [0]
    while stack:
        node = stack.pop()
        box = tree.bbox[node]
        if _box_min_sqdist(ax, ay, box) > best_w:
            continue
        if not _cone_box_overlap(ax, ay, cone, box):
            continue
        left = tree.left[node]
        if left < 0:
            idx = perm[tree.lo[node] : tree.hi[node]]
            sub = pts[idx]
            w = squared_distances(sub, apex)
            inside = (cone_indices(apex, sub) == cone) & (w > 0)
            cand = (w < best_w) | ((w == best_w) & (idx < best_s))
            sel = np.flatnonzero(inside & cand)
            if sel.size:
                ws = w[sel]
                wmin = ws.min()
                smin = int(idx[sel][ws == wmin].min())
                if wmin < best_w or (wmin == best_w and smin < best_s):
                    best_w, best_s = float(wmin), smin
        else:
            right = tree.right[node]
            # visit the nearer child first
            if _box_min_sqdist(ax, ay, tree.bbox[left]) <= _box_min_sqdist(
                ax, ay, tree.bbox[right]
            ):
                stack.append(right)
                stack.append(left)
            else:
                stack.append(left)
                stack.append(right)
    return best_w, best_s


def _cross(ray: int, pts: np.ndarray) -> np.ndarray:
    """cross(u, x) for every row x, u the unit ray at angle ray * 60 degrees."""
    a = ray * CONE_ANGLE
    return math.cos(a) * pts[:, 1] - math.sin(a) * pts[:, 0]


def _empty_cones(P: np.ndarray, S: np.ndarray) -> np.ndarray:
    """(n, 6) mask of the cones that provably hold no candidate.

    A candidate q classifies into cone c of p only if d = q - p lies
    counterclockwise of the ray at c * 60 degrees, cross(u_c, d) >= -tol,
    and clockwise of the ray at (c + 1) * 60 degrees, cross(u_c+1, d) <= tol.
    `tol` is 1e-12 of the largest coordinate magnitude, far above the
    rounding of the float classification.  Cones 2 and 5 use the exact
    sign of d_y for their upper ray instead, so a set on a horizontal line
    settles them too.  Each cone is then a two-sided dominance query,
    answered for all terminals from one sort of S; a candidate on the apex
    lies in no cone, so when it holds the prefix minimum the next one counts.
    """
    m = len(S)
    tol = 1e-12 * max(np.abs(P).max(), np.abs(S).max())
    empty = np.zeros((len(P), NUM_CONES), dtype=bool)
    for c in range(NUM_CONES):
        a = _cross(c, S)
        order = np.argsort(-a)
        if c in (2, 5):
            sign = 1.0 if c == 5 else -1.0  # cone 2 needs d_y > 0, cone 5 d_y < 0
            b, b_p, slack = sign * S[order, 1], sign * P[:, 1], 0.0
        else:
            b, b_p, slack = _cross(c + 1, S)[order], _cross(c + 1, P), tol
        # prefix minimum of b, where it first occurs, and the minimum without that entry
        low = np.minimum.accumulate(b)
        record = np.r_[True, b[1:] < low[:-1]]
        at = np.maximum.accumulate(np.where(record, np.arange(m), 0))
        rest = np.minimum.accumulate(np.where(record, np.inf, b))
        second = np.minimum(np.r_[np.inf, low][at], rest)
        # candidates counterclockwise of ray c form the prefix of length k
        k = np.searchsorted(-a[order], tol - _cross(c, P), side="right")
        i = np.maximum(k - 1, 0)
        on_apex = (S[order[at[i]]] == P).all(axis=1)
        reach = np.where(on_apex, second[i], low[i])
        empty[:, c] = (k == 0) | ~(reach < b_p + slack)
    return empty


def yao_bipartite(P, S, *, knn_start: int = 32, knn_cap: int = 512, leaf_size: int = 64) -> YaoGraph:
    """Accelerated construction, identical output to `yao_bruteforce`.

    Phase one answers most (terminal, cone) queries from batched k-nearest
    -neighbor rounds with growing k: a cone is settled once its best
    in-cone candidate lies strictly inside the k-th-neighbor ball (or once
    k reaches the full candidate count).  After the first round, the open
    cones that provably hold no candidate are settled all at once
    (`_empty_cones`).  Remaining queries, typically terminals near the hull
    with sparse cones, fall through to an exact cone-pruned tree search
    with best-so-far pruning.

    The keyword knobs only trade speed; any setting yields the same graph.
    Precondition: P and S are non-empty (not checked here).
    """
    P = as_points(P, "P")
    S = as_points(S, "S")
    n, m = len(P), len(S)
    best_w = np.full((n, NUM_CONES), np.inf)
    best_s = np.full((n, NUM_CONES), m, dtype=np.int64)
    done = np.zeros((n, NUM_CONES), dtype=bool)

    kdtree = cKDTree(S)
    active = np.arange(n, dtype=np.int64)
    k = min(knn_start, m)
    while active.size:
        a = len(active)
        d, idx = kdtree.query(P[active], k=k, workers=-1)
        d = np.atleast_1d(d).reshape(a, k)
        idx = np.atleast_1d(idx).reshape(a, k)
        apex = P[active]
        tgt = S[idx.reshape(-1)].reshape(a, k, 2)
        dx = tgt[..., 0] - apex[:, None, 0]
        dy = tgt[..., 1] - apex[:, None, 1]
        w = (dx * dx + dy * dy).reshape(-1)
        w[w == 0] = np.inf  # a point on the apex lies in no cone
        cone = cone_indices_from_deltas(dx, dy)

        # scatter-min per (row, cone): squared length first, index on ties
        keys = (np.arange(a, dtype=np.int64)[:, None] * NUM_CONES + cone).reshape(-1)
        acc_w = np.full(a * NUM_CONES, np.inf)
        np.minimum.at(acc_w, keys, w)
        tie = w == acc_w[keys]
        acc_s = np.full(a * NUM_CONES, m, dtype=np.int64)
        np.minimum.at(acc_s, keys[tie], idx.reshape(-1)[tie])
        acc_w = acc_w.reshape(a, NUM_CONES)
        acc_s = acc_s.reshape(a, NUM_CONES)

        found = np.isfinite(acc_w)
        if k == m:
            settled = np.ones((a, NUM_CONES), dtype=bool)
        else:
            # strict: equal radii could hide an unseen tie with smaller index
            settled = found & (np.sqrt(acc_w) < d[:, -1][:, None])
        best_w[active] = np.where(found, acc_w, best_w[active])
        best_s[active] = np.where(found, acc_s, best_s[active])
        done[active] |= settled
        if k == m:
            break
        active = active[~done[active].all(axis=1)]
        if k == knn_start and active.size:
            # cones still open after the first round are often empty
            done[active] |= _empty_cones(P[active], S)
            active = active[~done[active].all(axis=1)]
        if k >= knn_cap:
            break
        k = min(4 * k, m)

    pending = np.argwhere(~done)
    if len(pending):
        tree = _BoxTree(S, leaf_size=leaf_size)
        for i, c in pending.tolist():
            w0, s0 = _cone_query(tree, P[i], c, float(best_w[i, c]), int(best_s[i, c]))
            best_w[i, c] = w0
            best_s[i, c] = s0

    return _graph_from_best(n, m, best_w, best_s)
