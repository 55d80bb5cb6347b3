"""Bipartite six-cone nearest-neighbor graph between terminals and candidates.

Around every terminal the plane splits into six half-open 60-degree cones.
Each cone that contains at least one candidate point contributes exactly one
edge, to the Euclidean-nearest candidate inside the cone (ties broken by the
smallest candidate index).  Terminals therefore carry at most six edges,
and the graph is kept as its (n, 6) cone table, `YaoGraph`.

Two constructions fill the same table: `yao_bruteforce` scans all
candidate points per terminal, `yao_bipartite` accelerates the search with
one k-d tree over the candidates, which serves both its kNN rounds and its
exact cone search.  The rounds visit the terminals in Z-order and reduce
each round's neighbor lists in fixed-size row blocks, so their working set
beyond the query's own output stays bounded.  Both constructions classify
cones and measure distances through the shared routines in `geometry`, so
their tables are identical bit for bit.

A candidate that coincides with the terminal lies in no cone, so an
overlapping pair yields no edge.  The solver never meets one, because
`solver.validate_instance` rejects P and S that share a point, but
`emst` builds the graph of a point set with itself, `yao_bipartite(U, U)`,
where every point is its own apex.
"""

from __future__ import annotations

import functools
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

# The kNN rounds start at k = _KNN_START and quadruple k up to _KNN_CAP;
# cones still open after that go to the exact cone search.
_KNN_START = 32
_KNN_CAP = 512
# Leaf size of the k-d tree over S, chosen by measurement on a 2-core
# machine.  Against scipy's default of 16, 64 makes the cone search along a
# line of 2**13 points at 60 degrees about 4x faster and leaves the kNN
# rounds at 2**19 points level; 128 and 256 slow those rounds by 10-30 %.
_LEAF_SIZE = 64
# A kNN round uses every core only when it fetches at least this many
# neighbors.  Smaller rounds take a few ms, and split over threads they
# wait on the slower thread whenever another process holds a core: on the
# hull workload (2**11 terminals, rounds of at most 2**17 fetches) the
# throughput of eight alternating 30 s runs on a shared 2-core machine
# had an interquartile range of 16 % of its median, against 4 % with
# these rounds single-threaded.  The first round at 2**14 terminals
# fetches 2**19 neighbors, where threads save about 40 % on that machine.
_PARALLEL_MIN = 1 << 18
# Each round's neighbor lists are reduced in row blocks of about this many
# neighbors, so the glue around the query holds a few (rows, k) arrays of
# 2**15 entries instead of eight of the whole round's size: at 2**14
# terminals that cut the peak traced memory of one call from 35.6 MB to
# 10.5 MB.
_BLOCK = 1 << 15


@dataclass(frozen=True)
class YaoGraph:
    """The graph as its (n, 6) cone table, one row per terminal.

    `best_w[p, c]` is the squared length of the edge in cone c of
    terminal p and `best_s[p, c]` its candidate index; an empty cone holds
    inf and `candidate_count`.  The flat views `p_idx`, `s_idx`, `cone`
    and `w` list the non-empty cells in row-major order, that is sorted
    by (terminal, cone).
    """

    candidate_count: int
    best_w: np.ndarray
    best_s: np.ndarray

    @property
    def terminal_count(self) -> int:
        return len(self.best_s)

    @property
    def _filled(self) -> np.ndarray:
        return self.best_s < self.candidate_count

    @property
    def p_idx(self) -> np.ndarray:
        return np.nonzero(self._filled)[0].astype(np.int64)

    @property
    def cone(self) -> np.ndarray:
        return np.nonzero(self._filled)[1].astype(np.int64)

    @property
    def s_idx(self) -> np.ndarray:
        return self.best_s[self._filled]

    @property
    def w(self) -> np.ndarray:
        return self.best_w[self._filled]

    def edge_count(self) -> int:
        return int(np.count_nonzero(self._filled))

    def degrees(self) -> np.ndarray:
        """Number of edges per terminal."""
        return np.count_nonzero(self._filled, axis=1)

    def edges_of(self, p: int) -> list[tuple[int, int, float]]:
        """Edges (s, cone, squared length) of one terminal."""
        c = np.flatnonzero(self._filled[p])
        return list(zip(self.best_s[p, c].tolist(), c.tolist(), self.best_w[p, c].tolist()))

    def cell_labels(self, label: np.ndarray, threshold: float) -> np.ndarray:
        """(n, 6) label of each cell's candidate, -1 unless its edge is shorter than threshold.

        An empty cone's length is inf, never below a threshold, so its
        out-of-range index may be clipped.
        """
        return np.where(self.best_w < threshold, label.take(self.best_s, mode="clip"), -1)


def row_min(table: np.ndarray) -> np.ndarray:
    """Minimum of each row of an (n, 6) cone table, equal to `table.min(axis=1)`.

    Reduces the six columns pairwise, which NumPy does several times
    faster than a reduction along the short axis.
    """
    return functools.reduce(np.minimum, table.T)


def same_edges(a: YaoGraph, b: YaoGraph) -> bool:
    """Exact cell-for-cell equality of two graphs."""
    return (
        a.candidate_count == b.candidate_count
        and np.array_equal(a.best_s, b.best_s)
        and np.array_equal(a.best_w, b.best_w)
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
    return YaoGraph(m, best_w, best_s)


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
    kdtree: cKDTree,
    apex: np.ndarray,
    cone: int,
    seed_w: float,
    seed_s: int,
) -> tuple[float, int]:
    """Exact nearest candidate inside one cone, starting from a seed bound.

    Walks the nodes of the k-d tree the kNN rounds built.  The root's box
    is the tree's bounding box, and each child takes its parent's box cut
    at the split; the cut is closed on both sides, because a point on the
    split plane can sit in either child.  Boxes are pruned when they
    cannot intersect the cone or when their minimum distance strictly
    exceeds the best bound; equal distances are still explored so index
    tie-breaks stay exact.
    """
    best_w, best_s = seed_w, seed_s
    ax, ay = float(apex[0]), float(apex[1])
    pts = kdtree.data
    perm = kdtree.indices
    (x0, y0), (x1, y1) = kdtree.mins.tolist(), kdtree.maxes.tolist()
    stack = [(kdtree.tree, (x0, x1, y0, y1))]
    while stack:
        node, box = stack.pop()
        if _box_min_sqdist(ax, ay, box) > best_w:
            continue
        if not _cone_box_overlap(ax, ay, cone, box):
            continue
        if node.split_dim < 0:
            idx = perm[node.start_idx : node.end_idx]
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
            bx0, bx1, by0, by1 = box
            t = node.split
            if node.split_dim == 0:
                lesser, greater = (bx0, t, by0, by1), (t, bx1, by0, by1)
            else:
                lesser, greater = (bx0, bx1, by0, t), (bx0, bx1, t, by1)
            # visit the nearer child first
            if _box_min_sqdist(ax, ay, lesser) <= _box_min_sqdist(ax, ay, greater):
                stack.append((node.greater, greater))
                stack.append((node.lesser, lesser))
            else:
                stack.append((node.lesser, lesser))
                stack.append((node.greater, greater))
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


def _spread_bits(v: np.ndarray) -> np.ndarray:
    """Move bit i of each 16-bit value to bit 2i."""
    v = (v | (v << 8)) & 0x00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F
    v = (v | (v << 2)) & 0x33333333
    return (v | (v << 1)) & 0x55555555


def _z_order(P: np.ndarray) -> np.ndarray:
    """Permutation visiting P along a Morton (Z-order) curve.

    Each axis is scaled to its bounding box and quantised to 16 bits (a
    zero span counts as 1, so every point lands in cell 0), and the bits of
    x and y are interleaved into one key; ties keep input order.
    """
    lo = P.min(axis=0)
    span = P.max(axis=0) - lo
    span[span == 0] = 1.0
    q = np.minimum((P - lo) * (65535.0 / span), 65535.0).astype(np.uint32)
    return np.argsort(_spread_bits(q[:, 0]) | (_spread_bits(q[:, 1]) << 1), kind="stable")


def yao_bipartite(P, S) -> YaoGraph:
    """Accelerated construction, identical output to `yao_bruteforce`.

    Phase one answers most (terminal, cone) queries from batched k-nearest
    -neighbor rounds with growing k: a cone is settled once its best
    in-cone candidate lies strictly inside the k-th-neighbor ball (or once
    k reaches the full candidate count).  After the first round, the open
    cones that provably hold no candidate are settled all at once
    (`_empty_cones`).  Remaining queries, typically terminals near the hull
    with sparse cones, fall through to an exact cone-pruned search of the
    same k-d tree with best-so-far pruning (`_cone_query`).

    The rounds visit the terminals in Morton order (`_z_order`), so
    consecutive queries walk nearby parts of the tree.  Each round makes
    one query for all its terminals, keeps only the k-th-neighbor radius
    of the distances it returns, and reduces the neighbor lists in row
    blocks of about `_BLOCK` neighbors.  Rows are independent, every write
    goes through the terminal's own index, and ties compare candidate
    indices, so neither the order nor the blocks change the graph.

    The module constants `_KNN_START`, `_KNN_CAP`, `_LEAF_SIZE`,
    `_PARALLEL_MIN` and `_BLOCK`, and the visit order, only trade speed
    and memory; any setting yields the same graph.
    Precondition: P and S are non-empty (not checked here).
    """
    P = as_points(P, "P")
    S = as_points(S, "S")
    n, m = len(P), len(S)
    best_w = np.full((n, NUM_CONES), np.inf)
    best_s = np.full((n, NUM_CONES), m, dtype=np.int64)
    done = np.zeros((n, NUM_CONES), dtype=bool)

    kdtree = cKDTree(S, leafsize=_LEAF_SIZE)
    Sx, Sy = np.ascontiguousarray(S[:, 0]), np.ascontiguousarray(S[:, 1])
    active = _z_order(P)
    k = min(_KNN_START, m)
    while active.size:
        a = len(active)
        d, idx = kdtree.query(P[active], k=k, workers=-1 if a * k >= _PARALLEL_MIN else 1)
        idx = np.atleast_1d(idx).reshape(a, k)
        radius = np.atleast_1d(d).reshape(a, k)[:, -1].copy()
        del d
        rows = max(1, _BLOCK // k)
        for lo in range(0, a, rows):
            block = active[lo : lo + rows]
            b = len(block)
            apex = P[block]
            nbr = idx[lo : lo + rows]
            dx = Sx[nbr] - apex[:, 0, None]
            dy = Sy[nbr] - apex[:, 1, None]
            w = (dx * dx + dy * dy).reshape(-1)
            w[w == 0] = np.inf  # a point on the apex lies in no cone
            cone = cone_indices_from_deltas(dx, dy)

            # scatter-min per (row, cone): squared length first, index on ties
            keys = (np.arange(b, dtype=np.int64)[:, None] * NUM_CONES + cone).reshape(-1)
            acc_w = np.full(b * NUM_CONES, np.inf)
            np.minimum.at(acc_w, keys, w)
            tie = w == acc_w[keys]
            acc_s = np.full(b * NUM_CONES, m, dtype=np.int64)
            np.minimum.at(acc_s, keys[tie], nbr.reshape(-1)[tie])
            acc_w = acc_w.reshape(b, NUM_CONES)
            acc_s = acc_s.reshape(b, NUM_CONES)

            found = np.isfinite(acc_w)
            if k == m:
                settled = np.ones((b, NUM_CONES), dtype=bool)
            else:
                # strict: equal radii could hide an unseen tie with smaller index
                settled = found & (np.sqrt(acc_w) < radius[lo : lo + rows, None])
            best_w[block] = np.where(found, acc_w, best_w[block])
            best_s[block] = np.where(found, acc_s, best_s[block])
            done[block] |= settled
        if k == m:
            break
        active = active[~done[active].all(axis=1)]
        if k == _KNN_START and active.size:
            # cones still open after the first round are often empty
            done[active] |= _empty_cones(P[active], S)
            active = active[~done[active].all(axis=1)]
        if k >= _KNN_CAP:
            break
        k = min(4 * k, m)

    pending = np.argwhere(~done)
    for i, c in pending.tolist():
        best_w[i, c], best_s[i, c] = _cone_query(
            kdtree, P[i], c, float(best_w[i, c]), int(best_s[i, c])
        )

    return YaoGraph(m, best_w, best_s)
