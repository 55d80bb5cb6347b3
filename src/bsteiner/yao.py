"""Bipartite six-cone nearest-neighbor graph between terminals and candidates.

Around every terminal the plane splits into six half-open 60-degree cones.
Each cone that contains at least one candidate point contributes exactly one
edge, to the Euclidean-nearest candidate inside the cone (ties broken by the
smallest candidate index).  Terminals therefore carry at most six edges,
and the graph is kept as its (n, 6) cone table, `YaoGraph`.

Two constructions fill the same table: `yao_bruteforce` scans all
candidate points per terminal, `yao_bipartite` accelerates the search with
one k-d tree over the candidates in three steps.  A kNN round, with the
terminals in Z-order, queried in chunks of rows so that its memory stays
bounded, and its neighbor lists reduced in fixed-size row blocks, settles
most cells.  A caller that reads no cell at or above a squared length
`limit`, other than each row's minimum, passes that limit (the solver
passes the largest edge of the candidates' spanning tree).  The round then
fetches only the neighbors within a hair above sqrt(limit), and retires,
as empty, each open cell that no such read can reach.  When many cells
stay open, a proof from one sort of the candidates per cone settles the
open cones that hold no candidate.  One batched exact search of the same
tree settles the rest: it cuts the tree's index order into leaves of one
width, and walks their boxes level by level for all open cells at once,
pruning by distance and by the cone's two half-planes, which it reads
from the proof's table `_CONES`, and classifies the leaf points in NumPy.
Both constructions measure every length with `geometry.squared_norms`
and classify every cone with `geometry.cone_indices_from_deltas`, both
applied to the deltas they already hold, so their tables are identical
bit for bit, and with a limit, identical in every cell below it and in
each row's minimum.

With a limit, the table starts with each terminal's nearest candidate
only: one unbounded round with k = 2 gives every row its exact minimum
and, where the second-nearest candidate lies beyond the limit, its whole
row.  The graph keeps the k-d tree and its leaf boxes, and
`YaoGraph.complete` fills any other row when a caller needs it, through
the steps above, so that a row reads the same whenever it is filled.
Without a limit no cell may be left out, and every row is filled at
once.

The search is what degenerate sets exercise.  On a 2-core machine
`yao_bipartite(S, S)` takes about 0.22 s on 2**12 points of a circle, and
it grows 3-3.5x per doubling there (0.71 s at 2**13, 2.4 s at 2**14),
because the cones nearly tangent to the circle meet the leaf boxes along
the arc.  On a line of points at 60 degrees, where rounding leaves cones
that no proof can settle, it takes about 0.024 s at 2**12 and 0.50 s at
2**16, with doubling ratios of 2.0-2.2.

A candidate that coincides with the terminal lies in no cone, so an
overlapping pair yields no edge.  The solver never meets one, because
`solver.validate_instance` rejects P and S that share a point, but
`emst` builds the graph of a point set with itself, `yao_bipartite(U, U)`,
where every point is its own apex.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .geometry import (
    CONE_ANGLE,
    NUM_CONES,
    as_points,
    check_disjoint,  # noqa: F401  (unused here; the benchmark tracer rebinds yao.check_disjoint)
    cone_indices_from_deltas,
    squared_norms,
)

# The kNN round fetches up to k = _KNN_START neighbors per terminal; cones
# it leaves open and the limit lets through go to the emptiness proof, when
# there are at least m / _LEAF_SIZE of them, and then to the exact cone
# search.
_KNN_START = 32
# Leaf size of the k-d tree over S, and the largest leaf width of the cone
# search, chosen by measurement on a 2-core machine.  Against scipy's
# default of 16, 64 leaves the kNN round at 2**19 points level, and 128 and
# 256 slow it by 10-30 %.  The batched cone search is about as fast with
# leaves of 16 to 64 points (47-55 ms along a line of 2**13 points at 60
# degrees, 0.22-0.23 s on a circle of 2**12), and 128 slows the circle by 9 %.
_LEAF_SIZE = 64
# Each kNN query fetches at most this many neighbors, 2**14 terminals at
# k = 32, so a round holds two (rows, k) output arrays of 4 MiB each
# instead of the whole round's: at 2**19 terminals one query returned
# 256 MiB.  Rounds of up to 2**14 terminals stay one query.  Queries of
# 4 096 rows slowed solves of 2**14 terminals by 8-9 % on a 2-core
# machine: glibc's mmap and trim thresholds follow the largest array
# freed, so each solve handed its freed heap back to the kernel and
# faulted it in again.
_QUERY = 1 << 19
# Each query's neighbor lists are reduced in row blocks of about this many
# neighbors, so the glue around the query holds a few (rows, k) arrays of
# 2**15 entries instead of eight of the whole query's size: at 2**14
# terminals that cut the peak traced memory of one call from 35.6 MB to
# 10.5 MB.
_BLOCK = 1 << 15


@dataclass
class YaoGraph:
    """The graph as its (n, 6) cone table, one row per terminal.

    `best_w[p, c]` is the squared length of the edge in cone c of
    terminal p and `best_s[p, c]` its candidate index; an empty cone holds
    inf and `candidate_count`.  The flat views `p_idx`, `s_idx`, `cone`
    and `w` list the non-empty cells in row-major order, that is sorted
    by (terminal, cone).

    `full` marks the rows that hold their whole cone table.  Every row's
    minimum equals the cell of the complete graph, ties included.  A row
    that is not full holds that cell alone, and `complete` fills it.

    `limit` is the squared length up to which the full rows are exact.
    Every cell of a full row shorter than it equals the cell of the
    complete graph.  A cell at or above it may read as empty, (inf,
    `candidate_count`), although its cone holds a candidate; its true
    length is then at least `limit` and larger than its row's minimum.
    With a finite limit, a row is full once `complete` has filled it, or
    from the start when its second-nearest candidate lies beyond the
    limit (`yao_bipartite`); inf marks a complete table, every row full.
    """

    candidate_count: int
    best_w: np.ndarray
    best_s: np.ndarray
    limit: float = np.inf
    full: np.ndarray | None = None  # None: every row
    _filler: _Filler | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.full is None:
            self.full = np.ones(len(self.best_s), dtype=bool)

    def complete(self, rows) -> None:
        """Fill the named rows whole; rows that are full already stay as they are.

        Every fill runs the same round, proof and search, and rows do not
        depend on each other, so a row holds the same cells whenever it is
        filled and whatever is filled with it.  Once every row is full the
        graph lets go of its k-d tree.
        """
        rows = np.asarray(rows, dtype=np.intp)
        rows = rows[~self.full[rows]]
        if len(rows):
            self._filler.fill(self, rows)
            self.full[rows] = True
        if self.full.all():
            self._filler = None

    def binding_row(self) -> int:
        """The row with the largest minimum, the first on ties, filled whole."""
        p = int(np.argmax(row_min(self.best_w)))
        self.complete([p])
        return p

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

    def cell_labels(self, label: np.ndarray, threshold: float, rows=slice(None)) -> np.ndarray:
        """(n, 6) label of each cell's candidate, -1 unless its edge is shorter than threshold.

        An empty cone's length is inf, never below a threshold, so its
        out-of-range index may be clipped.  Besides boolean masks, the
        result is the only (n, 6) array the call allocates.  `rows` picks
        the rows to label, every row by default.
        """
        cells = label.take(self.best_s[rows], mode="clip")
        np.putmask(cells, ~(self.best_w[rows] < threshold), -1)
        return cells


def row_min(table: np.ndarray) -> np.ndarray:
    """Minimum of each row of an (n, 6) cone table, equal to `table.min(axis=1)`.

    Reduces the six columns pairwise, which NumPy does several times
    faster than a reduction along the short axis.
    """
    return functools.reduce(np.minimum, table.T)


def row_any(mask: np.ndarray) -> np.ndarray:
    """Whether each row of an (n, 6) boolean table holds a True, equal to `mask.any(axis=1)`.

    Reduces the six columns pairwise, like `row_min`.
    """
    return functools.reduce(np.logical_or, mask.T)


def same_edges(a: YaoGraph, b: YaoGraph) -> bool:
    """Exact cell-for-cell equality of two graphs."""
    return (
        a.candidate_count == b.candidate_count
        and np.array_equal(a.best_s, b.best_s)
        and np.array_equal(a.best_w, b.best_w)
    )


def yao_bruteforce(P, S) -> YaoGraph:
    """Reference construction scanning every candidate per terminal, O(nm).

    An empty P gives a (0, 6) table and an empty S a table of empty cones.
    """
    P = as_points(P, "P")
    S = as_points(S, "S")
    n, m = len(P), len(S)
    best_w = np.full((n, NUM_CONES), np.inf)
    best_s = np.full((n, NUM_CONES), m, dtype=np.int64)
    for i in range(n):
        dx, dy = S[:, 0] - P[i, 0], S[:, 1] - P[i, 1]
        d = squared_norms(dx, dy)
        cones = np.where(d > 0, cone_indices_from_deltas(dx, dy), -1)
        for c in range(NUM_CONES):
            sel = np.flatnonzero(cones == c)
            if sel.size == 0:
                continue
            ds = d[sel]
            wmin = ds.min()
            best_w[i, c] = wmin
            best_s[i, c] = sel[ds == wmin].min()
    return YaoGraph(m, best_w, best_s)


# cos and sin of the ray at c * 60 degrees, c = 0..6
_RAYS = np.array([(math.cos(c * CONE_ANGLE), math.sin(c * CONE_ANGLE)) for c in range(NUM_CONES + 1)])
# Each cone's two half-plane tests, read by the proof and the search: q can
# lie in cone c of p only if d = q - p has cross(lower, d) >= -tol and
# cross(upper, d) < tol (< 0 without `slack`).  Cones 2 and 5 test the exact
# sign of d_y instead (upper ray on the x axis), which settles horizontal lines.
_CONES = np.array(
    [(_RAYS[c], _RAYS[c + 1], True) for c in range(NUM_CONES)],
    dtype=[("lower", float, 2), ("upper", float, 2), ("slack", bool)],
)
_CONES[[2, 5]] = [(_RAYS[2], (-1.0, 0.0), False), (_RAYS[5], (1.0, 0.0), False)]


def _cross(ray, pts: np.ndarray) -> np.ndarray:
    """cross(u, x) for every row x, u = (cos, sin) one ray or a (2, k) array of one per row."""
    cos, sin = ray
    return cos * pts[:, 1] - sin * pts[:, 0]


def _tolerance(P: np.ndarray, S: np.ndarray) -> float:
    """Slack of the half-plane tests: 1e-12 of the largest magnitude, far above the classification's rounding."""
    return 1e-12 * max(np.abs(P).max(), np.abs(S).max())


def _cone_tests(c, apex: np.ndarray, tol: float):
    """Tests of cone c at each apex: q passes if -cross(lower, q) <= t_a and cross(upper, q) < t_b.

    Returns (lower, t_a, upper, t_b); with one cone per apex the rays are (2, k) arrays.
    """
    cone = _CONES[c]
    lower, upper = cone["lower"].T, cone["upper"].T
    return lower, tol - _cross(lower, apex), upper, _cross(upper, apex) + cone["slack"] * tol


def _empty_cones(P: np.ndarray, S: np.ndarray) -> np.ndarray:
    """(n, 6) mask of the cones that provably hold no candidate.

    Each cone's tests (`_cone_tests`) make a two-sided dominance query,
    answered for all terminals from one sort of S; a candidate on the apex
    lies in no cone, so when it holds the prefix minimum the next one counts.
    """
    m = len(S)
    tol = _tolerance(P, S)
    empty = np.zeros((len(P), NUM_CONES), dtype=bool)
    for c in range(NUM_CONES):
        lower, t_a, upper, t_b = _cone_tests(c, P, tol)
        a = _cross(lower, S)
        order = np.argsort(-a)
        b = _cross(upper, S)[order]
        # prefix minimum of b, where it first occurs, and the minimum without that entry
        low = np.minimum.accumulate(b)
        record = np.r_[True, b[1:] < low[:-1]]
        at = np.maximum.accumulate(np.where(record, np.arange(m), 0))
        rest = np.minimum.accumulate(np.where(record, np.inf, b))
        second = np.minimum(np.r_[np.inf, low][at], rest)
        # candidates that pass the lower test form the prefix of length k
        k = np.searchsorted(-a[order], t_a, side="right")
        i = np.maximum(k - 1, 0)
        on_apex = (S[order[at[i]]] == P).all(axis=1)
        reach = np.where(on_apex, second[i], low[i])
        empty[:, c] = (k == 0) | ~(reach < t_b)
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


def _scatter_min(keys: np.ndarray, w: np.ndarray, s: np.ndarray, size: int, m: int):
    """Smallest (w, s) pair of each key in range(size): squared length first, index on ties.

    A key with no entry holds (inf, m); callers read s only where w is finite.
    """
    acc_w = np.full(size, np.inf)
    np.minimum.at(acc_w, keys, w)
    tie = w == acc_w[keys]
    acc_s = np.full(size, m, dtype=np.int64)
    np.minimum.at(acc_s, keys[tie], s[tie])
    return acc_w, acc_s


def _knn_round(kdtree, P, rows, k, bound, limit, Sx, Sy, best_w, best_s, done, radius) -> None:
    """Fill the table rows of terminals `rows` from k-nearest-neighbor queries.

    Each query fetches the k nearest candidates of a chunk of rows that
    lie within distance `bound`, at most `_QUERY` neighbors in all, and
    pads a row with fewer (index m, distance inf).  Each cone takes its
    nearest fetched candidate.  `radius` keeps the row's radius r, the
    k-th distance or `bound`, whichever is smaller: no candidate left
    unfetched lies nearer.  Each cell is then one of three kinds, and
    `done` marks the first two:

    - settled: its candidate lies strictly inside r (strict: equal radii
      could hide an unseen tie with a smaller index).  An unbounded query
      of every candidate settles every cell.
    - retired, (inf, m): r² (1 - 2**-40) is at or above `limit` and above
      the row's smallest settled cell.  cKDTree's distances and its cut
      at `bound`, and the table's w, each carry a few ulps of rounding, so
      that floor lies below the cell's w by thousands of ulps; where
      r = `bound` = sqrt(limit) (1 + 2**-30), it clears the limit by about
      2**-29 of it.  So the cell can neither be read below the limit nor
      be, or tie with, its row's minimum.  A row that settles nothing
      retires nothing.
    - open: it keeps its seed, the nearest in-cone candidate fetched.

    The neighbor lists are reduced in row blocks of about `_BLOCK`
    neighbors, and at most `_BLOCK` cells at small k; each write goes
    through the terminal's own index.
    """
    m = len(Sx)
    complete = k == m and bound == np.inf
    chunk, step = max(1, _QUERY // k), max(1, _BLOCK // max(k, NUM_CONES))
    for start in range(0, len(rows), chunk):
        part = rows[start : start + chunk]
        d, idx = kdtree.query(P[part], k=k, distance_upper_bound=bound, workers=-1)
        idx = np.atleast_1d(idx).reshape(len(part), k)
        radius[part] = np.minimum(np.atleast_1d(d).reshape(len(part), k)[:, -1], bound)
        del d
        for lo in range(0, len(part), step):
            block = part[lo : lo + step]
            b = len(block)
            flat = idx[lo : lo + step].reshape(-1)
            at = np.flatnonzero(flat < m)  # drop the padding
            row, s = at // k, flat[at]
            apex = P[block]
            dx = Sx[s] - apex[row, 0]
            dy = Sy[s] - apex[row, 1]
            w = squared_norms(dx, dy)
            w[w == 0] = np.inf  # a point on the apex lies in no cone
            keys = row * NUM_CONES + cone_indices_from_deltas(dx, dy)
            acc_w, acc_s = _scatter_min(keys, w, s, b * NUM_CONES, m)
            acc_w = acc_w.reshape(b, NUM_CONES)
            r = radius[block]
            settled = complete | (np.sqrt(acc_w) < r[:, None])
            floor = r**2 * (1.0 - 2.0**-40)
            unread = (floor >= limit) & (floor > row_min(np.where(settled, acc_w, np.inf)))
            retire = ~settled & unread[:, None]
            acc_w[retire] = np.inf
            best_w[block] = acc_w
            best_s[block] = np.where(np.isfinite(acc_w), acc_s.reshape(b, NUM_CONES), m)
            done[block] = settled | retire


@dataclass(frozen=True)
class _Boxes:
    """Fixed-width leaves of candidates and the bounding boxes above them.

    Row j of `order` is leaf j, a run of consecutive entries of the k-d
    tree's `indices` padded to the common width with copies of its last
    entry, and `x` and `y` hold the leaves' coordinates in the same
    (leaves, width) shape.  The leaf count is a power of two.  Each level
    is a (4, count) array of boxes (x0, y0, x1, y1).  `levels[-1]` holds
    the tight box of each leaf, and each level above pairs consecutive
    boxes of the one below, up to the one box of all candidates in
    `levels[0]`.  The children of box j are boxes 2j and 2j + 1 of the
    next level.
    """

    order: np.ndarray
    x: np.ndarray
    y: np.ndarray
    levels: list


def _boxes(kdtree: cKDTree, S: np.ndarray) -> _Boxes:
    """Cut the tree's index order into leaves of at most `_LEAF_SIZE` candidates and box them.

    The order is halved as the balanced tree halves its nodes, n // 2
    entries first, until no run holds more than `_LEAF_SIZE`.  Where the
    tree splits between distinct coordinates, each run then lies inside
    one of its nodes, and its box is no larger than that node's.  Any
    partition gives the same answers: a padding copy leaves its leaf's
    box unchanged and can only repeat a (w, s) pair, which `_scatter_min`
    ignores.
    """
    size = np.array([len(S)])
    while size[-1] > _LEAF_SIZE:
        size = np.column_stack((size // 2, size - size // 2)).ravel()
    start = np.cumsum(size) - size
    order = kdtree.indices[start[:, None] + np.minimum(np.arange(size[-1]), size[:, None] - 1)]
    x, y = S[order, 0], S[order, 1]
    box = np.array([x.min(axis=1), y.min(axis=1), x.max(axis=1), y.max(axis=1)])
    levels = [box]
    while box.shape[1] > 1:
        box = np.vstack((np.minimum(box[:2, 0::2], box[:2, 1::2]), np.maximum(box[2:, 0::2], box[2:, 1::2])))
        levels.append(box)
    return _Boxes(order, x, y, levels[::-1])


def _walk(boxes: _Boxes, test: np.ndarray, cone: np.ndarray, r2: np.ndarray, seen: np.ndarray, m: int):
    """Nearest in-cone candidate within squared radius r2 of each query.

    Column i of `test` holds query i's apex (x, y) and the `_cone_tests`
    of its cone.  Each test is monotone in each coordinate, so a box whose
    best corner fails either holds no candidate of the cone.  The
    walk goes down one level at a time with a frontier of (query, box)
    pairs, dropping a pair when its box fails a test, lies farther than
    r2, or lies within `seen`, a squared radius an earlier walk searched
    in vain.  It returns the smallest (w, index) per query, (inf, m)
    where none lies within r2, and the smallest squared distance of a box
    dropped only for its distance, a floor for the next radius (inf if
    none).
    """
    a = len(r2)
    q = np.arange(a)
    node = np.zeros(a, dtype=np.intp)
    beyond = np.full(a, np.inf)
    for depth, level in enumerate(boxes.levels):
        if depth:
            node = (2 * node[:, None] + np.array([0, 1])).ravel()
            q = np.repeat(q, 2)
        x0, y0, x1, y1 = level[:, node]
        ax, ay, cos_a, sin_a, t_a, cos_b, sin_b, t_b = test[:, q]
        dx = np.maximum(np.maximum(x0 - ax, ax - x1), 0.0)
        dy = np.maximum(np.maximum(y0 - ay, ay - y1), 0.0)
        d2 = squared_norms(dx, dy)
        gx = np.maximum(ax - x0, x1 - ax)
        gy = np.maximum(ay - y0, y1 - ay)
        inside = (
            (squared_norms(gx, gy) > seen[q])
            & (np.minimum(sin_a * x0, sin_a * x1) - np.maximum(cos_a * y0, cos_a * y1) <= t_a)
            & (np.minimum(cos_b * y0, cos_b * y1) - np.maximum(sin_b * x0, sin_b * x1) < t_b)
        )
        near = d2 <= r2[q]
        far = inside & ~near
        np.minimum.at(beyond, q[far], d2[far])
        keep = inside & near
        node, q = node[keep], q[keep]

    best_w = np.full(a, np.inf)
    best_s = np.full(a, m, dtype=np.int64)
    # gather the leaves in slices of about _BLOCK / 4 points
    width = boxes.x.shape[1]
    step = max(1, (_BLOCK >> 2) // width)
    for lo in range(0, len(q), step):
        leaf, qq = node[lo : lo + step], q[lo : lo + step]
        dx = boxes.x[leaf] - test[0, qq, None]
        dy = boxes.y[leaf] - test[1, qq, None]
        w = squared_norms(dx, dy)
        hit = np.flatnonzero((w > 0) & (w <= r2[qq, None]))  # a point on the apex lies in no cone
        hit = hit[cone_indices_from_deltas(dx.ravel()[hit], dy.ravel()[hit]) == cone[qq[hit // width]]]
        row = hit // width
        acc_w, acc_s = _scatter_min(qq[row], w.ravel()[hit], boxes.order[leaf[row], hit % width], a, m)
        better = (acc_w < best_w) | ((acc_w == best_w) & (acc_s < best_s))
        best_w = np.where(better, acc_w, best_w)
        best_s = np.where(better, acc_s, best_s)
    return best_w, best_s, beyond


def _cone_search(boxes: _Boxes, P, S, cells, radius, best_w, best_s) -> None:
    """Settle every open (terminal, cone) cell exactly, writing into best_w and best_s.

    A cell the kNN round seeded holds an in-cone candidate, so its answer
    lies within the seed's squared length and one walk finds it.  An
    unseeded cell starts at twice its terminal's k-th-neighbor radius,
    and its squared radius grows 4x per step, at least to the nearest box
    the last walk dropped for distance, until the ball holds an in-cone
    candidate or covers every candidate.  The cells go in chunks of
    `_BLOCK >> 7`, so the frontier stays bounded.
    """
    m = len(S)
    p, c = cells[:, 0], cells[:, 1]
    apex = P[p]
    seed = best_w[p, c]
    r2 = np.where(np.isfinite(seed), seed, 4.0 * radius[p] ** 2)
    seen = np.full(len(cells), -1.0)
    x0, y0, x1, y1 = boxes.levels[0][:, 0]
    gx = np.maximum(apex[:, 0] - x0, x1 - apex[:, 0])
    gy = np.maximum(apex[:, 1] - y0, y1 - apex[:, 1])
    cover = squared_norms(gx, gy)  # no candidate lies farther
    test = np.vstack((apex.T, *_cone_tests(c, apex, _tolerance(apex, S))))

    chunk = max(1, _BLOCK >> 7)
    todo = np.arange(len(cells))
    while todo.size:
        w = np.empty(len(todo))
        s = np.empty(len(todo), dtype=np.int64)
        beyond = np.empty(len(todo))
        for lo in range(0, len(todo), chunk):
            at = todo[lo : lo + chunk]
            w[lo : lo + chunk], s[lo : lo + chunk], beyond[lo : lo + chunk] = _walk(
                boxes, test[:, at], c[at], r2[at], seen[at], m
            )
        settled = np.isfinite(w) | (r2[todo] >= cover[todo])
        best_w[p[todo[settled]], c[todo[settled]]] = w[settled]
        best_s[p[todo[settled]], c[todo[settled]]] = s[settled]
        todo, beyond = todo[~settled], beyond[~settled]
        seen[todo] = r2[todo]
        r2[todo] = np.minimum(np.maximum(4.0 * r2[todo], beyond), cover[todo])


def _open_cells(done: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(terminal, cone) pairs of the cells of `rows` that `done` leaves open, sorted."""
    rows = np.sort(rows)
    cells = np.argwhere(~done[rows])
    cells[:, 0] = rows[cells[:, 0]]
    return cells


class _Filler:
    """What `YaoGraph.complete` reads: both point sets, the k-d tree over the
    candidates and, once a search has needed them, its leaf boxes."""

    def __init__(self, P: np.ndarray, S: np.ndarray):
        self.P, self.S = P, S
        self.kdtree = cKDTree(S, leafsize=_LEAF_SIZE)
        self.Sx, self.Sy = S[:, 0], S[:, 1]  # views: gathers from them cost what copies cost

    @functools.cached_property
    def boxes(self) -> _Boxes:
        return _boxes(self.kdtree, self.S)

    def fill(self, graph: YaoGraph, rows: np.ndarray) -> None:
        """Write the whole rows `rows` of the graph's table, visited in the given order."""
        P, S, kdtree = self.P, self.S, self.kdtree
        n, m = len(P), len(S)
        limit, best_w, best_s = graph.limit, graph.best_w, graph.best_s
        # only the entries of `rows` are written and read
        done = np.empty((n, NUM_CONES), dtype=bool)
        radius = np.empty(n)
        # a margin above the limit's root, so that the round's floor clears the limit
        bound = math.sqrt(limit) * (1.0 + 2.0**-30)
        _knn_round(kdtree, P, rows, min(_KNN_START, m), bound, limit, self.Sx, self.Sy, best_w, best_s, done, radius)
        cells = _open_cells(done, rows)
        if len(cells) * _LEAF_SIZE >= m:
            # many open cones, which are often empty: the proof settles them
            # for six sorts of S, where the search would walk a leaf each
            active = np.unique(cells[:, 0])
            done[active] |= _empty_cones(P[active], S)
            cells = _open_cells(done, rows)
        if len(cells):
            _cone_search(self.boxes, P, S, cells, radius, best_w, best_s)


def yao_bipartite(P, S, limit: float = np.inf) -> YaoGraph:
    """Accelerated construction, identical output to `yao_bruteforce` below `limit`.

    Without a limit no cell may be left out, and every row is filled
    whole at once.  With one, every row first gets one unbounded round
    with k = 2.  A row's nearest candidate is settled when it lies
    strictly nearer than the second, and it is then the row's exact
    minimum.  Where the floor of the second distance clears the limit,
    the round retires the other cells, and the row is full at once.
    Every other row keeps its nearest cell alone, and `YaoGraph.complete`
    fills it when a caller needs it; a row whose two nearest candidates
    tie settles nothing, and is filled whole at once.

    A row is filled by a batched k-nearest-neighbor round (`_knn_round`,
    k = `_KNN_START`), which settles most (terminal, cone) cells and
    retires, as empty, every open cell that no read below `limit` and no
    row minimum can see (`YaoGraph.limit`); `_knn_round` states the rule.

    So the round fetches only what such a read can see.  Its query stops
    at b = sqrt(`limit`) (1 + 2**-30), and pads a row with fewer than k
    candidates within b; the padding is dropped before the cones are
    classified.  The row's radius r is the k-th distance or b, whichever
    is smaller, so a row padded short retires its open cells when it
    settled one.  A row that the k = 2 round left open has its
    second-nearest candidate within b, so it settles its nearest one
    here, unless the two tie; then it settles and retires nothing.
    Without a limit, b is inf.

    When at least m / `_LEAF_SIZE` cells stay open, the open cones that
    provably hold no candidate are then settled all at once
    (`_empty_cones`); fewer open cells cost the search less than the
    proof's six sorts of S.  Every cell still open, typically of
    terminals near the hull with sparse cones, goes to one batched exact
    search of the same k-d tree (`_cone_search`): a level-by-level walk of
    the leaf boxes that prunes by distance and by the two half-planes of
    the cone, and classifies the leaf points in NumPy.  Without a limit
    every open cell is settled and the row is complete.

    The rounds visit the terminals in Morton order (`_z_order`), so
    consecutive queries walk nearby parts of the tree.  A round queries
    its rows in chunks of at most `_QUERY` neighbors, keeps only the k-th
    distance of those each query returns, and reduces the neighbor lists
    in row blocks of about `_BLOCK` neighbors, so its transient memory
    does not grow with n.  Rows are independent, every write goes through
    the terminal's own index, and ties compare candidate indices, so
    neither the order, the chunks, the blocks nor the time a row is
    filled change the graph.

    The module constants `_KNN_START`, `_LEAF_SIZE`, `_QUERY` and
    `_BLOCK`, and the visit order, only trade speed and memory; any
    setting yields the same graph.
    """
    P = as_points(P, "P")
    S = as_points(S, "S")
    n, m = len(P), len(S)
    limit = float(limit)
    if not limit >= 0.0:
        raise ValueError(f"limit must be a squared length >= 0, got {limit!r}")
    best_w = np.full((n, NUM_CONES), np.inf)
    best_s = np.full((n, NUM_CONES), m, dtype=np.int64)
    if not (n and m):
        return YaoGraph(m, best_w, best_s, limit)
    f = _Filler(P, S)
    graph = YaoGraph(m, best_w, best_s, limit, np.zeros(n, dtype=bool), f)
    order = _z_order(P)
    if limit == np.inf:
        graph.complete(order)
        return graph

    done = np.empty((n, NUM_CONES), dtype=bool)
    _knn_round(f.kdtree, P, order, min(2, m), np.inf, limit, f.Sx, f.Sy, best_w, best_s, done, np.empty(n))
    # a row keeps only its settled nearest cell unless the round settled or
    # retired every cell; one that settled none, whose two nearest
    # candidates tie, is filled now
    unread = ~done
    np.putmask(best_w, unread, np.inf)
    np.putmask(best_s, unread, m)
    graph.full[:] = ~row_any(unread)
    graph.complete(np.flatnonzero(~row_any(done)))
    return graph
