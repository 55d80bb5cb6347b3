"""Euclidean minimum spanning tree of the Steiner candidate set.

The production path triangulates the points and takes scipy's minimum
spanning tree over the triangulation edges, with the edges ranked by
(weight, u, v) so that ties resolve deterministically.  Every edge of
that tree is a strict Gabriel edge: the closed disc on it as diameter
holds no other point (Gabriel & Sokal 1969), so it lies in every
Delaunay triangulation of any subset holding both its ends.

Before the spanning tree is taken, each triangle drops its heaviest side
in (weight, u, v) order.  The three sides form a cycle of candidate
edges, so that side is the strict maximum of a cycle, and by the cycle
property behind Kruskal's algorithm (Kruskal 1956) it lies in no
(weight, u, v) spanning tree.  The sides are weighed with the same
floats the tree compares, so no tolerance enters, and the tree comes out
bit for bit the same.  About 43 % of the triangulation edges survive on
uniform and clustered sets.

To bound memory, sets of more than `_DT_BLOCK` distinct points are split
at medians into boxed blocks, each triangulated on its own.  A tree edge
across blocks ends at two seam points: hull vertices of their block, or
points within twice their largest incident circumradius of their box's
boundary.  An edge's midpoint lies in the Voronoi cell of each end, and
an interior point's cell lies within that circumradius of it.  One more
triangulation of all seam points supplies those edges.

The blocks form one queue shared by two threads.  The calling thread
takes blocks from the front; one helper thread is given the last block
and then takes blocks from the back.  Each thread triangulates its
block and reduces it to the surviving keys and seam points before it
takes another, so at most two triangulations of one `euclidean_mst` are
alive.  Qhull and numpy's loops over large arrays release the
interpreter lock, so the two threads overlap.  The helper is built with
the module and kept for the life of the process; a forked child builds
its own.  Its work runs in the order it was submitted (`on_helper`):
`solver.preprocess` gives it the cone table's first round before the
tree starts, so it joins the queue once that round is done, and the
calling thread takes the blocks until then.  A block that does not
triangulate stops both threads, and the helper has returned before the
seam call, which runs on the calling thread, and before any fallback
starts.

Qhull is not exact around near-duplicates, even those it keeps: it can
join a point to the farther of two points 1e-12 apart.  So each point
within `_NEAR` of the largest coordinate magnitude of another, in both
coordinates, adds its own row of the six-cone Yao graph, which holds
every tree edge at it (Yao 1982); that Qhull errs only there is
measured, not proved.  A set where some call does not triangulate every
point (collinear blocks) takes the Yao graph of all its points.  A dense
Prim implementation serves as the independent reference.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial import Delaunay, QhullError, cKDTree

from .geometry import as_points, points_as_complex, squared_distances
from .yao import yao_bipartite


def sparse_graph(
    m: int, u: np.ndarray, v: np.ndarray, weight: np.ndarray | None = None
) -> csr_matrix:
    """Graph on m vertices with one stored entry per edge (u[i], v[i]).

    Entries are float64, the dtype csgraph routines work in, so they use
    the matrix without converting it; unweighted edges store 1.0.
    """
    order = np.argsort(u)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(u, minlength=m), out=indptr[1:])
    data = np.ones(len(u)) if weight is None else weight[order]
    return csr_matrix((data, v[order], indptr), shape=(m, m))


@dataclass(frozen=True)
class EmstResult:
    """Spanning tree edges sorted by (weight, u, v), plus distinct weights.

    Weights are squared lengths.  `thresholds` lists each distinct edge
    weight exactly once, strictly increasing.
    """

    point_count: int
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_w: np.ndarray
    thresholds: np.ndarray

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        """Edge triples (u, v, squared length) for small-scale inspection."""
        return list(
            zip(self.edge_u.tolist(), self.edge_v.tolist(), self.edge_w.tolist())
        )


def run_starts(a: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from their predecessor.

    `a[run_starts(a)]` equals `np.unique(a)`; an empty array gives an
    empty mask.
    """
    first = np.ones(len(a), dtype=bool)
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return first


def _edge_order(m: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The permutation that sorts distinct pairs (u, v) by (w, u, v).

    The pairs are distinct, so the order is strict and equals
    `np.lexsort((v, u, w))`.  One unstable sort by w places every edge
    whose weight no other edge shares; only the runs of exactly equal w
    are sorted again, by the key u*m + v.
    """
    order = np.argsort(w)
    ws = w[order]
    tie = np.zeros(len(ws), dtype=bool)
    np.equal(ws[1:], ws[:-1], out=tie[1:])
    tie[:-1] |= tie[1:]
    at = np.flatnonzero(tie)
    run = order[at]
    order[at] = run[np.lexsort((u[run] * np.int64(m) + v[run], ws[at]))]
    return order


def _kruskal(m: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> EmstResult:
    """Minimum spanning tree over distinct candidate edges that connect all m points.

    Edge weights are replaced by their ranks 1..E in (w, u, v) order
    (`_edge_order`; a stored 0 would read as no edge).  Distinct ranks
    make the spanning tree unique: exactly the tree a Kruskal scan in
    (w, u, v) order takes.
    """
    order = _edge_order(m, u, v, w)
    u, v, w = u[order], v[order], w[order]
    rank = np.arange(1, len(u) + 1, dtype=np.float64)
    tree = minimum_spanning_tree(sparse_graph(m, u, v, rank), overwrite=True)
    keep = np.sort(tree.data).astype(np.int64) - 1
    eu, ev, ew = u[keep], v[keep], w[keep]
    return EmstResult(m, eu, ev, ew, ew[run_starts(ew)])


# Most points per block's Delaunay call; bounds memory, never the edges.
# Two block calls run at once, so blocks of 2**12 points hold about what
# one call of 2**13 held: a uniform call grew the resident set by 2.6 MiB
# at 2**12 points and 5.3 MiB at 2**13.  The seam call grows as blocks
# shrink: at 2**19 uniform points it holds about 61 700 points, against
# about 40 000 with blocks of 2**13.
_DT_BLOCK = 1 << 12


def _delaunay(pts: np.ndarray) -> Delaunay | None:
    """Delaunay triangulation of pts, or None unless Qhull keeps every point."""
    try:
        tri = Delaunay(pts)
    except QhullError:
        return None
    return tri if len(tri.coplanar) == 0 else None


# The one helper thread, kept for the life of the process.  It runs the
# cone table's k = 2 round beside the spanning tree (`solver.preprocess`)
# and shares the block queue with the caller.  On a 2-core machine an
# executor per call raised the benchmark's uniform peak resident memory
# from about 95 to 99.5 MB.  Reducing its blocks on the helper, where it
# used to run only Qhull, moved that peak by under 1 MB: blob 84.0 -> 83.4
# MB and uniform 83.0 -> 82.2 MB, medians of 10 and 6 runs.  The executor
# is built with the module and starts its thread at the first submit,
# which is thread-safe: the first `preprocess`, or the first
# `euclidean_mst` of more than one block.  A forked child inherits the
# executor but not its thread, and would wait forever on it, so the child
# builds its own.
def _new_helper() -> None:
    global _helper
    _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="bsteiner-helper")


_new_helper()
os.register_at_fork(after_in_child=_new_helper)


def on_helper(fn, *args) -> Future:
    """Run fn(*args) on the helper thread, after the work submitted to it before.

    The caller must wait for the future before it returns, so that no work
    outlives the call that submitted it.
    """
    return _helper.submit(fn, *args)


def _blocks(pts: np.ndarray):
    """Blocks (idx, lo, hi) of at most _DT_BLOCK points, idx ascending.

    Each block owns the closed box with corners lo and hi; its sides on the
    outside of the set are infinite.  A split cuts at the median of the
    wider axis, and points on the cut may fall on either side, since both
    boxes contain it.  So a point strictly inside one box lies in no other.
    """
    todo = [(np.arange(len(pts)), np.full(2, -np.inf), np.full(2, np.inf))]
    while todo:
        idx, lo, hi = todo.pop()
        if len(idx) <= _DT_BLOCK:
            yield idx, lo, hi
            continue
        p = pts[idx]
        axis = int(np.argmax(np.ptp(p, axis=0)))
        half = len(idx) // 2
        order = np.argpartition(p[:, axis], half)
        low_hi, high_lo = hi.copy(), lo.copy()
        low_hi[axis] = high_lo[axis] = p[order[half], axis]
        todo.append((np.sort(idx[order[half:]]), high_lo, hi))
        todo.append((np.sort(idx[order[:half]]), lo, low_hi))


def _seam(
    pts: np.ndarray, tri: Delaunay, corner: np.ndarray, w: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> np.ndarray:
    """Mask of the block points that may end a spanning tree edge leaving the box.

    An interior point's Voronoi cell lies within rho_max of it, the largest
    circumradius of its triangles, so its tree edges are at most 2 rho_max
    long.  Points within that reach of the box boundary are seam points,
    and so is every hull vertex, whose cell is unbounded.

    rho is an upper bound read from the triangles' corners and squared
    side lengths `w` (`_sides`).  In the coordinate domain of `as_points`
    the cross products and squared lengths neither overflow nor go
    subnormal; both are then scaled as if the coordinates were scaled by
    a power of two below 1, so the product of the three squared sides
    stays below 2**9.  A triangle whose area or squared side product
    comes near underflow gets rho = inf.
    """
    e = np.frexp(np.abs(pts).max())[1]
    d1, d2 = corner[1] - corner[0], corner[2] - corner[0]
    s, t = d1[:, 0] * d2[:, 1], d1[:, 1] * d2[:, 0]
    # <= twice the area
    area2 = np.ldexp(np.abs(s - t) - 2.0**-40 * (np.abs(s) + np.abs(t)), -2 * e)
    q = np.ldexp(w, -2 * e)
    abc2 = q[0] * q[1] * q[2]
    rho = np.full(len(area2), np.inf)
    np.divide(np.sqrt(abc2), 2.0 * area2, out=rho, where=np.minimum(area2, abc2) > 2.0**-900)
    rho_max = np.zeros(len(pts))
    for k in range(3):
        np.maximum.at(rho_max, tri.simplices[:, k], rho)
    reach = np.ldexp(np.minimum(pts - lo, hi - pts).min(axis=1), -e)
    seam = ~(2.0 * rho_max * (1.0 + 2.0**-20) < reach)
    seam[tri.convex_hull] = True
    return seam


def _pair_keys(u: np.ndarray, v: np.ndarray, m: int) -> np.ndarray:
    """Keys min*m + max of the pairs (u[i], v[i])."""
    return np.minimum(u, v) * np.int64(m) + np.maximum(u, v)


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct keys in ascending order; sorts `keys` in place."""
    keys.sort()
    return keys[run_starts(keys)]


def _sides(sim: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Corners (3, t, 2) of the triangles `sim` of pts and squared side lengths (3, t).

    Side k joins corners k and k - 1 and is weighed as `euclidean_mst`
    weighs it, with `squared_distances` of its ends, one call for all
    three sides.  pts may hold 0.0 where the input holds -0.0, which
    changes no squared difference.
    """
    ring = np.take(pts, sim.T[[2, 0, 1, 2]], axis=0)  # corners 2, 0, 1, 2: ring[k + 1] is corner k
    return ring[1:], squared_distances(ring[1:], ring[:-1])


def _triangle_keys(sim: np.ndarray, w: np.ndarray, label: np.ndarray, m: int) -> np.ndarray:
    """Sorted distinct keys of the triangle sides that are no triangle's heaviest side.

    Vertex i of `sim` has label[i], and `w` holds the squared side lengths
    of `_sides`.  A side's key is min*m + max of its labels, and the sides
    are ranked by (w, key), as `_kruskal` ranks edges.  All three sides of
    a triangle are candidate edges, so its heaviest side is the strict
    maximum of a 3-cycle, and by the cycle property no (w, u, v) spanning
    tree holds it.  Each triangle tags its heaviest side; one sort of
    key*2 + tag then lists each key's entries with the tagged ones last,
    and a key survives when the last entry of its run is untagged.
    """
    t = len(sim)
    lab = np.take(label, sim.T)
    keys = np.empty((3, t), dtype=np.int64)
    for k in range(3):  # side k joins corners k and k - 1
        keys[k] = _pair_keys(lab[k], lab[k - 1], m)

    def over(i, j):  # side i ranks above side j in (w, key) order
        return (w[i] > w[j]) | ((w[i] == w[j]) & (keys[i] > keys[j]))

    heavy = np.where(over(2, 0) & over(2, 1), 2, over(1, 0))
    tagged = keys << 1
    tagged[heavy, np.arange(t)] |= 1
    tagged = tagged.ravel()
    tagged.sort()
    keys = tagged >> 1
    last = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=last[:-1])
    return keys[last & ((tagged & 1) == 0)]


def _delaunay_keys(upts: np.ndarray, rep: np.ndarray, m: int) -> np.ndarray | None:
    """Sorted distinct keys rep[u]*m + rep[v] of candidate edges holding the tree.

    Each block of `_blocks` is triangulated on its own, and the seam points
    of all blocks together once more.  A tree edge (a, b) across blocks
    has both ends on the seam: its diametral disc holds no other point, so
    its centre lies in a's cell, b within 2 rho_max of a, and b strictly
    inside a's box unless a is a seam point (and likewise for b).  That
    empty disc makes (a, b) a Gabriel edge of the seam set too.  Each
    triangulation keeps only the sides that are the heaviest side of none
    of its triangles (`_triangle_keys`): a dropped side is the strict
    maximum of a 3-cycle, so by the cycle property it is in no (w, u, v)
    spanning tree, and every tree edge of a triangulation survives it.
    Returns None when some call does not triangulate every point it was
    given.

    The blocks form one queue.  The calling thread takes them from the
    front; the helper thread is given the last block and then takes them
    from the back.  Each side reduces a block to its keys and seam points
    before it takes the next, so at most two triangulations are alive.  A
    block that does not triangulate empties the queue, and the caller
    waits for the helper even when its own work raises, so no Qhull call
    outlives this function.  The seam call stays on the calling thread.
    """
    blocks = list(_blocks(upts))
    queue = deque(range(1, len(blocks) - 1))  # pops from either end are atomic
    parts = []  # (keys, seam points) per block, in the order they finish

    def reduce(i):
        idx, lo, hi = blocks[i]
        pts = upts[idx]
        tri = _delaunay(pts)
        if tri is None:
            return None
        corner, w = _sides(tri.simplices, pts)
        seam = idx[_seam(pts, tri, corner, w, lo, hi)] if len(blocks) > 1 else None
        return _triangle_keys(tri.simplices, w, rep[idx], m), seam

    def work(i, take):
        """Reduce block i and each block `take` gets; False once one does not triangulate."""
        while (part := reduce(i)) is not None:
            parts.append(part)
            try:
                i = take()
            except IndexError:  # the queue is empty
                return True
        queue.clear()
        return False

    pending = [on_helper(work, len(blocks) - 1, queue.pop)] if len(blocks) > 1 else []
    try:
        done = work(0, queue.popleft)
    finally:
        queue.clear()  # if the caller raised, the helper takes no further block
        wait(pending)
    if not all([done] + [f.result() for f in pending]):
        return None
    keys = [k for k, _ in parts]
    if len(blocks) > 1:
        idx = np.sort(np.concatenate([s for _, s in parts]))
        pts = upts[idx]
        tri = _delaunay(pts)
        if tri is None:
            return None
        keys.append(_triangle_keys(tri.simplices, _sides(tri.simplices, pts)[1], rep[idx], m))
    return _distinct(np.concatenate(keys))


# A point within this fraction of the largest coordinate magnitude of
# another, in both coordinates, is near and gets its own six-cone row.
# With 30 points and 30 more offset by 2**e to 2**(e + 1) of the magnitude,
# Qhull's tree alone was wrong on 33 of 2 000 sets for e from -29 to -20,
# and with 12 points at one distance around one of 30 on 14; with the near
# points' rows, on none.  2 or 3 of 40 blob instances of the benchmark hold
# two near points, and no uniform or hull instance holds one.
_NEAR = 1e-6


def _near_points(upts: np.ndarray) -> np.ndarray:
    """Mask of the points within `_NEAR` · max|coord| of another point in both coordinates.

    A near pair lies in one run of points whose consecutive x gaps are
    within that, and, among the points of such runs, in one run of y gaps
    within it; only the points of runs along both axes reach the k-d tree.
    """
    tol = _NEAR * np.abs(upts).max()
    idx = np.arange(len(upts))
    for axis in (0, 1):
        idx = idx[np.argsort(upts[idx, axis], kind="stable")]
        gap = np.zeros(len(idx) + 1, dtype=bool)  # gap[i]: points i - 1 and i are close
        gap[1:-1] = np.diff(upts[idx, axis]) <= tol
        idx = idx[gap[:-1] | gap[1:]]
    pairs = cKDTree(upts[idx]).query_pairs(tol, p=np.inf, output_type="ndarray")
    near = np.zeros(len(upts), dtype=bool)
    near[idx[pairs.ravel()]] = True
    return near


def _candidate_edges(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Candidate (u, v) pairs guaranteed to contain the (w, u, v) spanning tree.

    Duplicate coordinates attach to their representative, the smallest
    original index at that coordinate, through zero-length edges.  The
    distinct points U are joined by Delaunay edges when Qhull triangulates
    every point it is given, plus the cells of the six-cone Yao rows of
    the near points (`_near_points`), around which Qhull is not exact:
    every tree edge at a point is a cell of its row (Yao 1982).  When
    Qhull does not triangulate every point (fewer than three points,
    collinear blocks, or a point it reports as coplanar), every point
    takes its row, and the Yao graph of U serves alone.

    Every edge of a (w, u, v) spanning tree is a strict Gabriel edge: no
    other point lies in the closed disc on it as diameter, since such a
    point would be strictly nearer to both ends (Gabriel & Sokal 1969).
    Every Delaunay triangulation contains every such edge.  U of at most
    `_DT_BLOCK` points is triangulated in one call; larger sets are split
    into blocks, each triangulated on its own, and joined through the
    triangulation of their seam points (`_delaunay_keys`, `_seam`).

    The Yao graph's candidates are U in representative order, so it
    breaks distance ties in the same order as (w, u, v).  Each pair comes
    out once, as u < v in ascending key u*m + v.
    """
    m = len(S)
    uniq, inverse = np.unique(points_as_complex(S), return_inverse=True)
    nu = len(uniq)

    rep = np.full(nu, m, dtype=np.int64)
    np.minimum.at(rep, inverse, np.arange(m, dtype=np.int64))
    rep_of = rep[inverse]
    dup = np.flatnonzero(rep_of != np.arange(m))
    zu, zv = rep_of[dup], dup

    upts = np.column_stack((uniq.real, uniq.imag))
    keys = _delaunay_keys(upts, rep, m)
    rows = np.ones(nu, dtype=bool) if keys is None else _near_points(upts)
    if rows.any():
        by_rep = np.argsort(rep)
        yao = yao_bipartite(upts[rows], upts[by_rep])
        cells = _pair_keys(rep[rows][yao.p_idx], rep[by_rep][yao.s_idx], m)
        keys = _distinct(cells if keys is None else np.concatenate((keys, cells)))
    cu, cv = keys // m, keys % m
    return np.concatenate((zu, cu)), np.concatenate((zv, cv))


def euclidean_mst(S) -> EmstResult:
    """Euclidean minimum spanning tree of a point set, squared weights.

    Edges come out sorted by (weight, u, v); ties between equally light
    edges are broken lexicographically so the tree is deterministic even
    when the MST is not unique.  Duplicate coordinates are allowed and
    join the tree through zero-length edges.
    """
    S = as_points(S, "S")
    m = len(S)
    if m == 0:
        raise ValueError("S must be non-empty")
    u, v = _candidate_edges(S)
    return _kruskal(m, u, v, squared_distances(S[u], S[v]))


def mst_prim_reference(S) -> EmstResult:
    """Dense O(m^2) Prim scan; the reference oracle for euclidean_mst."""
    S = as_points(S, "S")
    m = len(S)
    if m == 0:
        raise ValueError("S must be non-empty")
    in_tree = np.zeros(m, dtype=bool)
    in_tree[0] = True
    best_w = squared_distances(S, S[0])
    best_from = np.zeros(m, dtype=np.int64)
    eu = np.empty(m - 1, dtype=np.int64)
    ev = np.empty(m - 1, dtype=np.int64)
    ew = np.empty(m - 1)
    masked = best_w.copy()
    masked[0] = np.inf
    for t in range(m - 1):
        j = int(np.argmin(masked))
        eu[t], ev[t], ew[t] = best_from[j], j, best_w[j]
        in_tree[j] = True
        masked[j] = np.inf
        d = squared_distances(S, S[j])
        upd = (d < best_w) & ~in_tree
        best_w[upd] = d[upd]
        best_from[upd] = j
        masked[upd] = d[upd]
    a = np.minimum(eu, ev)
    b = np.maximum(eu, ev)
    order = np.lexsort((b, a, ew))
    return EmstResult(m, a[order], b[order], ew[order], np.unique(ew))
