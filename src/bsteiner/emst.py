"""Euclidean minimum spanning tree of the Steiner candidate set.

The production path triangulates the points and takes scipy's minimum
spanning tree over the triangulation edges (the EMST is always a
subgraph of the Delaunay triangulation), with the edges ranked by
(weight, u, v) so that ties resolve deterministically.  Point sets that
Qhull cannot triangulate whole (collinear sets, near-duplicates it drops
as coplanar) take the six-cone Yao graph instead, which also contains
the EMST and has at most 6m edges.  A dense Prim implementation serves
as the independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import minimum_spanning_tree
from scipy.spatial import Delaunay, QhullError

from .geometry import as_points, pair_squared_distances, points_as_complex
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


def _kruskal(m: int, u: np.ndarray, v: np.ndarray, w: np.ndarray) -> EmstResult:
    """Minimum spanning tree over candidate edges that connect all m points.

    Edge weights are replaced by their ranks 1..E in (w, u, v) order (a
    stored 0 would read as no edge).  Distinct ranks make the spanning tree
    unique: exactly the tree a Kruskal scan in (w, u, v) order takes.
    The order is a stable sort by the key u*m + v followed by a stable
    sort by w, the same permutation as `np.lexsort((v, u, w))`.
    """
    order = np.argsort(u * np.int64(m) + v, kind="stable")
    order = order[np.argsort(w[order], kind="stable")]
    u, v, w = u[order], v[order], w[order]
    rank = np.arange(1, len(u) + 1, dtype=np.float64)
    tree = minimum_spanning_tree(sparse_graph(m, u, v, rank), overwrite=True)
    keep = np.sort(tree.data).astype(np.int64) - 1
    eu, ev, ew = u[keep], v[keep], w[keep]
    return EmstResult(m, eu, ev, ew, ew[run_starts(ew)])


def _candidate_edges(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Candidate (u, v) pairs guaranteed to contain the (w, u, v) spanning tree.

    Duplicate coordinates attach to their representative, the smallest
    original index at that coordinate, through zero-length edges.  The
    distinct points U are joined by their Delaunay edges when Qhull
    triangulates every one of them, and otherwise (fewer than three
    points, collinear sets, or a point Qhull reports as coplanar) by the
    six-cone Yao graph of U, which contains the EMST (Yao 1982).  U is
    ordered by representative index, so the Yao graph breaks distance
    ties in the same order as (w, u, v).  Either way each pair comes out
    once, as u < v in ascending key u*m + v: a sort of the keys and a
    neighbour compare (`run_starts`) drop the repeats.
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

    try:
        tri = Delaunay(upts)
        whole = len(tri.coplanar) == 0
    except QhullError:
        whole = False
    if whole:
        sim = tri.simplices
        pairs = rep[np.concatenate((sim[:, [0, 1]], sim[:, [1, 2]], sim[:, [2, 0]]), axis=0)]
    else:
        by_rep = np.argsort(rep)
        yao = yao_bipartite(upts[by_rep], upts[by_rep])
        pairs = rep[by_rep][np.column_stack((yao.p_idx, yao.s_idx))]

    cu = np.minimum(pairs[:, 0], pairs[:, 1])
    cv = np.maximum(pairs[:, 0], pairs[:, 1])
    keys = np.sort(cu * np.int64(m) + cv)
    keys = keys[run_starts(keys)]
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
    return _kruskal(m, u, v, pair_squared_distances(S[u], S[v]))


def mst_prim_reference(S) -> EmstResult:
    """Dense O(m^2) Prim scan; the reference oracle for euclidean_mst."""
    S = as_points(S, "S")
    m = len(S)
    if m == 0:
        raise ValueError("S must be non-empty")
    in_tree = np.zeros(m, dtype=bool)
    in_tree[0] = True
    best_w = pair_squared_distances(S, np.broadcast_to(S[0], (m, 2)))
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
        d = pair_squared_distances(S, np.broadcast_to(S[j], (m, 2)))
        upd = (d < best_w) & ~in_tree
        best_w[upd] = d[upd]
        best_from[upd] = j
        masked[upd] = d[upd]
    a = np.minimum(eu, ev)
    b = np.maximum(eu, ev)
    order = np.lexsort((b, a, ew))
    return EmstResult(m, a[order], b[order], ew[order], np.unique(ew))
