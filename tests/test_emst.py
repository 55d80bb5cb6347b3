import multiprocessing
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from bsteiner import emst
from bsteiner.emst import euclidean_mst, mst_prim_reference
from bsteiner.geometry import squared_distances
from bsteiner.oracle import brute_force_optimum
from bsteiner.solver import solve


def test_collinear_chain():
    r = euclidean_mst([(0, 0), (1, 0), (2, 0)])
    assert sorted(r.edge_w.tolist()) == [1.0, 1.0]
    assert r.thresholds.tolist() == [1.0]


def test_unit_square():
    r = euclidean_mst([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert len(r.edge_w) == 3
    assert all(w == 1.0 for w in r.edge_w)
    assert r.thresholds.tolist() == [1.0]


def test_single_point_and_errors():
    for fn in (euclidean_mst, mst_prim_reference):
        r = fn([(3, 4)])
        assert r.point_count == 1
        for a, dtype in ((r.edge_u, np.int64), (r.edge_v, np.int64),
                         (r.edge_w, np.float64), (r.thresholds, np.float64)):
            assert a.shape == (0,) and a.dtype == dtype
    with pytest.raises(ValueError, match="non-empty"):
        euclidean_mst([])
    with pytest.raises(ValueError, match="non-empty"):
        mst_prim_reference([])


def test_prim_two_points():
    r = mst_prim_reference([(0, 0), (3, 0)])
    assert r.edges == [(0, 1, 9.0)]


def test_duplicates_give_zero_edges():
    r = euclidean_mst([(1, 1), (1, 1), (5, 5), (1, 1)])
    assert sorted(r.edge_w.tolist()) == [0.0, 0.0, 32.0]
    assert r.thresholds.tolist() == [0.0, 32.0]
    p = mst_prim_reference([(1, 1), (1, 1), (5, 5), (1, 1)])
    assert np.array_equal(p.edge_w, r.edge_w)


def test_total_weight_matches_prim():
    rng = np.random.default_rng(10)
    S = rng.uniform(0, 100, (64, 2))
    a, b = euclidean_mst(S), mst_prim_reference(S)
    assert abs(a.edge_w.sum() - b.edge_w.sum()) <= 1e-12 * b.edge_w.sum()


def kruskal_all_pairs(S):
    """Edges (u, v, w) of the spanning tree a Kruskal scan over all pairs in
    (w, u, v) order takes; a plain union-find, independent of the package."""
    pts = [(float(x), float(y)) for x, y in S]
    pairs = []
    for i, (xi, yi) in enumerate(pts):
        for j in range(i + 1, len(pts)):
            dx, dy = xi - pts[j][0], yi - pts[j][1]
            pairs.append((dx * dx + dy * dy, i, j))
    return kruskal_scan(len(pts), [(i, j, w) for w, i, j in sorted(pairs)])


def kruskal_scan(m, edges):
    """Edges (u, v, w) that a Kruskal scan keeps, taking `edges` in order."""
    parent = list(range(m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    tree = []
    for i, j, w in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            tree.append((i, j, w))
    return tree


def test_kruskal_order_matches_lexsort():
    # shuffled distinct pairs with few distinct weights, so ties decide the tree
    rng = np.random.default_rng(61)
    for _ in range(40):
        m = int(rng.integers(2, 90))
        iu, iv = np.triu_indices(m, 1)
        pick = rng.random(len(iu)) < rng.uniform(0.05, 0.6)
        pick[np.flatnonzero((iv - iu) == 1)] = True  # the path 0-1-...-(m-1)
        order = rng.permutation(np.flatnonzero(pick))
        u, v = iu[order].astype(np.int64), iv[order].astype(np.int64)
        w = rng.integers(0, int(rng.integers(1, 5)), len(u)) * 0.5
        got = emst._kruskal(m, u, v, w)
        ref = np.lexsort((v, u, w))
        want = kruskal_scan(m, zip(u[ref].tolist(), v[ref].tolist(), w[ref].tolist()))
        assert got.edges == want
        assert np.array_equal(got.thresholds, np.unique(got.edge_w))
        for a, dtype in ((got.edge_u, np.int64), (got.edge_v, np.int64),
                         (got.edge_w, np.float64), (got.thresholds, np.float64)):
            assert a.dtype == dtype
    # the candidate edges of integer lattices: weights tie massively, and
    # repeated points add zero-length edges to the runs of equal weight
    for _ in range(20):
        m = int(rng.integers(40, 300))
        k = int(rng.integers(1, 6))
        S = rng.integers(-k, k + 1, (m, 2)).astype(float)
        u, v = emst._candidate_edges(S)
        w = squared_distances(S[u], S[v])
        assert (w == 0).any() and len(np.unique(w)) < len(w) // 4
        assert np.array_equal(emst._edge_order(m, u, v, w), np.lexsort((v, u, w)))
        shuffled = rng.permutation(len(u))
        u, v, w = u[shuffled], v[shuffled], w[shuffled]
        ref = np.lexsort((v, u, w))
        assert np.array_equal(emst._edge_order(m, u, v, w), ref)
        want = kruskal_scan(m, zip(u[ref].tolist(), v[ref].tolist(), w[ref].tolist()))
        assert emst._kruskal(m, u, v, w).edges == want


def test_tiny_and_all_duplicate_sets():
    for S, thresholds in (([(3, 4)], []), ([(0, 0), (3, 0)], [9.0]),
                          ([(2, -0.0)] * 5, [0.0]), ([(1, 1), (1, 1)], [0.0])):
        r = euclidean_mst(S)
        assert r.point_count == len(S)
        for a, dtype in ((r.edge_u, np.int64), (r.edge_v, np.int64), (r.edge_w, np.float64)):
            assert a.shape == (len(S) - 1,) and a.dtype == dtype
        assert r.thresholds.dtype == np.float64
        assert r.thresholds.tolist() == thresholds
        assert r.edges == mst_prim_reference(S).edges


# integer points on x^2 + y^2 = 65^2
CIRCLE = np.array(
    [(x, y) for x in range(-65, 66) for y in range(-65, 66) if x * x + y * y == 65 * 65],
    dtype=float,
)


def degenerate_sets(rng):
    """A lattice with duplicates, a cocircular set, an integer-step collinear
    set in a direction off both axes, a 60-degree line, noisy points on a
    circle, a thin Gaussian, and uniform sets at magnitudes 2**499 and
    2**-400, alone and together."""
    m = int(rng.integers(2, 121))
    k = int(rng.integers(1, 8))
    yield rng.integers(-k, k + 1, (m, 2)).astype(float)
    idx = rng.choice(len(CIRCLE), int(rng.integers(2, len(CIRCLE) + 1)), replace=False)
    yield CIRCLE[idx] + rng.integers(-100, 101, 2)
    step = rng.integers(1, 6, 2) * rng.choice([-1, 1], 2)
    t = rng.choice(np.arange(-150, 150), m, replace=False)
    yield (rng.integers(-50, 51, 2) + t[:, None] * step).astype(float)
    yield rng.permutation(m)[:, None] * np.array([np.cos(np.pi / 3), np.sin(np.pi / 3)]) * 1.7
    t = rng.uniform(0, 2 * np.pi, m)
    yield 30 * np.column_stack((np.cos(t), np.sin(t))) + rng.normal(0, 1e-3, (m, 2))
    yield rng.normal(0, 1, (m, 2)) * [1.0, 1e-6]
    sign = rng.choice([-1.0, 1.0], (m, 2))
    big = sign * rng.uniform(0.5, 1, (m, 2)) * 2.0**499
    tiny = sign * rng.uniform(1, 2, (m, 2)) * 2.0**-400
    yield big
    yield tiny
    yield np.where(rng.random((m, 1)) < 0.5, big, tiny)


# _DT_BLOCK values below the set sizes, so the sets split into many blocks
BLOCKS = (8, 16, 33)


@pytest.mark.parametrize(
    "seed, block",
    [pytest.param(seed, None, id=str(seed)) for seed in range(6)]
    + [pytest.param(seed, b, id=f"{seed}-block{b}") for b in BLOCKS for seed in range(6)],
)
def test_weight_multisets_match_prim(seed, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(emst, "_DT_BLOCK", block)
    rng = np.random.default_rng(100 + seed)
    for _ in range(12):
        m = int(rng.integers(2, 201))
        S = rng.uniform(0, 50, (m, 2))
        if rng.random() < 0.2:
            S[:, 1] = 0.0  # collinear: Qhull raises, the Yao graph serves
        if rng.random() < 0.2 and m > 4:
            S[m // 2 :] = S[: m - m // 2]  # duplicate coordinates
        a, b = euclidean_mst(S), mst_prim_reference(S)
        assert np.array_equal(a.edge_w, b.edge_w)
        assert np.array_equal(a.thresholds, b.thresholds)
    for _ in range(3):
        for S in degenerate_sets(rng):
            a, b = euclidean_mst(S), mst_prim_reference(S)
            assert np.array_equal(a.edge_w, b.edge_w)
            assert a.edges == kruskal_all_pairs(S)


def filter_families(rng):
    """Sets where the triangle filter meets ties, with every coordinate in
    [1, 256): integer and half-integer lattices with repeated points,
    cocircular integer points with noise, and points on a circle."""
    m = int(rng.integers(30, 160))
    k = int(rng.integers(2, 12))
    yield rng.integers(1, k + 2, (m, 2)).astype(float)
    yield rng.integers(2, 2 * k + 4, (m, 2)) / 2.0
    idx = rng.choice(len(CIRCLE), int(rng.integers(3, len(CIRCLE) + 1)), replace=False)
    cocircular = CIRCLE[idx] + 100.0
    yield np.concatenate((cocircular, rng.uniform(1, 200, (int(rng.integers(1, 30)), 2))))
    yield cocircular + rng.normal(0, 1e-9, cocircular.shape)
    t = rng.uniform(0, 2 * np.pi, m)
    yield 100.0 + 90.0 * np.column_stack((np.cos(t), np.sin(t)))


@pytest.mark.parametrize("block", [8, 16, None])
def test_triangle_filter_keeps_the_tree(block, monkeypatch):
    # each triangulation drops the heaviest side of every triangle; the
    # tree must stay edge for edge that of an all-pairs Kruskal scan, in
    # blocks and seams too, and near both ends of the coordinate domain
    if block is not None:
        monkeypatch.setattr(emst, "_DT_BLOCK", block)
    dropped = []
    triangle_keys = emst._triangle_keys

    def counted(sim, pts, label, m):
        keys = triangle_keys(sim, pts, label, m)
        sides = np.sort(label[sim[:, [0, 1, 1, 2, 2, 0]]].reshape(-1, 2), axis=1)
        dropped.append(len(np.unique(sides, axis=0)) - len(keys))
        return keys

    monkeypatch.setattr(emst, "_triangle_keys", counted)
    rng = np.random.default_rng(400 + (block or 0))
    for _ in range(8):
        for S in filter_families(rng):
            want = kruskal_all_pairs(S)
            for exponent in (0, 490, -398):  # largest coordinate near 2**498, 2**-390
                T = np.ldexp(S, exponent)
                with np.errstate(over="raise", under="raise"):
                    a, b = euclidean_mst(T), mst_prim_reference(T)
                assert np.array_equal(a.edge_w, b.edge_w)
                assert [(u, v) for u, v, _ in a.edges] == [(u, v) for u, v, _ in want]
    assert dropped and min(dropped) >= 0 and max(dropped) > 0


def test_kruskal_receives_the_triangle_survivors(monkeypatch):
    # all Delaunay sides would be about 3m edges; the survivors are fewer
    seen = []
    kruskal = emst._kruskal

    def spy(m, u, v, w):
        seen.append((m, len(u)))
        return kruskal(m, u, v, w)

    monkeypatch.setattr(emst, "_kruskal", spy)
    m = 2**12
    euclidean_mst(np.random.default_rng(401).uniform(0, 1000, (m, 2)))
    assert len(seen) == 1 and seen[0][0] == m
    assert seen[0][1] <= 1.5 * m


def tree_adjacency(result, m):
    adj = {i: [] for i in range(m)}
    for u, v, w in result.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    return adj


def component_labels(m, edges):
    """Component id per vertex of the graph on range(m) with these edges."""
    u = [a for a, _, _ in edges]
    v = [b for _, b, _ in edges]
    g = coo_matrix((np.ones(len(u)), (u, v)), shape=(m, m))
    return connected_components(g, directed=False)[1]


def test_result_is_spanning_tree():
    rng = np.random.default_rng(11)
    S = rng.uniform(0, 10, (40, 2))
    r = euclidean_mst(S)
    assert len(r.edge_w) == 39
    assert all(u != v for u, v, _ in r.edges)
    # m - 1 edges that connect m vertices form a tree, so no cycle either
    assert len(set(component_labels(40, r.edges).tolist())) == 1
    # weights actually measure the endpoints
    for u, v, w in r.edges:
        assert w == squared_distances(S[u], S[v])
    # sorted by (w, u, v)
    key = list(zip(r.edge_w.tolist(), r.edge_u.tolist(), r.edge_v.tolist()))
    assert key == sorted(key)


def test_cut_property_exhaustive_small():
    rng = np.random.default_rng(12)
    for _ in range(20):
        m = int(rng.integers(2, 13))
        S = rng.uniform(0, 10, (m, 2))
        r = euclidean_mst(S)
        for u, v, w in r.edges:
            label = component_labels(m, [e for e in r.edges if e[:2] != (u, v)])
            side = label == label[u]
            assert not side[v]  # removing a tree edge splits the tree
            for i in np.flatnonzero(side):
                for j in np.flatnonzero(~side):
                    assert squared_distances(S[i], S[j]) >= w


def test_path_property():
    # every edge on the tree path between a and b is no longer than |ab|
    rng = np.random.default_rng(13)
    S = rng.uniform(0, 100, (64, 2))
    r = euclidean_mst(S)
    adj = tree_adjacency(r, 64)

    def path_max_edge(a, b):
        stack = [(a, -1, 0.0)]
        while stack:
            node, parent, mx = stack.pop()
            if node == b:
                return mx
            for nxt, w in adj[node]:
                if nxt != parent:
                    stack.append((nxt, node, max(mx, w)))
        raise AssertionError("disconnected")

    for _ in range(200):
        a, b = rng.integers(0, 64, 2)
        if a == b:
            continue
        assert path_max_edge(int(a), int(b)) <= squared_distances(S[a], S[b])


def test_deterministic_tie_break():
    # four corners: three unit edges chosen lexicographically
    r = euclidean_mst([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert [(u, v) for u, v, _ in r.edges] == [(0, 1), (0, 3), (1, 2)]


def near_duplicates(seed, offset=1e-12):
    """200 uniform points of the unit square, 40 of them moved to `offset`
    from 40 others in random directions."""
    rng = np.random.default_rng(seed)
    S = rng.uniform(0, 1, (200, 2))
    i = rng.choice(200, 80, replace=False)
    d = rng.normal(size=(40, 2))
    S[i[:40]] = S[i[40:]] + offset * d / np.hypot(d[:, 0], d[:, 1])[:, None]
    return S


def test_near_duplicates_match_prim(monkeypatch):
    # Points 1e-12 or 1e-14 from another add their own six-cone rows to
    # the Delaunay edges, and the candidates stay within six per point.  In
    # the lattice, equal distances share a near point's cone, where the Yao
    # graph must prefer the smaller index as (w, u, v) does (ordering the
    # points in reverse changes that tree).  Each block size splits both
    # sets differently.
    near = np.random.default_rng(3).uniform(0, 1, (200, 2))
    near[100:140] = near[:40] + 1e-12
    lattice = [(-1, 0), (-1, 3), (1, -3), (2, -2), (0, 2), (-2, -1)]
    lattice = np.array(lattice + [(7, 7), (7 + 1e-14, 7), (-7, 7), (-7, 7 + 1e-14)])
    for block in (emst._DT_BLOCK,) + BLOCKS:
        monkeypatch.setattr(emst, "_DT_BLOCK", block)
        assert euclidean_mst(near).edges == mst_prim_reference(near).edges
        assert euclidean_mst(lattice).edges == kruskal_all_pairs(lattice)
        for S in (near, lattice):
            assert len(emst._candidate_edges(S)[0]) <= 6 * len(S)
    monkeypatch.undo()
    # Qhull keeps every point of most of these sets, and its tree joined a
    # point to the farther of two points 1e-12 apart on seeds 3, 11, 19
    # and 20
    for seed in range(40):
        S = near_duplicates(seed)
        assert euclidean_mst(S).edges == kruskal_all_pairs(S), seed


def test_near_pairs_are_found_in_two_dimensions(monkeypatch):
    # The largest magnitude is 100, so points within 1e-4 of another in
    # both coordinates are near.  A vertical line is one run of equal x;
    # only a point within 1e-4 in y as well is near.  Points in one run of
    # close x but far apart in y are not.  Each near point gets its own
    # Yao row, and only those rows are built.
    real, rows = emst.yao_bipartite, []

    def spy(P, Q):
        rows.append(sorted(map(tuple, P)))
        return real(P, Q)

    monkeypatch.setattr(emst, "yao_bipartite", spy)
    rng = np.random.default_rng(23)
    scatter = np.concatenate((rng.uniform(0, 100, (30, 2)), [(100.0, 100.0)]))
    line = np.column_stack((np.full(20, 50.0), np.arange(20.0) * 5))
    run = np.column_stack((50 + np.arange(20) * 1e-5, np.arange(20.0) * 5))
    below = (50.0, 45 + 5e-5)
    beside = (run[2, 0], 10 - 5e-5)
    for S, near in (
        (np.concatenate((scatter, line)), []),
        (np.concatenate((scatter, line, [(50.0, 45 + 2e-4)])), []),
        (np.concatenate((scatter, line, [below])), [(50.0, 45.0), below]),
        (np.concatenate((scatter, run)), []),
        (np.concatenate((scatter, run, [beside])), [beside, tuple(run[2])]),
    ):
        u = np.unique(emst.points_as_complex(S))
        upts = np.column_stack((u.real, u.imag))
        assert sorted(map(tuple, upts[emst._near_points(upts)])) == sorted(near)
        rows.clear()
        assert euclidean_mst(S).edges == kruskal_all_pairs(S)
        assert rows == ([sorted(near)] if near else [])


def near_duplicate_clusters(seed, size, k, e, scale):
    """`size` points uniform in [2**-10, 1)², and k more, each offset from
    one of them in a random direction by 2**e to 2**(e + 1) of the largest
    magnitude M; the whole set is then scaled by 2**scale."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(2**-10, 1, (size, 2))
    d = rng.normal(size=(k, 2))
    length = np.ldexp(rng.uniform(1, 2, k), e) * np.abs(centres).max()
    offset = d * (length / np.hypot(d[:, 0], d[:, 1]))[:, None]
    S = np.concatenate((centres, centres[rng.integers(0, size, k)] + offset))
    return np.ldexp(S, scale)


# Offsets below 2**-20 M lie within 1e-6 M in both coordinates, so their
# points take their own six-cone rows; offsets of 2**-20 to 2**-19 M may
# not.  Scales from 2**-380 to 2**498 keep every coordinate in
# [2**-400, 2**500) and every squared distance a normal float.  The
# positions come from a drawn seed: hand-built clusters of few points
# rarely reach the configurations that Qhull gets wrong.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(1, 40),
    st.integers(-44, -20), st.integers(-380, 498),
)
def test_near_duplicate_clusters_match_all_pairs_kruskal(seed, size, k, e, scale):
    S = near_duplicate_clusters(seed, size, k, e, scale)
    assert euclidean_mst(S).edges == kruskal_all_pairs(S)


def ring_around_a_point(seed, size, k, e):
    """`size` points uniform in [2**-10, 1)², and k more in random
    directions around one of them, all at one distance of 2**e to
    2**(e + 1) of the largest magnitude."""
    rng = np.random.default_rng(seed)
    S = rng.uniform(2**-10, 1, (size, 2))
    t = rng.uniform(0, 2 * np.pi, k)
    r = np.ldexp(rng.uniform(1, 2), e) * np.abs(S).max()
    ring = S[rng.integers(0, size)] + r * np.column_stack((np.cos(t), np.sin(t)))
    return np.concatenate((S, ring))


def test_clusters_and_rings_within_the_near_tolerance_match_all_pairs_kruskal():
    # Offsets of 2**-29 to 2**-20 M, 1 800 sets.  With Qhull's edges alone
    # the tree was not minimal on 13 of the cluster sets and 6 of the
    # rings; every point within 1e-6 M of another now takes its own
    # six-cone row.
    for e in range(-29, -20):
        for seed in range(100):
            for S in (near_duplicate_clusters(seed, 30, 30, e, 0), ring_around_a_point(seed, 30, 12, e)):
                assert euclidean_mst(S).edges == kruskal_all_pairs(S), (seed, e)


def _integer_circle(r):
    """Every integer point on x^2 + y^2 = r^2."""
    x = np.arange(r + 1, dtype=np.int64)
    y = np.rint(np.sqrt((r * r - x * x).astype(float))).astype(np.int64)
    q = np.column_stack((x, y))[x * x + y * y == r * r]
    return np.unique(np.concatenate([q * s for s in ([1, 1], [1, -1], [-1, 1], [-1, -1])]), axis=0)


# 972 points, r = 5 * 13 * 17 * 29 * 37: every squared distance between
# two of them is an integer below 2**53, so it is exact in float64.
BIG_CIRCLE = _integer_circle(1_185_665).astype(float)


def degenerate_family(kind, seed, m):
    """m points (more for the lattice) of one family on which Delaunay
    is degenerate, from a drawn seed."""
    rng = np.random.default_rng(seed)
    if kind == "lattice":  # a third of its points repeated
        k = int(rng.integers(1, 8))
        S = rng.integers(-k, k + 1, (m, 2))
        return rng.permutation(np.concatenate((S, S[: m // 3]))).astype(float)
    if kind == "collinear":  # integer steps, along an axis too
        step = rng.integers(0, 6, 2) * rng.choice([-1, 1], 2)
        if not step.any():
            step[0] = 1
        t = rng.choice(np.arange(-150, 150), m, replace=False)
        return (rng.integers(-50, 51, 2) + t[:, None] * step).astype(float)
    sign = rng.choice([-1.0, 1.0])  # 60 or 120 degrees
    t = rng.permutation(m).astype(float)
    if kind == "line":
        return t[:, None] * np.array([sign * np.cos(np.pi / 3), np.sin(np.pi / 3)]) * 1.7
    if kind == "exact-step line":
        return np.column_stack((sign * 0.5 * t, np.sqrt(3) / 2 * t))
    return BIG_CIRCLE[rng.choice(len(BIG_CIRCLE), m, replace=False)]


FAMILIES = ["lattice", "collinear", "line", "exact-step line", "circle"]


def scaled_into_domain(S, e):
    """S scaled by the power of two nearest 2**e that keeps its
    coordinates inside [2**-400, 2**500)."""
    mag = np.abs(S[S != 0])
    if not len(mag):  # a lattice set may be all zero
        return S
    lo = 1 - 400 - int(np.frexp(mag.min())[1])
    hi = 500 - int(np.frexp(mag.max())[1])
    return np.ldexp(S, min(max(e, lo), hi))


# Blocks of 16 points send the larger sets through the block queue, the
# seam call and, for the lines, the six-cone fallback.
@settings(max_examples=1200, deadline=None, derandomize=True)
@given(
    st.sampled_from(FAMILIES),
    st.integers(0, 2**32 - 1), st.integers(2, 100), st.integers(-420, 520),
)
def test_degenerate_families_match_all_pairs_kruskal(kind, seed, m, e):
    S = scaled_into_domain(degenerate_family(kind, seed, m), e)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(emst, "_DT_BLOCK", 16)
        assert euclidean_mst(S).edges == kruskal_all_pairs(S)


# The terminals come from the same family as the candidates, minus the
# points they share with them, and both are scaled together.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from(FAMILIES), st.integers(0, 2**32 - 1),
    st.integers(1, 8), st.integers(1, 8), st.integers(-420, 520),
)
def test_degenerate_families_solve_to_the_brute_force_optimum(kind, seed, n, m, e):
    T = scaled_into_domain(degenerate_family(kind, seed, n + m), e)
    S, P = T[:m], T[m : n + m]
    P = P[~(P[:, None] == S).all(axis=2).any(axis=1)]
    assume(len(P))
    assert solve(P, S).lambda_star == brute_force_optimum(P, S)[0]


def test_near_rows_mend_a_cluster_qhull_gets_wrong():
    # Offsets of 2**-24 to 2**-23 M: Qhull's triangulation of this set
    # misses a tree edge, and the near points' own six-cone rows supply it.
    S = near_duplicate_clusters(92, 30, 30, -24, 0)
    assert emst._near_points(np.unique(S, axis=0)).any()
    assert euclidean_mst(S).edges == kruskal_all_pairs(S)


def test_collinear_block_takes_the_six_cone_graph(monkeypatch):
    # The 16 points on y = 0 form the lower block of the first split, and
    # Qhull cannot triangulate them, so the whole set takes the Yao graph.
    monkeypatch.setattr(emst, "_DT_BLOCK", 16)
    rng = np.random.default_rng(21)
    line = np.column_stack((rng.permutation(16) * 1.5, np.zeros(16)))
    S = np.concatenate((rng.uniform((100, 0), (200, 50), (16, 2)), line))
    real = emst.yao_bipartite
    calls = []

    def spy(P, Q):
        calls.append(len(P))
        return real(P, Q)

    monkeypatch.setattr(emst, "yao_bipartite", spy)
    r = euclidean_mst(S)
    assert calls == [32]
    assert np.array_equal(r.edge_w, mst_prim_reference(S).edge_w)
    assert r.edges == kruskal_all_pairs(S)
    assert len(emst._candidate_edges(S)[0]) <= 6 * len(S)


def spy_delaunay(monkeypatch, on_helper=None, on_caller=None):
    """Record (event, thread id, result) around every `_delaunay` call.

    `on_helper`, if given, runs before each call made off the calling
    thread, and `on_caller` before each call made on it."""
    real, caller = emst._delaunay, threading.get_ident()
    events = []

    def spy(pts):
        me = threading.get_ident()
        events.append(("enter", me, None))
        hook = on_caller if me == caller else on_helper
        if hook is not None:
            hook()
        tri = real(pts)
        events.append(("return", me, tri))
        return tri

    monkeypatch.setattr(emst, "_delaunay", spy)
    return events


@pytest.mark.parametrize("block", BLOCKS)
def test_blocks_are_triangulated_on_one_helper_thread(block, monkeypatch):
    monkeypatch.setattr(emst, "_DT_BLOCK", block)
    events = spy_delaunay(monkeypatch)
    rng = np.random.default_rng(block)
    for m in (block + 1, 120, 201):
        S = rng.uniform(0, 50, (m, 2))
        assert euclidean_mst(S).edges == kruskal_all_pairs(S)
    # the caller and exactly one helper, which is kept across calls
    assert len({ident for _, ident, _ in events}) == 2


def test_each_block_is_triangulated_once_from_one_queue(monkeypatch):
    # 17, 120 and 201 points make 2, 8 and 16 blocks of at most 16.  The
    # caller and the helper share them, and every block is triangulated
    # exactly once, before one more call on the seam points.
    monkeypatch.setattr(emst, "_DT_BLOCK", 16)
    events = spy_delaunay(monkeypatch)
    rng = np.random.default_rng(26)
    caller = threading.get_ident()
    for m, blocks in ((17, 2), (120, 8), (201, 16)):
        S = rng.uniform(0, 50, (m, 2))
        assert len(list(emst._blocks(S))) == blocks
        events.clear()
        assert euclidean_mst(S).edges == kruskal_all_pairs(S)
        calls = [ident for kind, ident, _ in events if kind == "enter"]
        assert len(calls) == blocks + 1
        assert sum(ident != caller for ident in calls) >= 1
        assert [kind for kind, _, _ in events].count("return") == blocks + 1


def test_helper_returns_before_the_six_cone_fallback(monkeypatch):
    # The collinear line is the first block, the caller's; the helper's
    # block, the last, is slowed down, and still returns before the Yao
    # graph starts.
    monkeypatch.setattr(emst, "_DT_BLOCK", 16)
    events = spy_delaunay(monkeypatch, on_helper=lambda: time.sleep(0.2))
    rng = np.random.default_rng(21)
    line = np.column_stack((rng.permutation(16) * 1.5, np.zeros(16)))
    S = np.concatenate((rng.uniform((100, 0), (200, 50), (16, 2)), line))
    real = emst.yao_bipartite

    def spy_yao(P, Q):
        events.append(("yao", threading.get_ident(), None))
        return real(P, Q)

    monkeypatch.setattr(emst, "yao_bipartite", spy_yao)
    r = euclidean_mst(S)
    assert r.edges == kruskal_all_pairs(S)
    kinds = [kind for kind, _, _ in events]
    assert kinds.count("enter") == kinds.count("return") == 2
    assert kinds[-1] == "yao"
    returned = {ident: tri for kind, ident, tri in events if kind == "return"}
    caller = threading.get_ident()
    assert returned.pop(caller) is None
    assert [tri is not None for tri in returned.values()] == [True]


def test_caller_returns_before_the_six_cone_fallback(monkeypatch):
    # The collinear line lies right of the uniform points, so it is the
    # last block, the one given to the helper.  The caller's block is
    # slowed down, and both calls return before the Yao graph starts.
    monkeypatch.setattr(emst, "_DT_BLOCK", 16)
    events = spy_delaunay(monkeypatch, on_caller=lambda: time.sleep(0.2))
    rng = np.random.default_rng(21)
    line = np.column_stack((300 + rng.permutation(16) * 1.5, np.zeros(16)))
    S = np.concatenate((rng.uniform((100, 0), (200, 50), (16, 2)), line))
    real = emst.yao_bipartite

    def spy_yao(P, Q):
        events.append(("yao", threading.get_ident(), None))
        return real(P, Q)

    monkeypatch.setattr(emst, "yao_bipartite", spy_yao)
    r = euclidean_mst(S)
    assert r.edges == kruskal_all_pairs(S)
    kinds = [kind for kind, _, _ in events]
    assert kinds.count("enter") == kinds.count("return") == 2
    assert kinds[-1] == "yao"
    returned = {ident: tri for kind, ident, tri in events if kind == "return"}
    caller = threading.get_ident()
    assert returned.pop(caller) is not None
    assert [tri is None for tri in returned.values()] == [True]


def test_helper_exception_reaches_the_caller_unchanged(monkeypatch):
    monkeypatch.setattr(emst, "_DT_BLOCK", 16)
    error = RuntimeError("raised on the helper")

    def fail():
        raise error

    events = spy_delaunay(monkeypatch, on_helper=fail)
    S = np.random.default_rng(4).uniform(0, 50, (40, 2))
    with pytest.raises(RuntimeError) as info:
        euclidean_mst(S)
    assert info.value is error
    # The helper failed on its first block and took no other; the caller
    # may have reduced several of the four blocks before the error
    # surfaced, and each of its calls finished.
    caller = threading.get_ident()
    assert [kind for kind, ident, _ in events if ident != caller] == ["enter"]
    mine = [kind for kind, ident, _ in events if ident == caller]
    assert mine.count("enter") == mine.count("return") >= 1


def test_concurrent_callers_share_one_helper(monkeypatch):
    # Four callers race to start a fresh helper under a tiny switch interval:
    # they share one helper thread, and each gets the exact tree.
    monkeypatch.setattr(emst, "_DT_BLOCK", 16)
    monkeypatch.setattr(emst, "_helper", emst._helper)
    emst._new_helper()
    events = spy_delaunay(monkeypatch)
    S = np.random.default_rng(9).uniform(0, 50, (120, 2))
    want = kruskal_all_pairs(S)
    got, callers = {}, set()

    def run(i):
        callers.add(threading.get_ident())
        got[i] = euclidean_mst(S).edges

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
        emst._helper.shutdown()
    assert not any(t.is_alive() for t in threads)
    assert got == {i: want for i in range(4)}
    assert len({ident for _, ident, _ in events} - callers) == 1


def _edges_in_child(S, conn):
    conn.send(euclidean_mst(S).edges)
    conn.close()


def test_forked_child_gets_its_own_helper(monkeypatch):
    # A child forked after the parent used the helper inherits the executor
    # but not its thread; submitting to it would wait forever.
    monkeypatch.setattr(emst, "_DT_BLOCK", 16)
    S = np.random.default_rng(8).uniform(0, 50, (100, 2))
    want = euclidean_mst(S).edges
    assert emst._helper is not None
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_edges_in_child, args=(S, send))
    child.start()
    try:
        assert recv.poll(60), "the forked child did not finish"
        assert recv.recv() == want
        child.join(10)
        assert not child.is_alive() and child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join(10)


def test_seam_radius_survives_extreme_magnitudes():
    # rho is computed on coordinates scaled by a power of two: no overflow
    # at 2**499, no underflow at 2**-400, and the same seam at every scale.
    rng = np.random.default_rng(5)
    base = rng.uniform(-1, 1, (40, 2))
    tri = emst._delaunay(base)
    hull = np.zeros(len(base), dtype=bool)
    hull[tri.convex_hull] = True
    lo, hi = np.array([-0.5, -np.inf]), np.full(2, np.inf)

    def seam(pts, lo, hi):
        return emst._seam(pts, tri, *emst._sides(tri.simplices, pts), lo, hi)

    want = seam(base, lo, hi)
    assert hull.any() and (want & ~hull).any() and not want.all()
    for scale in (2.0**499, 2.0**-400):
        with np.errstate(all="raise"):
            assert np.array_equal(seam(base * scale, -hi, hi), hull)
            assert np.array_equal(seam(base * scale, lo * scale, hi), want)


def test_peak_memory_of_the_candidate_edges_stays_bounded():
    # A blob-shaped set of 2**15 points: half in a disc of radius 60, half
    # uniform over the square.  One Delaunay call over all of it peaked at
    # about 15 MB of numpy memory; blocks of 2**13 points at about 8.5, and
    # blocks of 2**12 (_DT_BLOCK) at 4.5 to 6.6, as the two threads'
    # reductions overlap more or less.
    rng = np.random.default_rng(2024)
    m = 2**15
    r = 60 * np.sqrt(rng.uniform(0, 1, m // 2))
    t = rng.uniform(0, 2 * np.pi, m // 2)
    disc = 500 + np.column_stack((r * np.cos(t), r * np.sin(t)))
    S = np.concatenate((disc, rng.uniform(0, 1000, (m // 2, 2))))
    tracemalloc.start()
    try:
        emst._candidate_edges(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11 * 2**20
