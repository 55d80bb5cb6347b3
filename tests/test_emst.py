import multiprocessing
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from bsteiner import emst
from bsteiner.emst import euclidean_mst, mst_prim_reference
from bsteiner.geometry import squared_distances


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


def test_near_duplicates_match_prim(monkeypatch):
    # Pairs 1e-12 or 1e-14 apart make Qhull drop a point, so the Yao graph of
    # all points serves, with at most six edges per point.  In the lattice,
    # equal distances share a cone, where the Yao graph must prefer the
    # smaller index as (w, u, v) does (ordering the points in reverse
    # changes that tree).  Each block size splits both sets differently.
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


def spy_delaunay(monkeypatch, on_helper=None):
    """Record (event, thread id, result) around every `_delaunay` call.

    `on_helper`, if given, runs before each call made off the calling
    thread."""
    real, caller = emst._delaunay, threading.get_ident()
    events = []

    def spy(pts):
        me = threading.get_ident()
        events.append(("enter", me, None))
        if on_helper is not None and me != caller:
            on_helper()
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


def test_helper_returns_before_the_six_cone_fallback(monkeypatch):
    # The collinear line is the first block of the only pair; the helper's
    # block is slowed down, and still returns before the Yao graph starts.
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
    # the caller's own block of the pair finished before the error surfaced
    assert sorted(kind for kind, _, _ in events) == ["enter", "enter", "return"]
    assert [ident for kind, ident, _ in events if kind == "return"] == [threading.get_ident()]


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
    # about 15 MB of numpy memory; blocks of _DT_BLOCK points at about 7.
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
