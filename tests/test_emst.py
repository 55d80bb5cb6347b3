import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from bsteiner import emst
from bsteiner.emst import euclidean_mst, mst_prim_reference
from bsteiner.geometry import squared_distance


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
    r = euclidean_mst([(3, 4)])
    assert len(r.edge_w) == 0 and len(r.thresholds) == 0
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
    parent = list(range(len(pts)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    tree = []
    for w, i, j in sorted(pairs):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            tree.append((i, j, w))
    return tree


# integer points on x^2 + y^2 = 65^2
CIRCLE = np.array(
    [(x, y) for x in range(-65, 66) for y in range(-65, 66) if x * x + y * y == 65 * 65],
    dtype=float,
)


def degenerate_sets(rng):
    """A lattice with duplicates, a cocircular set, and an integer-step collinear
    set in a direction off both axes."""
    m = int(rng.integers(2, 121))
    k = int(rng.integers(1, 8))
    yield rng.integers(-k, k + 1, (m, 2)).astype(float)
    idx = rng.choice(len(CIRCLE), int(rng.integers(2, len(CIRCLE) + 1)), replace=False)
    yield CIRCLE[idx] + rng.integers(-100, 101, 2)
    step = rng.integers(1, 6, 2) * rng.choice([-1, 1], 2)
    t = rng.choice(np.arange(-150, 150), m, replace=False)
    yield (rng.integers(-50, 51, 2) + t[:, None] * step).astype(float)


@pytest.mark.parametrize("seed", range(6))
def test_weight_multisets_match_prim(seed):
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
        assert w == squared_distance(S[u], S[v])
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
                    assert squared_distance(S[i], S[j]) >= w


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
        assert path_max_edge(int(a), int(b)) <= squared_distance(S[a], S[b])


def test_deterministic_tie_break():
    # four corners: three unit edges chosen lexicographically
    r = euclidean_mst([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert [(u, v) for u, v, _ in r.edges] == [(0, 1), (0, 3), (1, 2)]


def test_near_duplicates_match_prim():
    # Pairs 1e-12 or 1e-14 apart make Qhull drop a point, so the Yao graph of
    # all points serves, with at most six edges per point.  In the lattice,
    # equal distances share a cone, where the Yao graph must prefer the
    # smaller index as (w, u, v) does (ordering the points in reverse
    # changes that tree).
    near = np.random.default_rng(3).uniform(0, 1, (200, 2))
    near[100:140] = near[:40] + 1e-12
    lattice = [(-1, 0), (-1, 3), (1, -3), (2, -2), (0, 2), (-2, -1)]
    lattice = np.array(lattice + [(7, 7), (7 + 1e-14, 7), (-7, 7), (-7, 7 + 1e-14)])
    assert euclidean_mst(near).edges == mst_prim_reference(near).edges
    assert euclidean_mst(lattice).edges == kruskal_all_pairs(lattice)
    for S in (near, lattice):
        assert len(emst._candidate_edges(S)[0]) <= 6 * len(S)
