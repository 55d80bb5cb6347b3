import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

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


@pytest.mark.parametrize("seed", range(6))
def test_weight_multisets_match_prim(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(12):
        m = int(rng.integers(2, 201))
        S = rng.uniform(0, 50, (m, 2))
        if rng.random() < 0.2:
            S[:, 1] = 0.0  # collinear fallback path
        if rng.random() < 0.2 and m > 4:
            S[m // 2 :] = S[: m - m // 2]  # duplicate coordinates
        a, b = euclidean_mst(S), mst_prim_reference(S)
        assert np.array_equal(a.edge_w, b.edge_w)
        assert np.array_equal(a.thresholds, b.thresholds)


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
    # 40 pairs 1e-12 apart make Qhull drop a point; the triangulation of the
    # points it keeps then misses an EMST edge, so only the dense fallback
    # gives the exact tree
    S = np.random.default_rng(3).uniform(0, 1, (200, 2))
    S[100:140] = S[:40] + 1e-12
    assert euclidean_mst(S).edges == mst_prim_reference(S).edges
