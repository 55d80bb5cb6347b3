import numpy as np
import pytest

from bsteiner.generators import gen_maxgap_instance, gen_random_instance
from bsteiner.geometry import cone_indices, squared_distance_matrix
from bsteiner.solver import validate_instance
from bsteiner.yao import same_edges, yao_bipartite, yao_bruteforce


def test_single_candidate():
    g = yao_bruteforce([(1, 0)], [(0, 0)])
    assert g.edges_of(0) == [(0, 3, 1.0)]
    assert same_edges(g, yao_bipartite([(1, 0)], [(0, 0)]))


def test_nearer_in_shared_cone_wins():
    g = yao_bruteforce([(0, 0)], [(2, 0), (3, 0)])
    assert g.edges_of(0) == [(0, 0, 4.0)]


def test_two_cones_split():
    g = yao_bruteforce([(0, 0)], [(1, 0.5), (1, -0.5)])
    assert g.cone.tolist() == [0, 5]
    assert g.s_idx.tolist() == [0, 1]


def test_overlap_rejected():
    # validate_instance guards the pair; the constructions trust their
    # caller and still agree with each other on an overlapping pair
    for P, S in (([(0, 0), (1, 1)], [(2, 2), (0, 0)]), ([(0, 0)], [(0, 0)])):
        with pytest.raises(ValueError, match="disjoint"):
            validate_instance(P, S)
        assert same_edges(yao_bruteforce(P, S), yao_bipartite(P, S))


def test_distance_ties_break_by_candidate_index():
    # (4,3) and (3,4) both sit in cone 0 at squared distance 25
    g = yao_bruteforce([(0, 0)], [(3, 4), (4, 3)])
    assert g.edges_of(0) == [(0, 0, 25.0)]
    assert same_edges(g, yao_bipartite([(0, 0)], [(3, 4), (4, 3)]))
    # duplicated candidate coordinates: smallest index wins
    g2 = yao_bipartite([(0, 0)], [(2, 1), (2, 1), (2, 1)])
    assert g2.s_idx.tolist() == [0]


def check_graph_invariants(g, P, S):
    n, m = len(P), len(S)
    deg = g.degrees()
    assert ((deg >= 1) & (deg <= 6)).all()
    d = squared_distance_matrix(np.asarray(P, float), np.asarray(S, float))
    for i in range(n):
        edges = g.edges_of(i)
        cones_seen = [c for _, c, _ in edges]
        assert len(set(cones_seen)) == len(cones_seen)  # one edge per cone
        all_cones = cone_indices(np.asarray(P, float)[i], np.asarray(S, float))
        assert set(cones_seen) == set(all_cones.tolist())  # coverage
        for s, c, w in edges:
            assert w == d[i, s]
            assert int(all_cones[s]) == c
            in_cone = np.flatnonzero(all_cones == c)
            assert w <= d[i, in_cone].min()  # nearest in cone
            ties = in_cone[d[i, in_cone] == w]
            assert s == ties.min()


@pytest.mark.parametrize("seed", range(5))
def test_bipartite_equals_bruteforce(seed):
    rng = np.random.default_rng(200 + seed)
    for _ in range(20):
        n = int(rng.integers(1, 101))
        m = int(rng.integers(1, 101))
        P, S = gen_random_instance(n, m, 100.0, seed=int(rng.integers(1 << 31)))
        a = yao_bruteforce(P, S)
        b = yao_bipartite(P, S)
        assert same_edges(a, b)
    check_graph_invariants(a, P, S)


def test_forced_tree_search_path_matches():
    # tiny knn caps push every query through the cone-pruned tree search
    rng = np.random.default_rng(300)
    for _ in range(30):
        n = int(rng.integers(1, 50))
        m = int(rng.integers(1, 50))
        P, S = gen_random_instance(n, m, 100.0, seed=int(rng.integers(1 << 31)))
        a = yao_bruteforce(P, S)
        assert same_edges(a, yao_bipartite(P, S, knn_start=2, knn_cap=2, leaf_size=2))
        assert same_edges(a, yao_bipartite(P, S, knn_start=3, knn_cap=12, leaf_size=4))


def test_tree_search_with_empty_cones():
    # far-away clustered terminals leave most cones empty
    rng = np.random.default_rng(301)
    for _ in range(20):
        n = int(rng.integers(1, 30))
        m = int(rng.integers(1, 30))
        S = rng.normal(0, 1, (m, 2)) + 100.0
        P = rng.normal(0, 1, (n, 2))
        a = yao_bruteforce(P, S)
        assert same_edges(a, yao_bipartite(P, S, knn_start=2, knn_cap=4, leaf_size=3))


def test_maxgap_instance_extremes():
    inst = gen_maxgap_instance([0.0, 1.0, 5.0, 6.0], 4, seed=9)
    g = yao_bruteforce(inst.P, inst.S)
    b = yao_bipartite(inst.P, inst.S)
    assert same_edges(g, b)
    lo = int(np.argmin(inst.S[:, 0]))
    hi = int(np.argmax(inst.S[:, 0]))
    for i in range(4):
        targets = [s for s, _, _ in g.edges_of(i)]
        expected = lo if inst.P[i, 0] < inst.S[lo, 0] else hi
        assert expected in targets


def test_duplicate_terminals_allowed():
    g = yao_bipartite([(0, 0), (0, 0)], [(1, 1)])
    assert g.p_idx.tolist() == [0, 1]
    assert g.s_idx.tolist() == [0, 0]


def test_equivalence_at_500():
    P, S = gen_random_instance(500, 500, 1000.0, seed=99)
    assert same_edges(yao_bruteforce(P, S), yao_bipartite(P, S))
