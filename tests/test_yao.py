import contextlib
import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from bsteiner.emst import euclidean_mst
from bsteiner.generators import gen_maxgap_instance, gen_random_instance
from bsteiner.geometry import cone_indices_from_deltas, squared_distances
from bsteiner.solver import solve, validate_instance
from bsteiner import yao
from bsteiner.yao import row_any, row_min, same_edges, yao_bipartite, yao_bruteforce


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


@pytest.mark.parametrize("n", [0, 1, 7, 1000])
def test_row_min_equals_min_along_rows(n):
    rng = np.random.default_rng(n)
    w = rng.integers(0, 4, (n, 6)).astype(float)
    w[rng.random((n, 6)) < 0.4] = np.inf  # empty cones
    w[: n // 7] = np.inf  # rows of empty cones only
    s = rng.integers(0, 50, (n, 6))
    for table in (w, s, np.where(w == row_min(w)[:, None], s, 50)):
        got = row_min(table)
        assert got.dtype == table.dtype
        assert np.array_equal(got, table.min(axis=1))


@pytest.mark.parametrize("n", [0, 1, 7, 1000])
def test_row_any_equals_any_along_rows(n):
    rng = np.random.default_rng(n)
    cells = rng.integers(-1, 4, (n, 6))
    cells[: n // 7] = -1  # rows with no match
    for j in range(-1, 5):
        mask = cells == j
        got = row_any(mask)
        assert got.dtype == bool
        assert np.array_equal(got, mask.any(axis=1))


def force_fallback(monkeypatch, knn_start, leaf_size):
    """Shrink the speed constants of `yao_bipartite` and count its cone searches."""
    monkeypatch.setattr(yao, "_KNN_START", knn_start)
    monkeypatch.setattr(yao, "_LEAF_SIZE", leaf_size)
    return count_cone_queries(monkeypatch)


def count_cone_queries(monkeypatch):
    """Record the number of open cells each call of the batched cone search settles."""
    calls = []
    cone_search = yao._cone_search

    def counted(kdtree, P, S, cells, *args):
        calls.append(len(cells))
        return cone_search(kdtree, P, S, cells, *args)

    monkeypatch.setattr(yao, "_cone_search", counted)
    return calls


def test_overlap_rejected(monkeypatch):
    # validate_instance guards the pair; the constructions trust their
    # caller, and a candidate on the apex lies in no cone of either
    for P, S in (([(0, 0), (1, 1)], [(2, 2), (0, 0)]), ([(0, 0)], [(0, 0)])):
        with pytest.raises(ValueError, match="disjoint"):
            validate_instance(P, S)
        g = yao_bruteforce(P, S)
        assert (g.w > 0).all()
        assert same_edges(g, yao_bipartite(P, S))
    # a set against itself: every point is its own apex, duplicates coincide
    rng = np.random.default_rng(302)
    for _ in range(20):
        m = int(rng.integers(1, 60))
        k = int(rng.integers(1, 6))
        for S in (rng.uniform(0, 10, (m, 2)), rng.integers(-k, k + 1, (m, 2)).astype(float)):
            g = yao_bruteforce(S, S)
            assert (g.w > 0).all()
            assert same_edges(g, yao_bipartite(S, S))
            with monkeypatch.context() as mp:
                force_fallback(mp, 2, 3)
                assert same_edges(g, yao_bipartite(S, S))


@pytest.mark.parametrize(
    "P, S",
    [([], [(1.0, 2.0), (3.0, 0.0)]), ([(0.0, 0.0), (0.0, 0.0), (5.0, 1.0)], []), ([], [])],
    ids=["no-terminal", "no-candidate", "both-empty"],
)
def test_empty_sets_give_empty_tables(P, S):
    # no terminal gives no row, no candidate a row of empty cones
    a, b = yao_bruteforce(P, S), yao_bipartite(P, S)
    assert b.best_w.shape == b.best_s.shape == (len(P), 6)
    assert b.best_s.dtype == a.best_s.dtype == np.int64
    assert same_edges(a, b)
    assert (b.best_s == len(S)).all() and (b.best_w == np.inf).all()


def _cone_table_cases(family):
    """(q, P) pairs: one candidate q and apexes P around it, the directions q - P of one family."""
    rng = np.random.default_rng(316)
    Q = np.array([(0.0, 0.0), (3.25, -1.5), (-7.0e5, 2.0e5)])
    if family == "random":
        return [(q, q - rng.normal(0.0, 10.0, (2000, 2))) for q in Q]
    if family == "near-ray":
        # each 60-degree ray, each component off by a few ulps, at three scales
        eps = np.arange(-4, 5) * 2.0**-52
        off = 1.0 + np.stack(np.meshgrid(eps, eps), axis=-1)
        d = (yao._RAYS[:6, None, None, :] * off).reshape(-1, 2)
        return [(q, q - d * scale) for q in Q for scale in (2.0**-30, 1.0, 2.0**30)]
    if family == "signed-zero":
        # d_x and d_y of +-0.0 and +-1, d_y = +-0 on both sides of the x axis among them
        Z = np.array([(x, y) for x in (-1.0, -0.0, 0.0, 1.0) for y in (-1.0, -0.0, 0.0, 1.0)])
        return [(q, Z) for q in Z]
    pool = np.array(DEGENERATE_POOLS[family], dtype=float)
    return [_to_magnitude(pool[i : i + 1], pool, e) for e in (None, 499, -400) for i in range(len(pool))]


@pytest.mark.parametrize("family", ["random", "near-ray", "signed-zero", "line60", "line120"])
def test_cone_table_admits_every_classified_direction(family):
    # every direction that the classification puts in cone c passes cone
    # c's two tests in `yao._CONES` with the slack of `_tolerance`, both as
    # a point and as the one-point box [q, q] of the walk
    for q, P in _cone_table_cases(family):
        q = np.ravel(q)
        dx, dy = q[0] - P[:, 0], q[1] - P[:, 1]
        keep = (dx != 0) | (dy != 0)  # a candidate on the apex lies in no cone
        P, c = P[keep], cone_indices_from_deltas(dx[keep], dy[keep])
        tol = yao._tolerance(P, q[None])
        lower, t_a, upper, t_b = yao._cone_tests(c, P, tol)
        Q = np.broadcast_to(q, P.shape)
        assert (-yao._cross(lower, Q) <= t_a).all()
        assert (yao._cross(upper, Q) < t_b).all()
        box = q[[0, 1, 0, 1], None]
        boxes = yao._Boxes(np.array([[0]]), box[:1], box[1:2], [box])
        test = np.vstack((P.T, lower, t_a, upper, t_b))
        _, s, _ = yao._walk(boxes, test, c, np.full(len(P), np.inf), np.full(len(P), -1.0), 1)
        assert (s == 0).all()


def test_lines_prove_their_empty_cones():
    # a point on a line sees other points in two cones at most; the other
    # cones are proven empty up front, so none of them reaches the cone
    # search, which would make lines quadratic
    t = np.arange(-50, 50.0)
    for d in ((1, 0), (0, 1), (2, 3), (-5, 1)):
        S = t[:, None] * np.array(d, dtype=float) + 0.5
        g = yao_bruteforce(S, S)
        has_edge = np.zeros((len(S), 6), dtype=bool)
        has_edge[g.p_idx, g.cone] = True
        assert (has_edge ^ yao._empty_cones(S, S)).all()
        assert same_edges(g, yao_bipartite(S, S))


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
    P, S = np.asarray(P, float), np.asarray(S, float)
    d = squared_distances(P[:, None], S)
    for i in range(n):
        edges = g.edges_of(i)
        cones_seen = [c for _, c, _ in edges]
        assert len(set(cones_seen)) == len(cones_seen)  # one edge per cone
        all_cones = cone_indices_from_deltas(S[:, 0] - P[i, 0], S[:, 1] - P[i, 1])
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


def test_forced_tree_search_path_matches(monkeypatch):
    # a tiny kNN round pushes most cells through the batched cone search
    rng = np.random.default_rng(300)
    for _ in range(30):
        n = int(rng.integers(1, 50))
        m = int(rng.integers(1, 50))
        P, S = gen_random_instance(n, m, 100.0, seed=int(rng.integers(1 << 31)))
        a = yao_bruteforce(P, S)
        for knobs in ((2, 2), (3, 4)):
            with monkeypatch.context() as mp:
                force_fallback(mp, *knobs)
                assert same_edges(a, yao_bipartite(P, S))


def test_tree_search_with_empty_cones(monkeypatch):
    # far-away clustered terminals leave most cones empty; with k = 1 the
    # kNN round settles no cone, so every cone not proven empty is searched
    calls = force_fallback(monkeypatch, 1, 3)
    rng = np.random.default_rng(301)
    for _ in range(20):
        n = int(rng.integers(1, 30))
        m = int(rng.integers(1, 30))
        S = rng.normal(0, 1, (m, 2)) + 100.0
        P = rng.normal(0, 1, (n, 2))
        a = yao_bruteforce(P, S)
        assert same_edges(a, yao_bipartite(P, S))
    assert calls


@pytest.mark.parametrize("kind", ["uniform", "lattice", "clustered"])
def test_tree_search_on_larger_sets(monkeypatch, kind):
    # small leaves make the search descend through many split planes; on
    # lattices, candidates sit on the planes and tie in distance
    rng = np.random.default_rng(303)
    for m in (300, 800, 2000):
        n = 60
        if kind == "uniform":
            S = rng.uniform(0, 100, (m, 2))
            P = rng.uniform(-10, 110, (n, 2))
        elif kind == "lattice":
            S = rng.integers(-12, 13, (m, 2)).astype(float)
            P = rng.integers(-15, 16, (n, 2)) + 0.5
        else:
            S = rng.normal(0, 1, (m, 2)) + rng.integers(-3, 4, (m, 2)) * 10.0
            P = rng.normal(0, 20, (n, 2))
        a = yao_bruteforce(P, S)
        for knobs in ((2, 2), (4, 5)):
            with monkeypatch.context() as mp:
                calls = force_fallback(mp, *knobs)
                assert same_edges(a, yao_bipartite(P, S))
                assert calls
        if m == 300:  # a set against itself: every candidate is some apex
            b = yao_bruteforce(S, S)
            with monkeypatch.context() as mp:
                calls = force_fallback(mp, 2, 3)
                assert same_edges(b, yao_bipartite(S, S))
                assert calls


def test_sixty_degree_line_reaches_tree_search(monkeypatch):
    # rounding puts each neighbor on a 60-degree line into one of the two
    # cones sharing that ray, so the other cone is neither found by the
    # kNN round nor provably empty, and the search runs along the line
    calls = count_cone_queries(monkeypatch)
    m = 1024
    t = np.random.default_rng(304).permutation(m).astype(float)
    S = t[:, None] * np.array([np.cos(np.pi / 3), np.sin(np.pi / 3)]) * 1.7
    assert same_edges(yao_bruteforce(S, S), yao_bipartite(S, S))
    assert calls


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


def _ring(rng, k, r0, r1):
    r = np.sqrt(rng.uniform(r0 * r0, r1 * r1, k))
    t = rng.uniform(0.0, 2.0 * np.pi, k)
    return np.column_stack((r * np.cos(t), r * np.sin(t)))


def spy_empty_cones(monkeypatch):
    """Record, per call of the emptiness proof, its terminal count and the cells it proves."""
    calls = []
    empty_cones = yao._empty_cones

    def counted(P, S):
        empty = empty_cones(P, S)
        calls.append((len(P), int(np.count_nonzero(empty))))
        return empty

    monkeypatch.setattr(yao, "_empty_cones", counted)
    return calls


def test_hull_shaped_input_runs_the_proof(monkeypatch):
    # terminals ringing a candidate disc leave thousands of open cells,
    # far above m / _LEAF_SIZE: the proof runs and settles most of them
    proofs = spy_empty_cones(monkeypatch)
    searches = count_cone_queries(monkeypatch)
    rng = np.random.default_rng(320)
    P, S = _ring(rng, 400, 1010.0, 1200.0), _ring(rng, 400, 0.0, 1000.0)
    assert same_edges(yao_bruteforce(P, S), yao_bipartite(P, S))
    assert len(proofs) == 1 and proofs[0][1] > 0
    assert len(searches) == 1 and proofs[0][1] > searches[0]
    assert (searches[0] + proofs[0][1]) * yao._LEAF_SIZE >= len(S)


def test_skipped_proof_matches_bruteforce(monkeypatch):
    # a few terminals outside a dense candidate disc leave fewer than
    # m / _LEAF_SIZE open cells: the proof is skipped, and the search
    # settles every open cell, the empty cones included
    proofs = spy_empty_cones(monkeypatch)
    searches = count_cone_queries(monkeypatch)
    rng = np.random.default_rng(321)
    S = _ring(rng, 4000, 0.0, 100.0)
    P = np.concatenate((_ring(rng, 60, 0.0, 90.0), _ring(rng, 4, 150.0, 200.0)))
    g = yao_bruteforce(P, S)
    assert same_edges(g, yao_bipartite(P, S))
    assert not proofs
    assert len(searches) == 1 and 0 < searches[0] * yao._LEAF_SIZE < len(S)
    assert (g.best_s == len(S)).sum() > 0  # some searched cones are empty


def test_solve_settles_no_open_cell_on_a_hull(monkeypatch):
    # every open cell of terminals ringing a candidate disc lies beyond the
    # largest tree edge and above its row's nearest cell: solve leaves them
    # all unsettled, while the complete table still needs the search
    proofs = spy_empty_cones(monkeypatch)
    searches = count_cone_queries(monkeypatch)
    rng = np.random.default_rng(2048)
    S, P = _ring(rng, 2**11, 0.0, 1000.0), _ring(rng, 2**11, 1010.0, 1200.0)
    solve(P, S)
    assert proofs == [] and searches == []
    assert same_edges(yao_bruteforce(P, S), yao_bipartite(P, S))
    assert len(searches) == 1 and searches[0] > 0


def assert_exact_below(g, P, S, limit):
    """g equals the complete table in every cell below limit and in each
    row's minimum, ties and their candidate index included; any other cell
    is equal or empty."""
    full = yao_bruteforce(P, S)
    same = (g.best_w == full.best_w) & (g.best_s == full.best_s)
    empty = (g.best_w == np.inf) & (g.best_s == len(S))
    exact = (full.best_w < limit) | (full.best_w == row_min(full.best_w)[:, None])
    assert g.limit == limit
    assert same[exact].all() and (same | empty).all()


def _mst_limit(S):
    thresholds = euclidean_mst(S).thresholds
    return thresholds[-1] if len(thresholds) else np.inf


def test_bounded_round_with_every_candidate_fetchable():
    # m <= 32, so k == m, but the bounded query still leaves out the
    # candidates beyond the limit: no row may count as complete
    rng = np.random.default_rng(331)
    cut = 0
    for _ in range(30):
        m, n = int(rng.integers(2, 33)), int(rng.integers(1, 40))
        S, P = rng.uniform(0.0, 10.0, (m, 2)), rng.uniform(-2.0, 12.0, (n, 2))
        limit = _mst_limit(S)
        assert_exact_below(yao_bipartite(P, S, limit), P, S, limit)
        cut += int(np.count_nonzero(squared_distances(P[:, None], S) >= limit))
    assert cut > 0


def test_bounded_round_in_a_dense_cluster():
    # a dense cluster inside a sparse set: the sparse set's long tree edges
    # put far more than k candidates within sqrt(M) of a cluster terminal,
    # whose radius is then its k-th distance, while sparse terminals hold
    # fewer than k and are padded
    rng = np.random.default_rng(332)
    for _ in range(4):
        S = np.concatenate((rng.uniform(0.0, 100.0, (150, 2)), 50.0 + _ring(rng, 200, 0.0, 1.0)))
        P = np.concatenate((50.0 + _ring(rng, 20, 0.0, 1.2), rng.uniform(0.0, 100.0, (20, 2))))
        limit = _mst_limit(S)
        within = np.count_nonzero(squared_distances(P[:, None], S) < limit, axis=1)
        assert within.max() > yao._KNN_START > within.min()
        assert_exact_below(yao_bipartite(P, S, limit), P, S, limit)


def record_queries(monkeypatch):
    """Record each kNN query of `yao_bipartite`: its rows, k and distance bound."""
    calls = []

    class Recording(cKDTree):
        def query(self, x, k=1, **kwargs):
            calls.append((np.array(x), k, kwargs.get("distance_upper_bound", np.inf)))
            return super().query(x, k=k, **kwargs)

    monkeypatch.setattr(yao, "cKDTree", Recording)
    return calls


def _same_rows(a, b):
    return sorted(map(tuple, a.tolist())) == sorted(map(tuple, b.tolist()))


def test_query_plan_bounds_the_first_round_by_the_limit(monkeypatch):
    # one bounded round of every terminal, then an unbounded k = 2 round of
    # the terminals with nothing within the bound, here the outer ring
    calls = record_queries(monkeypatch)
    rng = np.random.default_rng(333)
    P, S = _ring(rng, 40, 1.05, 1.5), _ring(rng, 100, 0.0, 1.0)
    limit = _mst_limit(S)
    g = yao_bipartite(P, S, limit)
    assert len(calls) == 2
    (rows, k, bound), (lone, k2, bound2) = calls
    assert _same_rows(rows, P) and k == yao._KNN_START
    assert np.sqrt(limit) < bound < np.sqrt(limit) * (1 + 2.0**-29)
    far = squared_distances(P[:, None], S).min(axis=1) >= limit
    assert 0 < far.sum() and _same_rows(lone, P[far])
    assert k2 == 2 and bound2 == np.inf
    assert_exact_below(g, P, S, limit)


def test_query_plan_without_a_limit(monkeypatch):
    calls = record_queries(monkeypatch)
    rng = np.random.default_rng(333)
    P, S = _ring(rng, 40, 1.05, 1.5), _ring(rng, 100, 0.0, 1.0)
    g = yao_bipartite(P, S)
    assert len(calls) == 1
    rows, k, bound = calls[0]
    assert _same_rows(rows, P) and k == yao._KNN_START and bound == np.inf
    assert same_edges(g, yao_bruteforce(P, S))


def test_query_plan_splits_a_round_into_chunks_of_rows(monkeypatch):
    # with a budget of 8 rows per query at k = 32, the first round queries
    # the 40 terminals in ceil(40 * 32 / budget) = 5 chunks, each row once
    calls = record_queries(monkeypatch)
    monkeypatch.setattr(yao, "_QUERY", 8 * yao._KNN_START)
    rng = np.random.default_rng(333)
    P, S = _ring(rng, 40, 1.05, 1.5), _ring(rng, 100, 0.0, 1.0)
    limit = _mst_limit(S)
    g = yao_bipartite(P, S, limit)
    first, second = calls[:5], calls[5:]
    assert {k for _, k, _ in first} == {yao._KNN_START}
    assert len({bound for _, _, bound in first}) == 1 and np.isfinite(first[0][2])
    assert [len(rows) for rows, _, _ in first] == [8] * 5
    assert _same_rows(np.concatenate([rows for rows, _, _ in first]), P)
    # the k = 2 round of the far terminals fits one query of 128 rows
    far = squared_distances(P[:, None], S).min(axis=1) >= limit
    assert len(second) == 1 and second[0][1:] == (2, np.inf)
    assert _same_rows(second[0][0], P[far])
    assert_exact_below(g, P, S, limit)


@pytest.mark.parametrize("limit", [np.nan, -1.0, -np.inf])
def test_limit_must_be_a_squared_length(limit):
    with pytest.raises(ValueError, match="limit"):
        yao_bipartite([(0.0, 0.0)], [(1.0, 0.0)], limit)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.data())
def test_limited_table_matches_bruteforce_below_the_limit(data):
    family = data.draw(st.sampled_from(["uniform", "lattice", "far"]))
    n, m = data.draw(st.integers(1, 50)), data.draw(st.integers(1, 90))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if family == "lattice":
        # integer candidates with duplicates, terminals at integer and half-integer points
        S = rng.integers(0, 8, (m, 2)).astype(float)
        P = rng.integers(-2, 10, (n, 2)) + rng.choice([0.0, 0.5], (n, 2))
    else:
        S, P = rng.uniform(0.0, 10.0, (m, 2)), rng.uniform(0.0, 10.0, (n, 2))
        if family == "far":
            far = rng.random(n) < 0.3
            P[far] = 5.0 + _ring(rng, int(far.sum()), 50.0, 1000.0)
    if data.draw(st.booleans()):
        limit = _mst_limit(S)
    else:
        # an exact lattice squared length: lattice candidates sit exactly at sqrt(limit)
        a, b = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
        limit = float(a * a + b * b)
    assert_exact_below(yao_bipartite(P, S, limit), P, S, limit)


def _block_families():
    rng = np.random.default_rng(305)
    lattice = rng.integers(-6, 7, (500, 2)) / 2.0  # about three candidates per lattice point
    t = rng.permutation(700).astype(float)[:, None]
    sixty = t * np.array([np.cos(np.pi / 3), np.sin(np.pi / 3)]) * 1.7
    return {
        "uniform": gen_random_instance(150, 400, 100.0, seed=306),
        "hull": (_ring(rng, 120, 1010.0, 1200.0), _ring(rng, 400, 0.0, 1000.0)),
        "lattice": (rng.integers(-7, 8, (150, 2)) / 2.0 + 0.25, lattice),
        "line60": (sixty, sixty),  # the cone search runs along the line
    }


BLOCK_FAMILIES = _block_families()
K = yao._KNN_START


@pytest.mark.parametrize(
    "block, order",
    [
        (1, None),
        (K - 1, None),
        (K, None),
        (K + 1, None),
        (7 * K + 5, None),  # 7 rows per first-round block, dividing no terminal count
        (None, "identity"),
        (None, "reverse"),
        (None, "random"),
    ],
)
def test_blocks_and_visit_order_keep_the_graph(monkeypatch, block, order):
    """Neither the row blocks nor the terminal visit order change the graph."""
    if block is not None:
        monkeypatch.setattr(yao, "_BLOCK", block)
    rng = np.random.default_rng(307)
    orders = {
        "identity": lambda P: np.arange(len(P)),
        "reverse": lambda P: np.arange(len(P))[::-1],
        "random": lambda P: rng.permutation(len(P)),
    }
    if order is not None:
        monkeypatch.setattr(yao, "_z_order", orders[order])
    for P, S in BLOCK_FAMILIES.values():
        assert same_edges(yao_bruteforce(P, S), yao_bipartite(P, S))


@pytest.mark.parametrize("limited", [False, True], ids=["complete", "limited"])
@pytest.mark.parametrize("query", [1, K - 1, K, K + 1, 7 * K + 5, 64 * K])
def test_query_chunks_keep_the_graph(monkeypatch, query, limited):
    """A round split into queries of a few rows, down to one, gives the same table."""
    monkeypatch.setattr(yao, "_QUERY", query)
    for P, S in BLOCK_FAMILIES.values():
        if limited:
            limit = _mst_limit(S)
            assert_exact_below(yao_bipartite(P, S, limit), P, S, limit)
        else:
            assert same_edges(yao_bruteforce(P, S), yao_bipartite(P, S))


@pytest.mark.parametrize(
    "P",
    [
        [(3.0, 4.0)],
        [(2.5, -1.0)] * 5,
        [(t, 7.0) for t in (5.0, -3.0, 0.0, 2.0, -3.0)],
        [(x, y) for x in (0.0, 2.0**-400, -(2.0**-400)) for y in (2.0**499, -(2.0**499), 0.0)],
        [(x, y) for x in (2.0**-400, -(2.0**-400)) for y in (2.0**-400, 2.0**-400 * (1 + 2.0**-52))],
    ],
    ids=["one", "all-equal", "horizontal", "extremes", "tiny-span"],
)
def test_z_order_is_a_permutation(P):
    with np.errstate(all="raise"):
        order = yao._z_order(np.asarray(P, dtype=float))
    assert np.array_equal(np.sort(order), np.arange(len(P)))


def test_z_order_follows_the_morton_curve():
    # on a 4 x 4 grid the 16-bit cells repeat each coordinate's two bits,
    # so the visit order is the 2-bit Morton order
    def morton(x, y):
        return sum(((x >> i) & 1) << (2 * i) | ((y >> i) & 1) << (2 * i + 1) for i in range(2))

    cells = np.random.default_rng(308).permutation([(x, y) for x in range(4) for y in range(4)])
    order = yao._z_order(cells.astype(float))
    assert [morton(x, y) for x, y in cells[order].tolist()] == list(range(16))


def test_peak_memory_of_one_call_stays_bounded():
    # the row blocks keep the glue around each round's query small: one
    # call at n = m = 2**14 peaks near 10 MB; reducing a round's neighbor
    # lists whole takes about 36 MB
    P, S = gen_random_instance(1 << 14, 1 << 14, 1000.0, seed=309)
    yao_bipartite(P, S)
    tracemalloc.start()
    try:
        yao_bipartite(P, S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_peak_memory_of_a_round_stays_bounded_as_n_grows():
    # the round queries at most _QUERY = 2**19 neighbors at a time, 2**14
    # rows at k = 32: at n = m = 2**16 one query of every row would return
    # 32 MiB of distances and indices alone; in chunks the call peaks near
    # 23 MiB, the cone table and the k-d tree included
    P, S = gen_random_instance(1 << 16, 1 << 16, 1000.0, seed=310)
    yao_bipartite(P[:10], S[:10])
    tracemalloc.start()
    try:
        yao_bipartite(P, S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 28 * 2**20


def test_peak_memory_with_the_limit_stays_bounded_on_a_hull():
    # Terminals ring a disc of candidates, n = m = 2**16, with the largest
    # tree edge as the limit: nearly every row settles one cell and retires
    # the others as the round reduces its block, so the call peaks near
    # 21 MiB.  Copying the row of each open cell after the round, as a
    # separate pass, peaked at 48.5 MiB.
    rng = np.random.default_rng(311)

    def annulus(k, r0, r1):
        r = np.sqrt(rng.uniform(r0 * r0, r1 * r1, k))
        t = rng.uniform(0.0, 2.0 * np.pi, k)
        return np.column_stack((r * np.cos(t), r * np.sin(t)))

    S = annulus(1 << 16, 0.0, 1000.0)
    P = annulus(1 << 16, 1010.0, 1200.0)
    limit = euclidean_mst(S).thresholds[-1]
    yao_bipartite(P[:10], S[:10])
    tracemalloc.start()
    try:
        yao_bipartite(P, S, limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30 * 2**20


def _line(degrees):
    a = np.radians(degrees)
    return [(t * np.cos(a), t * np.sin(a)) for t in range(-10, 11)]


_HALVES = [-0.0] + [k / 2 for k in range(-6, 7)]
_CIRCLE = [(x, y) for x in range(-5, 6) for y in range(-5, 6) if x * x + y * y == 25]
# point pools a set draws from with repetition, so candidates and
# terminals repeat; the lattice holds both 0.0 and -0.0, and so does the
# line at 0 degrees (t * 0.0 for negative t)
DEGENERATE_POOLS = {
    "lattice": [(x, y) for x in _HALVES for y in _HALVES],
    "line0": _line(0),
    "line60": _line(60),
    "line120": _line(120),
    "circle": _CIRCLE + [(0, 0)],  # 12 exactly cocircular points and their center
}


def _to_magnitude(P, S, exponent):
    """P and S times one power of two: the largest magnitude lands in
    [2**498, 2**499) for exponent 499, the smallest non-zero one in
    [2**-400, 2**-399) for exponent -400."""
    mag = np.abs(np.concatenate((P, S)))
    if exponent is None or not mag.any():
        return P, S
    ref = mag.max() if exponent > 0 else mag[mag > 0].min()
    e = int(np.frexp(ref)[1])  # 2**(e-1) <= ref < 2**e
    shift = exponent - e if exponent > 0 else exponent + 1 - e
    return np.ldexp(P, shift), np.ldexp(S, shift)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_table_matches_bruteforce_on_degenerate_sets(data):
    pool = data.draw(st.sampled_from(sorted(DEGENERATE_POOLS)))
    points = st.lists(st.sampled_from(DEGENERATE_POOLS[pool]), min_size=1, max_size=40)
    P, S = _to_magnitude(
        np.array(data.draw(points), dtype=float),
        np.array(data.draw(points), dtype=float),
        data.draw(st.sampled_from([None, 499, -400])),
    )
    n, m = len(P), len(S)
    a, b = yao_bruteforce(P, S), yao_bipartite(P, S)
    assert b.best_w.shape == b.best_s.shape == (n, 6)
    assert np.array_equal(a.best_w, b.best_w) and np.array_equal(a.best_s, b.best_s)
    with pytest.MonkeyPatch.context() as mp:
        force_fallback(mp, 2, 3)  # cones left open go to the proof and the search
        assert same_edges(a, yao_bipartite(P, S))
    assert np.array_equal(b.best_s == m, b.best_w == np.inf)
    cells = [(p, c) for p in range(n) for c in range(6) if b.best_w[p, c] < np.inf]
    flat = {
        "p_idx": [p for p, _ in cells],
        "cone": [c for _, c in cells],
        "s_idx": [b.best_s[p, c] for p, c in cells],
        "w": [b.best_w[p, c] for p, c in cells],
    }
    for name, want in flat.items():
        got = getattr(b, name)
        assert got.dtype == (np.float64 if name == "w" else np.int64)
        assert got.tolist() == want
    assert b.edge_count() == len(cells)
    assert b.degrees().tolist() == [sum(p == i for p, _ in cells) for i in range(n)]
    edges = [e for i in range(n) for e in b.edges_of(i)]
    assert edges == list(zip(flat["s_idx"], flat["cone"], flat["w"]))


@contextlib.contextmanager
def time_limit(seconds):
    """Fail with TimeoutError, instead of hanging, if the block runs longer than `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_search_grows_from_a_zero_radius(monkeypatch):
    # more than k candidates on the apex make its k-th-neighbor radius 0,
    # and the only proof of emptiness it can get is the search's own; a
    # radius that only grows by factors of 4 would stay at 0
    calls = count_cone_queries(monkeypatch)
    A = (3.0, 4.0)
    for far in ([], [(10.0, 4.0)], [(10.0, 4.0), (-2.0, -7.0), (3.0, 9.5), (2.0**-30, 4.0)]):
        S = np.array([A] * 40 + far)
        for P in (np.array([A]), S):  # a lone apex, and every point of S
            with time_limit(10):
                assert same_edges(yao_bruteforce(P, S), yao_bipartite(P, S))
    assert calls


def test_search_on_duplicate_candidates(monkeypatch):
    # few distinct points repeated many times: ties on every distance
    calls = force_fallback(monkeypatch, 2, 3)
    rng = np.random.default_rng(310)
    for _ in range(15):
        pool = rng.uniform(0, 10, (int(rng.integers(1, 8)), 2))
        S = pool[rng.integers(0, len(pool), int(rng.integers(1, 200)))]
        P = np.concatenate((S[:20], rng.uniform(-5, 15, (20, 2))))
        with time_limit(10):
            assert same_edges(yao_bruteforce(P, S), yao_bipartite(P, S))
            assert same_edges(yao_bruteforce(S, S), yao_bipartite(S, S))
    assert calls


def test_search_at_extreme_magnitudes(monkeypatch):
    # terminals and candidates at 2**-400 with a few candidates near 2**499:
    # the open cones of the small points reach across about 900 binary
    # orders, and squared radii near 2**1000 must neither overflow nor
    # keep the search going
    calls = count_cone_queries(monkeypatch)
    rng = np.random.default_rng(312)
    for _ in range(10):
        small = rng.integers(-3, 4, (60, 2)) * 2.0**-400
        big = rng.choice([-1.0, 1.0], (int(rng.integers(1, 6)), 2)) * 2.0 ** rng.integers(490, 500, (1, 2))
        S = np.concatenate((small[:40], big))
        P = np.concatenate((small[40:], big[:1] * 0.5))
        with time_limit(20), np.errstate(over="raise", invalid="raise"):
            assert same_edges(yao_bruteforce(P, S), yao_bipartite(P, S))
            assert same_edges(yao_bruteforce(S, S), yao_bipartite(S, S))
    assert calls


@pytest.mark.parametrize("pool", sorted(DEGENERATE_POOLS))
def test_search_on_degenerate_pools_against_themselves(monkeypatch, pool):
    rng = np.random.default_rng(313)
    points = np.array(DEGENERATE_POOLS[pool], dtype=float)
    for knobs in (None, (2, 3)):
        with monkeypatch.context() as mp:
            if knobs is not None:
                force_fallback(mp, *knobs)
            for size in (5, 40, 64, 65, 300):
                S = points[rng.integers(0, len(points), size)]
                for exponent in (None, 499, -400):
                    T, _ = _to_magnitude(S, S, exponent)
                    with time_limit(20):
                        assert same_edges(yao_bruteforce(T, T), yao_bipartite(T, T))


def test_examined_points_scale_on_sixty_degree_lines(monkeypatch):
    # the search gathers whole leaves; on a 60-degree line the points it
    # examines grow at most 2.6x per doubling of the line (a count, not a
    # time; quadratic growth would read 4x)
    examined = []
    boxes = yao._boxes

    class Gathered:
        """A leaf coordinate array that counts the points gathered from it."""

        def __init__(self, a):
            self.a, self.shape = a, a.shape

        def __getitem__(self, leaf):
            out = self.a[leaf]
            examined[-1] += out.size
            return out

    def counted(kdtree, S):
        b = boxes(kdtree, S)
        return yao._Boxes(b.order, Gathered(b.x), b.y, b.levels)

    monkeypatch.setattr(yao, "_boxes", counted)
    for e in range(10, 14):
        t = np.random.default_rng(314).permutation(2**e).astype(float)
        S = t[:, None] * np.array([np.cos(np.pi / 3), np.sin(np.pi / 3)]) * 1.7
        examined.append(0)
        with time_limit(60):
            b = yao_bipartite(S, S)
        assert same_edges(yao_bruteforce(S, S), b)
    assert examined[0] > 0
    assert all(b <= 2.6 * a for a, b in zip(examined, examined[1:])), examined
