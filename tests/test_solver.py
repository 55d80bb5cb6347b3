import dataclasses
import math
import multiprocessing
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsteiner import emst, solver, yao
from bsteiner.decision import (
    SolverContext,
    candidate_components,
    compare_to_optimal,
    forest_components,
    tree_bottlenecks,
)
from bsteiner.emst import euclidean_mst
from bsteiner.generators import (
    gen_maxgap_instance,
    gen_membership_instance,
    gen_random_instance,
)
from bsteiner.geometry import cone_indices_from_deltas, squared_distances
from bsteiner.oracle import brute_force_optimum
from bsteiner.solver import (
    FullSteinerTree,
    binary_search_threshold,
    bottleneck,
    build_tree_for_component,
    preprocess,
    solve,
    threshold_value,
    validate_full_steiner_tree,
)
from bsteiner.yao import row_min, yao_bipartite, yao_bruteforce

COLLINEAR_S = [(0, 0), (1, 0), (2, 0)]
COLLINEAR_P = [(-1, 0), (3, 0)]


def test_preprocess_examples():
    ctx = preprocess([(1, 0)], [(0, 0)])
    assert len(ctx.emst.edge_w) == 0
    assert ctx.yao.edge_count() == 1
    ctx = preprocess(COLLINEAR_P, COLLINEAR_S)
    assert len(ctx.emst.edge_w) == 2
    assert ctx.emst.thresholds.tolist() == [1.0]


def test_preprocess_errors():
    with pytest.raises(ValueError, match="non-empty"):
        preprocess([], [(0, 0)])
    with pytest.raises(ValueError, match="non-empty"):
        preprocess([(0, 0)], [])
    with pytest.raises(ValueError, match="disjoint"):
        preprocess([(0, 0)], [(0, 0)])


def test_binary_search_single_candidate():
    ctx = preprocess([(1, 0)], [(0, 0)])
    assert binary_search_threshold(ctx) == 1  # k = 0, only the infinite slot
    assert threshold_value(ctx.emst, 1) == np.inf


def test_binary_search_collinear():
    ctx = preprocess(COLLINEAR_P, COLLINEAR_S)
    ell = binary_search_threshold(ctx)
    assert ell == 2  # the optimum equals the only finite threshold
    assert threshold_value(ctx.emst, ell) == np.inf
    assert compare_to_optimal(ctx, threshold_value(ctx.emst, 1)) == frozenset()


def test_binary_search_sandwich_on_maxgap():
    inst = gen_maxgap_instance([0, 1, 5, 6], 4, seed=1)
    ctx = preprocess(inst.P, inst.S)
    ell = binary_search_threshold(ctx)
    lam_star, _ = brute_force_optimum(inst.P, inst.S)
    assert threshold_value(ctx.emst, ell - 1) <= lam_star < threshold_value(ctx.emst, ell)


def test_build_tree_single_pair():
    ctx = preprocess([(1, 0)], [(0, 0)])
    lab = forest_components(ctx.emst, np.inf)
    tree = build_tree_for_component(ctx, lab, 0)
    assert tree.skeleton_edges.shape == (0, 2)
    assert tree.external_edges.tolist() == [0]
    assert tree.bottleneck == 1.0
    validate_full_steiner_tree(tree)


def test_build_tree_collinear():
    ctx = preprocess(COLLINEAR_P, COLLINEAR_S)
    lab = forest_components(ctx.emst, np.inf)
    tree = build_tree_for_component(ctx, lab, 0)
    assert sorted(map(tuple, np.sort(tree.skeleton_edges, axis=1).tolist())) == [
        (0, 1),
        (1, 2),
    ]
    assert tree.external_edges.tolist() == [0, 2]
    assert tree.bottleneck == 1.0


def test_build_tree_infeasible_component():
    ctx = preprocess(COLLINEAR_P, COLLINEAR_S)
    lab = forest_components(ctx.emst, 1.0)  # three singletons, none feasible
    with pytest.raises(ValueError, match="not feasible"):
        build_tree_for_component(ctx, lab, 0)
    with pytest.raises(ValueError, match="not feasible"):
        build_tree_for_component(ctx, forest_components(ctx.emst, np.inf), 7)


def test_membership_attachments():
    inst = gen_membership_instance((1, 3), 3)
    r = solve(inst.P, inst.S)
    assert r.tree.external_edges[2] == 0  # (1, 1) hangs off (1, 0)
    assert r.tree.external_edges[3] == 2  # (3, 1) hangs off (3, 0)


def test_solve_examples():
    assert solve([(1, 0)], [(0, 0)]).lambda_star == 1.0
    assert solve(COLLINEAR_P, COLLINEAR_S).lambda_star == 1.0
    inst = gen_maxgap_instance([0, 1, 5, 6], 4, seed=0)
    r = solve(inst.P, inst.S)
    assert math.sqrt(r.lambda_star) == 4.0  # the largest value gap


def test_domain_edges_match_oracle():
    # |c| up to 2**500, and nonzero |c| down to 2**-400 beside exact zeros:
    # no squared length overflows or goes subnormal, so solve stays exact
    rng = np.random.default_rng(1500)
    for _ in range(10):
        big = rng.integers(-8, 9, (30, 2)) * 2.0**497
        mant = 1 + rng.integers(0, 16, (30, 2)) * 2.0**-52
        tiny = rng.integers(-1, 2, (30, 2)) * (2.0**-400 * mant)
        for pts in (big, tiny):
            pts = rng.permutation(np.unique(pts, axis=0))
            n = len(pts) // 2
            with np.errstate(all="raise"):
                r = solve(pts[:n], pts[n:])
                lam, _ = brute_force_optimum(pts[:n], pts[n:])
                ctx = preprocess(pts[:n], pts[n:])
            assert r.lambda_star == lam > 0
            validate_full_steiner_tree(r.tree)
            # every layer measures with the one routine: tree edges and cone cells
            P, S, emst, yao = ctx.P, ctx.S, ctx.emst, ctx.yao
            assert np.array_equal(emst.edge_w, squared_distances(S[emst.edge_u], S[emst.edge_v]))
            p, s = yao.p_idx, yao.s_idx
            assert np.array_equal(yao.w, squared_distances(P[p], S[s]))
            delta = S[s] - P[p]
            assert np.array_equal(cone_indices_from_deltas(delta[:, 0], delta[:, 1]), yao.cone)


def test_bottleneck_recompute():
    rng = np.random.default_rng(700)
    for _ in range(20):
        P, S = gen_random_instance(
            int(rng.integers(1, 20)), int(rng.integers(1, 20)), 50.0,
            seed=int(rng.integers(1 << 31)),
        )
        tree = solve(P, S).tree
        assert bottleneck(tree) == tree.bottleneck


@pytest.mark.parametrize("seed", range(4))
def test_optimum_matches_oracle(seed):
    rng = np.random.default_rng(800 + seed)
    for _ in range(25):
        n = int(rng.integers(1, 41))
        m = int(rng.integers(1, 41))
        P, S = gen_random_instance(n, m, 100.0, seed=int(rng.integers(1 << 31)))
        r = solve(P, S)
        lam_star, witness = brute_force_optimum(P, S)
        assert r.lambda_star == lam_star
        validate_full_steiner_tree(r.tree)
        validate_full_steiner_tree(witness)


def test_sandwich_property():
    rng = np.random.default_rng(900)
    for _ in range(40):
        n = int(rng.integers(1, 25))
        m = int(rng.integers(1, 25))
        P, S = gen_random_instance(n, m, 60.0, seed=int(rng.integers(1 << 31)))
        r = solve(P, S)
        ctx_emst = preprocess(P, S).emst
        ell = r.threshold_index
        assert 1 <= ell <= len(ctx_emst.thresholds) + 1
        assert threshold_value(ctx_emst, ell - 1) <= r.lambda_star
        assert r.lambda_star < threshold_value(ctx_emst, ell)


def test_skeleton_edges_within_optimum():
    rng = np.random.default_rng(901)
    for _ in range(30):
        n = int(rng.integers(1, 20))
        m = int(rng.integers(2, 25))
        P, S = gen_random_instance(n, m, 60.0, seed=int(rng.integers(1 << 31)))
        r = solve(P, S)
        for u, v in r.tree.skeleton_edges.tolist():
            w = (S[u, 0] - S[v, 0]) ** 2 + (S[u, 1] - S[v, 1]) ** 2
            assert w <= r.lambda_star


def test_bounds_property():
    rng = np.random.default_rng(902)
    for _ in range(40):
        n = int(rng.integers(1, 25))
        m = int(rng.integers(1, 25))
        P, S = gen_random_instance(n, m, 60.0, seed=int(rng.integers(1 << 31)))
        r = solve(P, S)
        attach = squared_distances(P[:, None], S).min(axis=1).max()
        emst = preprocess(P, S).emst
        longest = emst.edge_w[-1] if len(emst.edge_w) else 0.0
        assert attach <= r.lambda_star <= max(longest, attach)


def test_deterministic_reports():
    P, S = gen_random_instance(17, 23, 40.0, seed=5)
    a = solve(P, S)
    b = solve(P, S)
    assert a.lambda_star == b.lambda_star
    assert a.threshold_index == b.threshold_index
    assert a.chosen_component == b.chosen_component
    assert a.candidate_count == b.candidate_count
    assert np.array_equal(a.tree.skeleton_edges, b.tree.skeleton_edges)
    assert np.array_equal(a.tree.external_edges, b.tree.external_edges)
    assert np.array_equal(a.tree.component_vertices, b.tree.component_vertices)


def test_brute_yao_variant_agrees():
    rng = np.random.default_rng(903)
    for _ in range(15):
        P, S = gen_random_instance(
            int(rng.integers(1, 25)), int(rng.integers(1, 25)), 60.0,
            seed=int(rng.integers(1 << 31)),
        )
        ctx = SolverContext(P, S, euclidean_mst(S), yao_bruteforce(P, S))
        ell = binary_search_threshold(ctx)
        lam = threshold_value(ctx.emst, ell)
        lab = forest_components(ctx.emst, lam)
        lam_star = min(
            build_tree_for_component(ctx, lab, j).bottleneck
            for j in compare_to_optimal(ctx, lam)
        )
        r = solve(P, S)
        assert ell == r.threshold_index
        assert lam_star == r.lambda_star


def count_decision_calls(monkeypatch):
    calls = []
    forest = solver.forest_components

    def counted(emst, threshold):
        calls.append(threshold)
        return forest(emst, threshold)

    monkeypatch.setattr(solver, "forest_components", counted)
    return calls


def test_search_skips_indices_below_attach_bound(monkeypatch):
    calls = count_decision_calls(monkeypatch)
    instances = [(COLLINEAR_P, COLLINEAR_S), ([(1, 0)], [(0, 0)])]
    for seed in range(8):
        instances.append(gen_random_instance(300, 300, 1000.0, seed=seed))
        rng = np.random.default_rng(seed)
        t = rng.uniform(0.0, 2.0 * np.pi, 100)  # terminals ring a candidate disc
        instances.append((np.column_stack((1.2 * np.cos(t), 1.2 * np.sin(t))),
                          rng.uniform(-0.6, 0.6, (200, 2))))
    skipped = 0
    for P, S in instances:
        ctx = preprocess(P, S)
        attach = squared_distances(ctx.P[:, None], ctx.S).min(axis=1).max()
        k = len(ctx.emst.thresholds)
        if k and attach < ctx.emst.thresholds[-1]:
            continue
        del calls[:]
        assert binary_search_threshold(ctx) == k + 1
        assert calls == []
        skipped += 1
    assert skipped >= 10


def linear_scan_index(ctx):
    """Smallest index of the augmented thresholds whose candidate set is non-empty."""
    k = len(ctx.emst.thresholds)
    for i in range(1, k + 2):
        lam = threshold_value(ctx.emst, i)
        if lam > 0 and compare_to_optimal(ctx, lam):
            return i
    raise AssertionError("the infinite threshold always succeeds")


def search_instance(rng, family):
    """A small instance of one of the search test families (0-3)."""
    n = int(rng.integers(1, 15))
    m = int(rng.integers(1, 25))
    if family == 0:
        # half-integer lattice: duplicate candidates put zero thresholds first
        S = rng.integers(-3, 4, (m, 2)) / 2.0
        P = rng.integers(-3, 4, (n, 2)) / 2.0 + 0.25
    elif family == 1:
        # terminals clustered inside spread candidates: the optimum binds mid-way
        S = rng.uniform(0.0, 60.0, (m, 2))
        P = rng.uniform(25.0, 35.0, (n, 2))
    elif family == 2:
        P, S = gen_random_instance(n, m, 60.0, seed=int(rng.integers(1 << 31)))
    else:
        P, S = blob_shaped(rng, n, 2 * m)
    return P, S


def blob_shaped(rng, n, m):
    """Terminals in a disc of radius 48 inside a disc of radius 60 that holds
    half the candidates; the other half spreads over a 1000 x 1000 square."""

    def disc(k, radius):
        r = radius * np.sqrt(rng.uniform(0.0, 1.0, k))
        t = rng.uniform(0.0, 2.0 * np.pi, k)
        return 500.0 + np.column_stack((r * np.cos(t), r * np.sin(t)))

    S = np.concatenate((disc(m // 2, 60.0), rng.uniform(0.0, 1000.0, (m - m // 2, 2))))
    return disc(n, 48.0), S


def test_search_index_matches_linear_scan():
    rng = np.random.default_rng(905)
    inner = 0
    for trial in range(120):
        P, S = search_instance(rng, trial % 3)
        ctx = preprocess(P, S)
        ell = binary_search_threshold(ctx)
        assert ell == linear_scan_index(ctx)
        inner += ell <= len(ctx.emst.thresholds)
        lam, _ = brute_force_optimum(P, S)
        assert solve(P, S).lambda_star == lam
    assert inner >= 20


def plain_bisection(ctx):
    """Index and probe count of a bisection from the attach bound to k + 1."""
    thresholds = ctx.emst.thresholds
    attach = squared_distances(ctx.P[:, None], ctx.S).min(axis=1).max()
    lo = int(np.searchsorted(thresholds, attach, side="right")) + 1
    hi = len(thresholds) + 1
    probes = 0
    while lo < hi:
        mid = (lo + hi) // 2
        probes += 1
        if compare_to_optimal(ctx, threshold_value(ctx.emst, mid)):
            hi = mid
        else:
            lo = mid + 1
    return lo, probes


def test_minimax_bound_costs_at_most_one_probe(monkeypatch):
    # the probe below the minimax bound comes on top of a bisection of a
    # range no wider than the plain one, and on blob-shaped input it is
    # usually the only probe
    calls = count_decision_calls(monkeypatch)
    rng = np.random.default_rng(1961)
    saved = 0
    for trial in range(160):
        P, S = search_instance(rng, trial % 4)
        ctx = preprocess(P, S)
        del calls[:]
        ell = binary_search_threshold(ctx)
        assert ell == linear_scan_index(ctx)
        want, plain = plain_bisection(ctx)
        assert ell == want and len(calls) <= plain + 1
        saved += plain - len(calls)
    assert saved > 0

    for seed in (0, 15):  # the bound is exact on both; on seed 0 one probe confirms it
        ctx = preprocess(*blob_shaped(np.random.default_rng(seed), 2**9, 2**12))
        del calls[:]
        ell = binary_search_threshold(ctx)
        want, plain = plain_bisection(ctx)
        assert ell == want and ell <= len(ctx.emst.thresholds)
        assert len(calls) <= 1 and plain >= 10


def minimax_index(ctx, root):
    """First index above U_r, the minimax bound from one root (Hu 1961)."""
    yao = yao_bruteforce(ctx.P, ctx.S)
    b = tree_bottlenecks(ctx.emst, root)
    u = np.maximum(yao.best_w, b.take(yao.best_s, mode="clip")).min(axis=1).max()
    return int(np.searchsorted(ctx.emst.thresholds, u, side="right")) + 1


def test_search_walks_only_the_binding_terminals_cells(monkeypatch):
    # the index is the first above the least minimax bound over the
    # binding terminal's cells, found without a decision call
    calls = count_decision_calls(monkeypatch)
    roots = []
    real = solver.tree_bottlenecks

    def spy(emst, root):
        roots.append(root)
        return real(emst, root)

    monkeypatch.setattr(solver, "tree_bottlenecks", spy)
    rng = np.random.default_rng(1962)
    attached = lowered = 0
    for trial in range(240):
        P, S = search_instance(rng, trial % 4)
        ctx = preprocess(P, S)
        yao, thresholds = ctx.yao, ctx.emst.thresholds
        p = yao.binding_row()
        cells = yao.best_s[p][np.isfinite(yao.best_w[p])]
        del calls[:], roots[:]
        ell = binary_search_threshold(ctx)
        assert ell == linear_scan_index(ctx)
        assert calls == []
        assert len(roots) == len(set(roots)) <= len(cells)
        assert set(roots) <= set(cells.tolist())
        if len(thresholds) == 0 or yao.best_w[p].min() >= thresholds[-1]:
            assert roots == [] and ell == len(thresholds) + 1
            attached += 1
        nearest = int(yao.best_s[p, np.argmin(yao.best_w[p])])
        lowered += ell < minimax_index(ctx, nearest)
    assert attached >= 10 and lowered >= 10


def test_peak_memory_of_search_and_assembly_stays_bounded(monkeypatch):
    # at n = m = 2**16 one (n, 6) table of numbers is 3 MiB.  The search
    # reuses one buffer for its walks and assembly keeps one table alive at
    # a time: together they peak near 6.4 MiB, the 1.8 MiB tree they return
    # and the rows they fill included.  Whole-table temporaries, two at a
    # time, peaked at 9.1 MiB.
    ctx = preprocess(*blob_shaped(np.random.default_rng(5), 2**16, 2**16))
    table = ctx.yao.best_w.nbytes
    walks = []
    real = solver.tree_bottlenecks
    monkeypatch.setattr(solver, "tree_bottlenecks", lambda emst, root: walks.append(root) or real(emst, root))
    monkeypatch.setattr(solver, "preprocess", lambda P, S: ctx)
    tracemalloc.start()
    try:
        report = solve(ctx.P, ctx.S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert walks and report.threshold_index <= len(ctx.emst.thresholds)
    assert peak < 2.5 * table


def test_timings_present():
    r = solve([(1, 0)], [(0, 0)])
    assert set(r.timings) == {"preprocess_ns", "search_ns", "assemble_ns"}
    assert all(v >= 0 for v in r.timings.values())


def test_duplicate_candidates_spawn_zero_thresholds():
    # zero-weight tree edges must not push the search to a zero threshold
    P, S = [(0, 0)], [(1, 1), (1, 1), (5, 5)]
    r = solve(P, S)
    lam, _ = brute_force_optimum(P, S)
    assert r.lambda_star == lam == 2.0
    rng = np.random.default_rng(904)
    for _ in range(30):
        n = int(rng.integers(1, 12))
        m = int(rng.integers(2, 12))
        P, S = gen_random_instance(n, m, 20.0, seed=int(rng.integers(1 << 31)))
        S[int(rng.integers(0, m))] = S[int(rng.integers(0, m))]
        r = solve(P, S)
        lam, _ = brute_force_optimum(P, S)
        assert r.lambda_star == lam
        validate_full_steiner_tree(r.tree)


def test_validate_rejects_broken_trees():
    # unit square of candidates, one terminal hanging off candidate 0
    P = np.array([[-1.0, 0.0]])
    S = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    good = FullSteinerTree(
        P, S, np.array([0, 1, 2]), np.array([[0, 1], [1, 2]]), np.array([0]), 1.0
    )
    validate_full_steiner_tree(good)
    square = np.array([0, 1, 2, 3])
    broken = {
        "cycle with |S'| - 1 edges": dict(
            component_vertices=square, skeleton_edges=np.array([[0, 1], [1, 2], [0, 2]])
        ),
        "disconnected skeleton": dict(
            component_vertices=square, skeleton_edges=np.array([[0, 1], [1, 0], [2, 3]])
        ),
        "self-loop": dict(skeleton_edges=np.array([[0, 0], [1, 2]])),
        "skeleton edge outside": dict(skeleton_edges=np.array([[0, 1], [1, 3]])),
        "wrong edge count": dict(skeleton_edges=np.array([[0, 1]])),
        "external edge outside": dict(external_edges=np.array([3])),
        "one external edge per terminal": dict(external_edges=np.array([0, 1])),
        "wrong bottleneck": dict(bottleneck=0.5),
        "empty component": dict(
            component_vertices=np.zeros(0, dtype=np.int64),
            skeleton_edges=np.zeros((0, 2), dtype=np.int64),
        ),
        "component out of range": dict(component_vertices=np.array([0, 1, 4])),
        "component unsorted": dict(component_vertices=np.array([1, 0, 2])),
    }
    for case, fields in broken.items():
        with pytest.raises(ValueError):
            validate_full_steiner_tree(dataclasses.replace(good, **fields))
            pytest.fail(case)


def truncation_instance(rng, family):
    """An instance of one of five families (0-4) with m >= 64 > k = 32, so
    that the kNN round leaves cells open for the Yao limit to cut."""
    n = int(rng.integers(8, 48))
    m = int(rng.integers(64, 128))

    def disc(k, r0, r1):
        r = np.sqrt(rng.uniform(r0 * r0, r1 * r1, k))
        t = rng.uniform(0.0, 2.0 * np.pi, k)
        return np.column_stack((r * np.cos(t), r * np.sin(t)))

    if family == 0:
        # terminals ring a candidate disc
        return disc(n, 1.05, 1.5), disc(m, 0.0, 1.0)
    if family == 1:
        # a terminal far out, in a cone that holds only a few far candidates
        S = np.concatenate((rng.uniform(0.0, 10.0, (m - 3, 2)), 5.0 + disc(3, 20.0, 60.0)))
        P = np.concatenate((rng.uniform(0.0, 10.0, (n - 1, 2)), 5.0 + disc(1, 30.0, 90.0)))
        return P, S
    if family == 2:
        # two integer lattice blocks an integer gap apart, so M is the
        # squared gap, and terminals at integer and half-integer points:
        # lengths tie with each other and some k-th radii with M
        a, b = rng.integers(6, 9, 2)
        block = np.argwhere(np.ones((a, b))).astype(float)
        S = np.concatenate((block, block + (a - 1 + rng.integers(2, 7), rng.integers(-2, 3))))
        half = np.array([(0.5, 0.5), (0.5, 0.0), (0.0, 0.5), (0.0, 0.0)])[rng.integers(0, 4, n)]
        P = rng.integers(S.min(axis=0) - 3, S.max(axis=0) + 4, (n, 2)) + half
        return P[~(P[:, None] == S).all(axis=2).any(axis=1)], S
    if family == 3:
        # heavy duplicates: a few distinct candidates, each many times
        base = rng.uniform(0.0, 10.0, (int(rng.integers(3, 16)), 2))
        return rng.uniform(0.0, 10.0, (n, 2)), base[rng.integers(0, len(base), m)]
    # all candidates coincide, so M = 0
    return rng.uniform(1.0, 10.0, (n, 2)), np.full((m, 2), 0.5)


def test_truncated_table_answers_like_the_complete_one():
    # preprocess's table holds each row's nearest cell, and whole rows
    # only where filled; cells at or beyond the largest tree edge M may
    # stay unsettled.  No decision, search or assembly can tell
    rng = np.random.default_rng(1804)
    unsettled = 0
    for trial in range(60):
        family = trial % 5
        P, S = truncation_instance(rng, family)
        ctx = preprocess(P, S)
        ref = SolverContext(ctx.P, ctx.S, ctx.emst, yao_bruteforce(ctx.P, ctx.S))
        yao, full, thresholds = ctx.yao, ref.yao, ctx.emst.thresholds
        assert yao.limit == thresholds[-1] and full.limit == np.inf
        same = (yao.best_w == full.best_w) & (yao.best_s == full.best_s)
        empty = (yao.best_w == np.inf) & (yao.best_s == len(S))
        at_min = full.best_w == full.best_w.min(axis=1)[:, None]
        # every row's minimum is exact, and a full row is exact below M
        exact = at_min | (yao.full[:, None] & (full.best_w < yao.limit))
        assert same[exact].all() and (same | empty).all()
        unsettled += int(np.count_nonzero(~same))

        positive = thresholds[thresholds > 0]
        for t in [*positive, *np.nextafter(positive, np.inf), np.nextafter(0.0, 1.0), np.inf]:
            assert compare_to_optimal(ctx, t) == compare_to_optimal(ref, t)
        ell = binary_search_threshold(ctx)
        assert ell == binary_search_threshold(ref)
        lam = threshold_value(ctx.emst, ell)
        lab = forest_components(ctx.emst, lam)
        for j in compare_to_optimal(ctx, lam):
            a = build_tree_for_component(ctx, lab, j)
            b = build_tree_for_component(ref, lab, j)
            assert np.array_equal(a.external_edges, b.external_edges)
            assert a.bottleneck == b.bottleneck
        if family == 1:
            assert solve(P, S).lambda_star == brute_force_optimum(P, S)[0]
    assert unsettled > 0


def complete_table_pipeline(P, S):
    """The answer through the brute-force cone table: (tree, index, component, candidate count)."""
    ctx = preprocess(P, S)
    ctx = SolverContext(ctx.P, ctx.S, ctx.emst, yao_bruteforce(ctx.P, ctx.S))
    ell = binary_search_threshold(ctx)
    lab = forest_components(ctx.emst, threshold_value(ctx.emst, ell))
    J = candidate_components(ctx, lab)
    tree, j = min(
        ((build_tree_for_component(ctx, lab, j), j) for j in sorted(J)),
        key=lambda tj: tj[0].bottleneck,
    )
    return tree, ell, j, len(J)


def lazy_table_instance(rng, family, n, m):
    """An instance of one of six families (0-5), terminals off the candidates."""
    if family == 0:
        # tiny random sets
        P, S = rng.uniform(0.0, 10.0, (n, 2)), rng.uniform(0.0, 10.0, (m, 2))
    elif family == 1:
        # an integer lattice with duplicate candidates
        S = rng.integers(0, 6, (m, 2)).astype(float)
        P = rng.integers(-2, 8, (n, 2)).astype(float)
    elif family == 2:
        # half-integer terminals over a whole lattice: the nearest candidates
        # of every terminal tie, so every row it reads is filled
        a, b = rng.integers(2, 9, 2)
        S = np.argwhere(np.ones((a, b))).astype(float)
        S = S[rng.integers(0, len(S), max(m, len(S)))] if m > len(S) else S
        P = np.column_stack((rng.integers(0, a - 1, n), rng.integers(0, b - 1, n))) + 0.5
    elif family == 3:
        # one line through the origin, with integer steps for the candidates
        # and half-integer steps for the terminals
        d = rng.integers(-3, 4, 2)
        d = d if d.any() else np.array([1, 0])
        S = rng.integers(-20, 21, m)[:, None] * d.astype(float)
        P = (rng.integers(-20, 21, n) + 0.5)[:, None] * d
    elif family == 4:
        # clusters of both sets around a few centres
        c = rng.uniform(0.0, 100.0, (int(rng.integers(1, 5)), 2))
        S = c[rng.integers(0, len(c), m)] + rng.normal(0.0, 1.0, (m, 2))
        P = c[rng.integers(0, len(c), n)] + rng.normal(0.0, 1.0, (n, 2))
    else:
        # terminals ring a disc of candidates
        r, t = np.sqrt(rng.uniform(0.0, 1.0, m)), rng.uniform(0.0, 2.0 * np.pi, m)
        S = np.column_stack((r * np.cos(t), r * np.sin(t)))
        t = rng.uniform(0.0, 2.0 * np.pi, n)
        P = rng.uniform(1.05, 1.3, n)[:, None] * np.column_stack((np.cos(t), np.sin(t)))
    return P[~(P[:, None] == S).all(axis=2).any(axis=1)], S


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 5), st.integers(0, 2**32 - 1), st.booleans())
def test_solve_equals_the_complete_table_pipeline(family, seed, small):
    # solve fills only the rows of the cone table that its answer reads;
    # the answer must not tell
    rng = np.random.default_rng(seed)
    top = 8 if small else 100
    P, S = lazy_table_instance(rng, family, int(rng.integers(1, top + 1)), int(rng.integers(1, top + 1)))
    if len(P) == 0:
        return
    r = solve(P, S)
    tree, ell, j, count = complete_table_pipeline(P, S)
    assert (r.lambda_star, r.threshold_index, r.chosen_component, r.candidate_count) == (
        tree.bottleneck, ell, j, count,
    )
    for name in ("component_vertices", "skeleton_edges", "external_edges"):
        assert np.array_equal(getattr(r.tree, name), getattr(tree, name))
    validate_full_steiner_tree(r.tree)
    if small:
        assert r.lambda_star == brute_force_optimum(P, S)[0]


def count_filled_rows(monkeypatch):
    """Row counts of every fill of a cone table, appended as they happen."""
    filled = []
    fill = yao._Filler.fill

    def counted(self, graph, rows):
        filled.append(len(rows))
        return fill(self, graph, rows)

    monkeypatch.setattr(yao._Filler, "fill", counted)
    return filled


def test_solve_fills_few_rows(monkeypatch):
    filled = count_filled_rows(monkeypatch)
    # on 2**12 uniform terminals and candidates a few rows decide the
    # answer: 0-8 on seeds 0-7; the eager table filled all 4 096
    solve(*gen_random_instance(1 << 12, 1 << 12, 1000.0, seed=7))
    assert sum(filled) <= 64
    # terminals ringing a disc of candidates: the second-nearest candidate
    # of every terminal lies beyond the tree's largest edge, so the nearest
    # one settles the row
    rng = np.random.default_rng(24)
    r, t = 1000.0 * np.sqrt(rng.uniform(0.0, 1.0, 1 << 12)), rng.uniform(0.0, 2.0 * np.pi, 1 << 12)
    S = np.column_stack((r * np.cos(t), r * np.sin(t)))
    r, t = rng.uniform(1010.0, 1200.0, 1 << 11), rng.uniform(0.0, 2.0 * np.pi, 1 << 11)
    del filled[:]
    solve(np.column_stack((r * np.cos(t), r * np.sin(t))), S)
    assert filled == []


def test_peak_memory_of_the_solves_cone_table_stays_bounded():
    # at n = m = 2**14 the solve's table takes one k = 2 round: it peaks
    # near 4.6 MiB, the table and the k-d tree included; filling every row
    # with the k = 32 round peaks near 10.6 MiB
    P, S = gen_random_instance(1 << 14, 1 << 14, 1000.0, seed=312)
    limit = euclidean_mst(S).thresholds[-1]
    yao_bipartite(P[:10], S[:10], limit)
    tracemalloc.start()
    try:
        yao_bipartite(P, S, limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def spy_round(monkeypatch, before=None):
    """Record the thread of each k = 2 round `preprocess` starts; `before`,
    if given, runs first on that thread."""
    real, threads = solver.nearest_cells, []

    def spy(P, S):
        threads.append(threading.get_ident())
        if before is not None:
            before()
        return real(P, S)

    monkeypatch.setattr(solver, "nearest_cells", spy)
    return threads


def split_instances(rng):
    """Small uniform, blob- and hull-shaped instances, then the edge cases."""
    for _ in range(4):
        n, m = (int(x) for x in rng.integers(1, 200, 2))
        yield gen_random_instance(n, m, 100.0, seed=int(rng.integers(1 << 31)))
        yield blob_shaped(rng, n, m + 1)
        yield lazy_table_instance(rng, 5, n, m)  # terminals ring a disc of candidates
    yield [(3.0, 4.0), (-1.0, 0.5)], [(0.0, 0.0)]  # m = 1: no tree edge, M = inf
    yield [(3.0, 4.0), (-1.0, 0.5)], [(1.0, 1.0)] * 5  # every candidate the same point: M = 0.0
    yield [(0.5, 0.25)], rng.uniform(0.0, 10.0, (50, 2))  # n = 1
    # the first terminal's three nearest candidates tie, in three cones
    yield [(0.5, 0.5), (3.0, 0.25)], [(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (5.0, 5.0)]


def test_preprocess_builds_the_table_of_yao_bipartite_at_the_trees_limit(monkeypatch):
    # the k = 2 round runs on the helper before M is known, and the limit
    # is applied after it: the table equals the one-call construction
    # cell for cell, and so do the rows it marks full
    threads = spy_round(monkeypatch)
    rng = np.random.default_rng(28)
    limits, retired = [], 0
    for P, S in split_instances(rng):
        ctx = preprocess(P, S)
        thresholds = ctx.emst.thresholds
        limit = thresholds[-1] if len(thresholds) else np.inf
        got, want = ctx.yao, yao_bipartite(ctx.P, ctx.S, limit)
        assert got.limit == want.limit == limit
        for name in ("best_w", "best_s", "full"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        # and both are exact: each row's minimum, and a full row below M
        bf = yao_bruteforce(ctx.P, ctx.S)
        same = (got.best_w == bf.best_w) & (got.best_s == bf.best_s)
        at_min = bf.best_w == row_min(bf.best_w)[:, None]
        assert same[at_min | (got.full[:, None] & (bf.best_w < limit))].all()
        # a full row's cell that reads empty but holds a candidate was retired
        retired += int(np.count_nonzero(got.full[:, None] & ~same))
        limits.append(limit)
    assert len(threads) == len(limits) and threading.get_ident() not in threads
    assert retired > 0
    assert limits[-4:-2] == [np.inf, 0.0]
    # the tied row settled nothing in the round, and was filled at once
    assert ctx.yao.full[0] and np.count_nonzero(ctx.yao.best_w[0] == 0.5) == 3


def test_an_error_in_the_round_reaches_the_caller_unchanged(monkeypatch):
    error = RuntimeError("raised in the round")

    def fail():
        raise error

    threads = spy_round(monkeypatch, before=fail)
    with pytest.raises(RuntimeError) as info:
        solve(*gen_random_instance(20, 30, 100.0, seed=1))
    assert info.value is error
    assert len(threads) == 1 and threads[0] != threading.get_ident()


def test_an_error_in_the_tree_still_waits_for_the_round(monkeypatch):
    events = []
    error = RuntimeError("raised in the tree")

    def fail(S):
        events.append("tree")
        raise error

    real = solver.nearest_cells

    def slow_round(P, S):
        time.sleep(0.2)
        out = real(P, S)
        events.append("round")
        return out

    monkeypatch.setattr(solver, "nearest_cells", slow_round)
    monkeypatch.setattr(solver, "euclidean_mst", fail)
    with pytest.raises(RuntimeError) as info:
        solve(*gen_random_instance(20, 30, 100.0, seed=1))
    events.append("raised")
    assert info.value is error
    assert events == ["tree", "round", "raised"]


def test_concurrent_solves_get_exact_answers(monkeypatch):
    # Four callers solve at once under a tiny switch interval, on a fresh
    # helper: their rounds and their Delaunay blocks (at most 16 points)
    # queue on the one helper thread, and each caller gets the exact answer.
    monkeypatch.setattr(emst, "_DT_BLOCK", 16)
    monkeypatch.setattr(emst, "_helper", emst._helper)
    emst._new_helper()
    rng = np.random.default_rng(30)
    cases = [gen_random_instance(8, int(rng.integers(20, 60)), 100.0, seed=i) for i in range(4)]
    want = [brute_force_optimum(P, S)[0] for P, S in cases]
    got = {}

    def run(i):
        got[i] = [solve(*cases[i]).lambda_star for _ in range(5)]

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
    assert got == {i: [want[i]] * 5 for i in range(4)}


def _solve_in_child(P, S, conn):
    conn.send(solve(P, S).lambda_star)
    conn.close()


def test_forked_child_solves_exactly(monkeypatch):
    # The parent has used the helper before the fork; the child's rounds
    # and blocks go to a helper of its own.
    monkeypatch.setattr(emst, "_DT_BLOCK", 16)
    P, S = gen_random_instance(8, 40, 100.0, seed=31)
    want = brute_force_optimum(P, S)[0]
    assert solve(P, S).lambda_star == want
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_solve_in_child, args=(P, S, send))
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
