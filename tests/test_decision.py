import numpy as np
import pytest

from bsteiner.decision import compare_to_optimal, forest_components, tree_bottlenecks
from bsteiner.emst import euclidean_mst
from bsteiner.oracle import brute_force_optimum
from bsteiner.generators import gen_random_instance
from bsteiner.solver import build_tree_for_component, preprocess

COLLINEAR_S = [(0, 0), (1, 0), (2, 0)]
COLLINEAR_P = [(-1, 0), (3, 0)]


def test_forest_components_examples():
    emst = euclidean_mst(COLLINEAR_S)
    assert forest_components(emst, 2.25).component_count == 1
    lab = forest_components(emst, 1.0)  # edges of weight exactly 1 are removed
    assert lab.component_count == 3
    assert lab.label.tolist() == [0, 1, 2]
    assert forest_components(emst, np.inf).component_count == 1


def test_forest_components_rejects_nonpositive():
    emst = euclidean_mst(COLLINEAR_S)
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="positive"):
            forest_components(emst, bad)


def test_labels_contiguous_and_refining():
    rng = np.random.default_rng(42)
    S = rng.uniform(0, 50, (80, 2))
    emst = euclidean_mst(S)
    thresholds = [0.5, 2.0, 10.0, 50.0, np.inf]
    labelings = [forest_components(emst, t) for t in thresholds]
    for lab in labelings:
        assert set(lab.label.tolist()) == set(range(lab.component_count))
        # ids follow first occurrence, the order chosen_component reports
        _, first = np.unique(lab.label, return_index=True)
        assert np.all(np.diff(first) > 0)
    for fine, coarse in zip(labelings, labelings[1:]):
        # same fine label -> same coarse label
        mapping = {}
        for f, c in zip(fine.label.tolist(), coarse.label.tolist()):
            assert mapping.setdefault(f, c) == c


def test_compare_to_optimal_examples():
    ctx = preprocess(COLLINEAR_P, COLLINEAR_S)
    assert compare_to_optimal(ctx, 2.25) == frozenset({0})
    assert compare_to_optimal(ctx, 1.0) == frozenset()
    assert compare_to_optimal(ctx, np.inf) != frozenset()


def brute_candidate_set(ctx, lam):
    """Set comprehension straight from the definition."""
    lab = forest_components(ctx.emst, lam)
    J = set()
    for j in range(lab.component_count):
        ok = True
        for i in range(len(ctx.P)):
            hits = [
                s
                for s, _, w in ctx.yao.edges_of(i)
                if lab.label[s] == j and w < lam
            ]
            if not hits:
                ok = False
                break
        if ok:
            J.add(j)
    return frozenset(J)


@pytest.mark.parametrize("seed", range(4))
def test_matches_definitional_set(seed):
    rng = np.random.default_rng(500 + seed)
    for _ in range(10):
        n = int(rng.integers(1, 15))
        m = int(rng.integers(1, 15))
        P, S = gen_random_instance(n, m, 20.0, seed=int(rng.integers(1 << 31)))
        ctx = preprocess(P, S)
        for lam in [0.5, 2.0, 17.0, 200.0, np.inf]:
            assert compare_to_optimal(ctx, lam) == brute_candidate_set(ctx, lam)


def test_nonempty_implies_optimum_below():
    rng = np.random.default_rng(600)
    for _ in range(40):
        n = int(rng.integers(1, 16))
        m = int(rng.integers(1, 16))
        P, S = gen_random_instance(n, m, 20.0, seed=int(rng.integers(1 << 31)))
        ctx = preprocess(P, S)
        lam_star, _ = brute_force_optimum(P, S)
        for lam in [lam_star * 0.9, lam_star, lam_star * 1.1, lam_star * 3, np.inf]:
            if not lam > 0:
                continue
            J = compare_to_optimal(ctx, lam)
            assert bool(J) == (lam_star < lam)


def test_feasible_component_carries_cheap_tree():
    # whenever the optimum is below the threshold, some candidate component
    # admits a tree whose external edges stay within the optimum
    rng = np.random.default_rng(601)
    for _ in range(30):
        n = int(rng.integers(1, 14))
        m = int(rng.integers(2, 14))
        P, S = gen_random_instance(n, m, 20.0, seed=int(rng.integers(1 << 31)))
        ctx = preprocess(P, S)
        lam_star, _ = brute_force_optimum(P, S)
        lam = lam_star * 1.25
        lab = forest_components(ctx.emst, lam)
        J = compare_to_optimal(ctx, lam)
        assert J
        best_ext = np.inf
        for j in J:
            tree = build_tree_for_component(ctx, lab, j, lam)
            ext_w = [
                float(
                    (P[i, 0] - S[s, 0]) ** 2 + (P[i, 1] - S[s, 1]) ** 2
                )
                for i, s in enumerate(tree.external_edges.tolist())
            ]
            best_ext = min(best_ext, max(ext_w))
        assert best_ext <= lam_star


def test_monotone_in_threshold():
    rng = np.random.default_rng(602)
    for _ in range(25):
        n = int(rng.integers(1, 12))
        m = int(rng.integers(1, 12))
        P, S = gen_random_instance(n, m, 20.0, seed=int(rng.integers(1 << 31)))
        ctx = preprocess(P, S)
        lams = np.sort(rng.uniform(0.01, 900.0, 8))
        seen_nonempty = False
        for lam in lams:
            nonempty = bool(compare_to_optimal(ctx, float(lam)))
            if seen_nonempty:
                assert nonempty
            seen_nonempty = seen_nonempty or nonempty


def test_candidate_set_small():
    rng = np.random.default_rng(603)
    for _ in range(25):
        n = int(rng.integers(1, 20))
        m = int(rng.integers(1, 60))
        P, S = gen_random_instance(n, m, 30.0, seed=int(rng.integers(1 << 31)))
        ctx = preprocess(P, S)
        for lam in rng.uniform(0.01, 2000.0, 6):
            assert len(compare_to_optimal(ctx, float(lam))) <= 6


def bottleneck_families(rng):
    """Small candidate sets on which path maxima meet ties and degeneracy."""
    yield "m=1", np.array([[3.0, -2.0]])
    yield "m=2", np.array([[0.0, 0.0], [1.5, -2.0]])
    m = int(rng.integers(3, 40))
    # half-integer lattice with repeats: zero thresholds come first
    yield "lattice", rng.integers(-4, 5, (m, 2)) / 2.0
    t = rng.integers(-6, 7, m)
    yield "collinear", np.column_stack((t, 2 * t)).astype(float)
    # integer points on x^2 + y^2 = 5525, which has 48 of them
    r = np.arange(-74, 75)
    x, y = np.meshgrid(r, r)
    on = x * x + y * y == 5525
    circle = np.column_stack((x[on], y[on])).astype(float)
    yield "cocircular", circle[rng.choice(len(circle), min(m, len(circle)), replace=False)]
    yield "uniform", rng.uniform(-50.0, 50.0, (m, 2))


def test_tree_bottlenecks_match_the_labeling():
    # B[s] < lam exactly when s shares root's component at lam, at every
    # positive threshold, just above each, and at infinity, from every root
    rng = np.random.default_rng(1961)
    seen = set()
    for _ in range(6):
        for family, S in bottleneck_families(rng):
            seen.add(family)
            emst = euclidean_mst(S)
            m = emst.point_count
            th = emst.thresholds[emst.thresholds > 0]
            lams = np.concatenate((th, np.nextafter(th, np.inf), [np.inf]))
            labels = [forest_components(emst, float(lam)).label for lam in lams]
            for root in range(m):
                b = tree_bottlenecks(emst, root)
                assert b.shape == (m,) and b[root] == 0.0
                assert set(b.tolist()) <= set(emst.edge_w.tolist()) | {0.0}
                for lam, label in zip(lams, labels):
                    assert np.array_equal(b < lam, label == label[root])
    assert seen == {"m=1", "m=2", "lattice", "collinear", "cocircular", "uniform"}
