import numpy as np
import pytest

from bsteiner.decision import compare_to_optimal
from bsteiner.generators import gen_maxgap_instance, gen_random_instance
from bsteiner.geometry import squared_distance_matrix
from bsteiner.oracle import _Prepared, brute_force_optimum, feasible
from bsteiner.solver import preprocess, validate_full_steiner_tree

COLLINEAR_S = [(0, 0), (1, 0), (2, 0)]
COLLINEAR_P = [(-1, 0), (3, 0)]


def test_feasible_examples():
    # non-strict: the optimum itself is feasible
    w = feasible(COLLINEAR_P, COLLINEAR_S, 1.0)
    assert w is not None
    assert w.members.tolist() == [0, 1, 2]
    assert feasible(COLLINEAR_P, COLLINEAR_S, 0.81) is None
    pts = np.array(COLLINEAR_P + COLLINEAR_S)
    lam = squared_distance_matrix(pts, pts).max()
    assert feasible(COLLINEAR_P, COLLINEAR_S, float(lam)) is not None


def test_feasible_witness_is_valid():
    rng = np.random.default_rng(20)
    for _ in range(30):
        n = int(rng.integers(1, 15))
        m = int(rng.integers(1, 15))
        P, S = gen_random_instance(n, m, 30.0, seed=int(rng.integers(1 << 31)))
        lam = float(rng.uniform(1.0, 2000.0))
        w = feasible(P, S, lam)
        if w is None:
            continue
        d = squared_distance_matrix(P, S)
        for i, s in enumerate(w.attachment.tolist()):
            assert s in set(w.members.tolist())
            assert d[i, s] <= lam
        # members form one component of the threshold graph on S
        dss = squared_distance_matrix(S, S)
        members = set(w.members.tolist())
        for a in members:
            reach = {a}
            frontier = [a]
            while frontier:
                x = frontier.pop()
                for y in range(m):
                    if y not in reach and dss[x, y] <= lam:
                        reach.add(y)
                        frontier.append(y)
            assert reach == members
            break


def test_optimum_examples():
    lam, _ = brute_force_optimum([(1, 0)], [(0, 0)])
    assert lam == 1.0
    lam, _ = brute_force_optimum(COLLINEAR_P, COLLINEAR_S)
    assert lam == 1.0
    inst = gen_maxgap_instance([0, 1, 5, 6], 4, seed=0)
    lam, _ = brute_force_optimum(inst.P, inst.S)
    assert lam == 16.0  # squared length of the largest gap


def test_optimum_is_a_candidate_and_witness_tight():
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(1, 20))
        m = int(rng.integers(1, 20))
        P, S = gen_random_instance(n, m, 40.0, seed=int(rng.integers(1 << 31)))
        lam, tree = brute_force_optimum(P, S)
        prep = _Prepared(P, S)
        candidates = np.concatenate((prep.dps.ravel(), prep.pair_w))
        assert lam in candidates
        validate_full_steiner_tree(tree)
        assert tree.bottleneck == lam


def test_monotone_feasibility():
    rng = np.random.default_rng(22)
    for _ in range(25):
        n = int(rng.integers(1, 12))
        m = int(rng.integers(1, 12))
        P, S = gen_random_instance(n, m, 30.0, seed=int(rng.integers(1 << 31)))
        lam, _ = brute_force_optimum(P, S)
        for f in (0.5, 0.999999, 1.0, 1.5, 4.0):
            got = feasible(P, S, lam * f) is not None
            assert got == (f >= 1.0)


def test_decision_consistency_sweep():
    # strict decision vs non-strict oracle around every realized distance
    rng = np.random.default_rng(23)
    for _ in range(12):
        n = int(rng.integers(1, 10))
        m = int(rng.integers(1, 10))
        P, S = gen_random_instance(n, m, 20.0, seed=int(rng.integers(1 << 31)))
        ctx = preprocess(P, S)
        lam_star, _ = brute_force_optimum(P, S)
        prep = _Prepared(P, S)
        for c in np.unique(np.concatenate((prep.dps.ravel(), prep.pair_w))):
            for lam in (c * (1 - 1e-9), float(c), c * (1 + 1e-9)):
                if not lam > 0:
                    continue
                assert bool(compare_to_optimal(ctx, lam)) == (lam_star < lam)


def test_empty_inputs_rejected():
    with pytest.raises(ValueError):
        feasible([], [(0, 0)], 1.0)
    with pytest.raises(ValueError):
        brute_force_optimum([(0, 0)], [])


def test_overlapping_inputs_rejected():
    with pytest.raises(ValueError, match="disjoint"):
        feasible([(1, 1)], [(0, 0), (1, 1)], 4.0)
    with pytest.raises(ValueError, match="disjoint"):
        brute_force_optimum([(0, 0), (2, 0)], [(2, 0)])
