import math

import numpy as np
import pytest

from bsteiner.generators import (
    gen_maxgap_instance,
    gen_membership_instance,
    gen_random_instance,
    verify_membership,
)
from bsteiner.geometry import max_gap, points_as_complex
from bsteiner.solver import solve


def test_maxgap_example_instance():
    inst = gen_maxgap_instance([0, 1, 5, 6], 4, seed=0)
    assert inst.expected == 4.0
    assert inst.S[:, 0].tolist() == [0, 1, 5, 6]
    assert (inst.S[:, 1] == 0).all()
    assert inst.g == 6.0 / 5.0


def test_maxgap_two_values():
    inst = gen_maxgap_instance([0, 1], 2, seed=3)
    assert inst.expected == 1.0
    r = solve(inst.P, inst.S)
    assert math.sqrt(r.lambda_star) == 1.0


def test_maxgap_layout_invariants():
    rng = np.random.default_rng(30)
    for t in range(30):
        m = int(rng.integers(2, 80))
        n = 2 * int(rng.integers(1, 12))
        values = rng.uniform(-100, 100, m)
        if values.max() == values.min():
            continue
        inst = gen_maxgap_instance(values, n, seed=t)
        lo, hi = values.min(), values.max()
        half = n // 2
        left, right = inst.P[:half], inst.P[half:]
        assert (left[:, 0] < lo).all() and (lo - left[:, 0] <= inst.g / 2).all()
        assert (right[:, 0] > hi).all() and (right[:, 0] - hi <= inst.g / 2).all()
        assert (inst.P[:, 1] == 0).all()
        assert inst.expected == max_gap(values)
        assert inst.expected >= inst.g  # the largest gap is at least the average


def test_maxgap_identity_random():
    rng = np.random.default_rng(31)
    for t in range(25):
        m = int(rng.integers(2, 100))
        values = rng.uniform(0, 1000, m)
        inst = gen_maxgap_instance(values, 10, seed=t)
        r = solve(inst.P, inst.S)
        got = math.sqrt(r.lambda_star)
        assert abs(got - inst.expected) <= 1e-9 * inst.expected


def test_maxgap_errors():
    with pytest.raises(ValueError, match="degenerate"):
        gen_maxgap_instance([2, 2, 2], 4)
    with pytest.raises(ValueError, match="even"):
        gen_maxgap_instance([0, 1], 3)
    with pytest.raises(ValueError, match="even"):
        gen_maxgap_instance([0, 1], 0)
    with pytest.raises(ValueError):
        gen_maxgap_instance([5], 2)


@pytest.mark.parametrize(
    "values",
    [[-1e308, 1e308], [0.0, 1.7e308], [-1.7e308, 0.0], [-1.7e308, 1.0, 2.0]],
    ids=["gap", "right-terminals", "left-terminals", "three-values"],
)
def test_maxgap_rejects_overflow(values):
    # the gap or the terminals' offsets beyond the extremes overflow float64
    with np.errstate(all="raise"), pytest.raises(ValueError, match="overflows"):
        gen_maxgap_instance(values, 4)


def test_maxgap_near_float64_range():
    # gaps that fit float64 but put coordinates past 2**500 fail the instance
    # boundary, without a warning; the widest gaps inside it give finite instances
    with np.errstate(all="raise"), pytest.raises(ValueError, match=r"P\[0\]: coordinate magnitude"):
        gen_maxgap_instance([-8e307, 8e307], 4, seed=5)
    with np.errstate(all="raise"):
        inst = gen_maxgap_instance([-(2.0**499), 2.0**499], 4, seed=5)
    assert np.isfinite([inst.delta, inst.g, inst.expected]).all()
    assert np.isfinite(inst.P).all() and inst.expected == 2.0**500


@pytest.mark.parametrize(
    "values", [[1e-130, 2e-130, 5e-130], [0.0, 5e-324]], ids=["tiny", "gap-underflows"]
)
def test_maxgap_output_passes_the_instance_boundary(values):
    # coordinates below 2**-400, or terminals on the candidates once g rounds to 0
    with pytest.raises(ValueError, match=r"P\[\d\]: coordinate magnitude outside"):
        gen_maxgap_instance(values, 2)


def test_maxgap_deterministic():
    a = gen_maxgap_instance([0, 2, 9], 6, seed=77)
    b = gen_maxgap_instance([0, 2, 9], 6, seed=77)
    assert np.array_equal(a.P, b.P)


def test_membership_example():
    inst = gen_membership_instance((1, 3), 3)
    assert inst.P.tolist() == [[0, 0], [4, 0], [1, 1], [3, 1]]
    assert inst.S.tolist() == [[1, 0], [2, 0], [3, 0]]


def test_membership_output_passes_the_instance_boundary():
    with pytest.raises(ValueError, match=r"P\[2\]: coordinate magnitude outside"):
        gen_membership_instance((1, 2), 3, perturb=(1, (1e-200, 0.5)))


def test_membership_anchors_only():
    inst = gen_membership_instance((), 1)
    assert inst.P.tolist() == [[0, 0], [2, 0]]
    assert inst.S.tolist() == [[1, 0]]
    r = solve(inst.P, inst.S)
    assert verify_membership(r.tree, inst)  # vacuously true


def test_membership_verify_true_false():
    inst = gen_membership_instance((1, 3), 3)
    assert verify_membership(solve(inst.P, inst.S).tree, inst)
    pert = gen_membership_instance((1, 3), 3, perturb=(1, (1.5, 1.0)))
    assert not verify_membership(solve(pert.P, pert.S).tree, pert)


def test_membership_mismatch_rejected():
    a = gen_membership_instance((1, 3), 3)
    b = gen_membership_instance((2, 3), 3)
    tree = solve(a.P, a.S).tree
    with pytest.raises(ValueError, match="instance"):
        verify_membership(tree, b)


def test_membership_errors():
    with pytest.raises(ValueError, match="out of range"):
        gen_membership_instance((0,), 3)
    with pytest.raises(ValueError, match="out of range"):
        gen_membership_instance((4,), 3)
    with pytest.raises(ValueError, match="grid"):
        gen_membership_instance((1, 2), 3, perturb=(2, (3.0, 1.0)))
    with pytest.raises(ValueError, match="candidate"):
        gen_membership_instance((1, 2), 3, perturb=(1, (2.0, 0.0)))
    with pytest.raises(ValueError, match="index"):
        gen_membership_instance((1, 2), 3, perturb=(5, (0.5, 0.5)))


def test_membership_sweep():
    rng = np.random.default_rng(32)
    for _ in range(25):
        m = int(rng.integers(1, 20))
        n = int(rng.integers(0, 20))
        f = tuple(int(x) for x in rng.integers(1, m + 1, n))
        inst = gen_membership_instance(f, m)
        assert verify_membership(solve(inst.P, inst.S).tree, inst)
        if n:
            j = int(rng.integers(1, n + 1))
            off = (float(f[j - 1]) + 0.3 + 0.4 * rng.random(), 1.0)
            pert = gen_membership_instance(f, m, perturb=(j, off))
            assert not verify_membership(solve(pert.P, pert.S).tree, pert)


def test_random_instance_contract():
    P, S = gen_random_instance(1, 1, 10.0, seed=42)
    assert P.shape == (1, 2) and S.shape == (1, 2)
    assert not np.intersect1d(points_as_complex(P), points_as_complex(S)).size
    a = gen_random_instance(40, 40, 100.0, seed=7)
    b = gen_random_instance(40, 40, 100.0, seed=7)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    with pytest.raises(ValueError):
        gen_random_instance(0, 3, 10.0, seed=0)
    with pytest.raises(ValueError):
        gen_random_instance(3, 3, 0.0, seed=0)
