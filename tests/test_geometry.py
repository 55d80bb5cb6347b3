import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsteiner import geometry
from bsteiner.geometry import (
    CONE_ANGLE,
    RAY_STARTS,
    TWO_PI,
    as_points,
    check_disjoint,
    cone_indices_from_deltas,
    isin_sorted,
    max_gap,
    points_as_complex,
    squared_distances,
)

finite_coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_squared_distance_examples():
    assert squared_distances((0, 0), (1, 0)) == 1.0
    assert squared_distances((0, 0), (0, 0)) == 0.0
    assert squared_distances((1, 1), (4, 5)) == 25.0


@given(finite_coord, finite_coord, finite_coord, finite_coord)
def test_squared_distance_symmetry_and_zero(ax, ay, bx, by):
    d = squared_distances((ax, ay), (bx, by))
    assert d == squared_distances((bx, by), (ax, ay))
    assert d >= 0.0
    if (ax, ay) == (bx, by):
        assert d == 0.0


def test_triangle_inequality_sampled():
    rng = np.random.default_rng(0)
    for _ in range(500):
        a, b, c = rng.uniform(-100, 100, (3, 2))
        ab = math.sqrt(squared_distances(a, b))
        bc = math.sqrt(squared_distances(b, c))
        ac = math.sqrt(squared_distances(a, c))
        assert ac <= ab + bc + 1e-9


def python_squared_distance(a, b):
    """The length formula in Python float arithmetic, the reference for the broadcasts."""
    dx = float(a[0]) - float(b[0])
    dy = float(a[1]) - float(b[1])
    return dx * dx + dy * dy


def test_vectorized_distances_match_scalar_bitwise():
    rng = np.random.default_rng(1)
    pts = rng.uniform(-50, 50, (40, 2)) * 2.0 ** rng.integers(-400, 497, (40, 1))
    q = pts[-1]
    rows = squared_distances(pts[:20], pts[20:])
    assert rows.shape == (20,)
    assert all(rows[i] == python_squared_distance(pts[i], pts[20 + i]) for i in range(20))
    vec = squared_distances(pts, q)
    assert vec.shape == (40,)
    assert all(vec[i] == python_squared_distance(pts[i], q) for i in range(len(pts)))
    mat = squared_distances(pts[:7, None], pts[7:19])
    assert mat.shape == (7, 12)
    for i in range(7):
        for j in range(12):
            assert mat[i, j] == python_squared_distance(pts[i], pts[7 + j])
    one = squared_distances(pts[0], q)
    assert np.ndim(one) == 0 and one == python_squared_distance(pts[0], q)
    assert squared_distances(tuple(pts[1]), tuple(q)) == python_squared_distance(pts[1], q)


def test_cone_index_examples():
    assert cone_indices_from_deltas(1.0, 0.0) == 0  # boundary belongs to the lower cone
    assert cone_indices_from_deltas(0.0, 1.0) == 1
    assert cone_indices_from_deltas(-1.0, 0.0) == 3


def test_cone_partition_and_rotation():
    # interior directions: rotating by the cone angle bumps the index mod 6
    rng = np.random.default_rng(2)
    rot = np.array(
        [[math.cos(CONE_ANGLE), -math.sin(CONE_ANGLE)],
         [math.sin(CONE_ANGLE), math.cos(CONE_ANGLE)]]
    )
    for _ in range(300):
        apex = rng.uniform(-10, 10, 2)
        c = int(rng.integers(0, 6))
        ang = (c + rng.uniform(0.01, 0.99)) * CONE_ANGLE
        r = rng.uniform(0.1, 10)
        d = np.array([r * math.cos(ang), r * math.sin(ang)])
        assert cone_indices_from_deltas(*((apex + d) - apex)) == c
        assert cone_indices_from_deltas(*((apex + rot @ d) - apex)) == (c + 1) % 6


def spec_cone(dx, dy):
    """The defining formula of the cone classes, kept as the reference."""
    return (np.arctan2(dy, dx) % TWO_PI) // CONE_ANGLE % 6


def assert_matches_spec(dx, dy):
    got = cone_indices_from_deltas(dx, dy)
    assert got.dtype == np.int64
    want = spec_cone(dx, dy)
    bad = np.flatnonzero(got.ravel() != want.ravel())
    assert bad.size == 0, (np.ravel(dx)[bad[:5]], np.ravel(dy)[bad[:5]])
    return want


def ulp_steps(x, k=64):
    """x and the k floats on either side of it, in order."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return np.array(below[:0:-1] + above)


def test_cone_classes_match_spec_around_rays():
    for j in range(7):
        # perturb the angle itself, and the coordinates of the ray direction
        base = j * CONE_ANGLE
        angles = np.concatenate((ulp_steps(base), ulp_steps(base - TWO_PI), ulp_steps(RAY_STARTS[j - 1])))
        c, s = ulp_steps(math.cos(base)), ulp_steps(math.sin(base))
        grid_x, grid_y = np.meshgrid(c, s)
        for e in (-400, -300, -60, 0, 1, 60, 300, 499):
            r = 2.0**e
            for sign in (1.0, -1.0):
                dx = sign * r * np.concatenate((np.cos(angles), grid_x.ravel()))
                dy = sign * r * np.concatenate((np.sin(angles), grid_y.ravel()))
                want = assert_matches_spec(dx, dy)
                if j < 6:
                    # the sample straddles the ray: both neighbouring cones occur
                    ray = (j + 3 * (sign < 0)) % 6
                    assert {ray, (ray + 5) % 6} <= set(want.tolist())


def test_cone_classes_match_spec_on_zeros_and_round_up():
    z = [0.0, -0.0, 1.0, -1.0, 2.0**-400, -(2.0**-400)]
    dx, dy = (a.ravel() for a in np.meshgrid(z, z))
    assert_matches_spec(dx, dy)
    # tiny negative angles: t + 2*pi rounds up to exactly 2*pi, which is cone 0;
    # atan(y) = y for these y, so the steps around -2**-51 probe t ulp by ulp
    tiny = np.concatenate((-(2.0 ** -np.arange(40.0, 500.0)), ulp_steps(-(2.0**-51))))
    want = assert_matches_spec(np.ones_like(tiny), tiny)
    assert want[0] == 5 and want[-1] == 0 and {0, 5} <= set(want[-129:].tolist())
    for x, y in zip(dx.tolist() + [1.0] * 3, dy.tolist() + tiny[[0, 20, -1]].tolist()):
        assert int(cone_indices_from_deltas(np.float64(x), np.float64(y))) == spec_cone(x, y)


def test_cone_classes_match_spec_on_lattice_lines():
    # differences of a triangular lattice: many deltas along 0, 60 and 120 degrees
    i, j = (a.ravel().astype(np.float64) for a in np.mgrid[-8:9, -8:9])
    for scale in (1.0, 1.7, 2.0**-300, 2.0**300):
        x = scale * (i + j * math.cos(math.pi / 3))
        y = scale * (j * math.sin(math.pi / 3))
        assert_matches_spec(x[:, None] - x[None, :], y[:, None] - y[None, :])
    for a in (0.0, 60.0, 120.0):
        t = np.arange(-500.0, 501.0)
        assert_matches_spec(t * math.cos(math.radians(a)), t * math.sin(math.radians(a)))


def test_cone_classes_match_spec_on_random_deltas():
    rng = np.random.default_rng(11)
    scale = 2.0 ** rng.integers(-400, 500, 10**6)
    assert_matches_spec(rng.normal(size=10**6) * scale, rng.normal(size=10**6) * scale)


def test_cone_of_angle_equals_the_sorted_lookup():
    # the six-comparison count gives the slot a binary search gives
    rng = np.random.default_rng(12)
    bounds = np.concatenate([ulp_steps(b, 4) for b in geometry._T_BOUNDS])
    t = np.concatenate(
        (rng.uniform(-np.pi, np.pi, 10**5), bounds, ulp_steps(np.pi, 4), ulp_steps(-np.pi, 4), [0.0, -0.0])
    )
    t = t[np.abs(t) <= np.pi]
    want = geometry._SLOT_CONE[np.searchsorted(geometry._T_BOUNDS, t, side="right")]
    got = geometry._cone_of_angle(t)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    for x in (np.pi, -np.pi, 0.0, -0.0):
        assert geometry._cone_of_angle(np.float64(x)) == want[t.tolist().index(x)]


def test_same_cone_proximity_inequality():
    # two points in one cone, the nearer one pulls within the farther one's radius
    rng = np.random.default_rng(4)
    for _ in range(500):
        apex = rng.uniform(-10, 10, 2)
        c = int(rng.integers(0, 6))
        a1, a2 = (c + rng.uniform(0.01, 0.99, 2)) * CONE_ANGLE
        r1, r2 = rng.uniform(0.1, 10, 2)
        s = apex + [r1 * math.cos(a1), r1 * math.sin(a1)]
        sp = apex + [r2 * math.cos(a2), r2 * math.sin(a2)]
        if squared_distances(apex, sp) > squared_distances(apex, s):
            s, sp = sp, s
        # |apex sp| <= |apex s|  implies  |s sp| <= |apex s|
        assert squared_distances(s, sp) <= squared_distances(apex, s) * (1 + 1e-12)


def test_max_gap_examples():
    assert max_gap([5]) == 0.0
    assert max_gap([0, 1, 5, 6]) == 4.0
    with pytest.raises(ValueError):
        max_gap([])
    with pytest.raises(ValueError):
        max_gap([1.0, float("nan")])


def sort_and_scan(values):
    s = sorted(values)
    return max((b - a for a, b in zip(s, s[1:])), default=0.0)


def test_max_gap_random_against_sort_and_scan():
    rng = np.random.default_rng(5)
    values = rng.uniform(-1e3, 1e3, 1000)
    assert max_gap(values) == sort_and_scan(values.tolist())


@settings(max_examples=200)
@given(st.lists(finite_coord, min_size=1, max_size=60))
def test_max_gap_matches_oracle(values):
    assert max_gap(values) == sort_and_scan(values)


def test_as_points_validation():
    with pytest.raises(ValueError, match="not finite"):
        as_points([[0, 0], [1, float("inf")]], "P")
    with pytest.raises(ValueError, match="pairs"):
        as_points([[1, 2, 3]], "P")
    assert as_points([]).shape == (0, 2)
    # the coordinate domain: 0, or 2**-400 <= |c| <= 2**500
    edges = [[2.0**500, -(2.0**500)], [2.0**-400, -(2.0**-400)], [0.0, -0.0]]
    assert as_points(edges, "S").tolist() == edges
    for bad in (2.0**501, -(2.0**501), 2.0**-401, -(2.0**-401), 5e-324):
        with pytest.raises(ValueError, match=r"S\[1\]: coordinate magnitude"):
            as_points([[1.0, 1.0], [1.0, bad]], "S")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_isin_sorted_equals_isin(data):
    # a small pool with signed zeros, so keys repeat and meet in both sets
    pool = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, 1e300])
    point = st.tuples(pool, pool)
    a = points_as_complex(np.array(data.draw(st.lists(point, max_size=20)) or np.empty((0, 2))))
    b = points_as_complex(np.array(data.draw(st.lists(point, min_size=1, max_size=20))))
    assert np.array_equal(isin_sorted(a, np.sort(b)), np.isin(a, b))


def test_check_disjoint():
    check_disjoint(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError, match="disjoint"):
        check_disjoint(np.array([[0.0, -0.0]]), np.array([[0.0, 0.0], [2.0, 2.0]]))
    # keys below, between and above the other set's, and shared first or last
    S = np.array([[3.0, 1.0], [1.0, 5.0], [1.0, 2.0]])
    check_disjoint(np.array([[0.0, 9.0], [1.0, 3.0], [3.0, 2.0], [1.0, 2.5]]), S)
    for shared in S:
        P = np.array([[-1.0, 0.0], shared, [7.0, 7.0]])
        with pytest.raises(ValueError, match="disjoint"):
            check_disjoint(P, S)
        with pytest.raises(ValueError, match="disjoint"):
            check_disjoint(S, P)
