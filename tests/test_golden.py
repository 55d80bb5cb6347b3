"""Golden outputs: SHA-256 digests of `solve`, `euclidean_mst` and
`yao_bipartite` on seeded instances, pinned from a known-good build.

Any change to a weight, an index, a dtype or an order shows up as a
changed digest, so a refactor that claims identical outputs must leave
every digest as it is.  The families cover the inputs planar geometry
invites: uniform sets, half-integer lattices with duplicate candidates
and -0.0, lines at 60 and 120 degrees, 1e-12 near-duplicates, terminals
ringing a candidate disc, and a terminal blob inside dense candidates.
24 of the 39 sets leave cones open after the kNN round and its emptiness
proof, so the batched exact cone search runs on them.
"""

import hashlib

import numpy as np
import pytest

from bsteiner.emst import euclidean_mst
from bsteiner.generators import gen_random_instance
from bsteiner.solver import solve
from bsteiner.yao import yao_bipartite


def _disc(rng, k, r0, r1, center=(0.0, 0.0)):
    r = np.sqrt(rng.uniform(r0 * r0, r1 * r1, k))
    t = rng.uniform(0.0, 2.0 * np.pi, k)
    return np.column_stack((center[0] + r * np.cos(t), center[1] + r * np.sin(t)))


def uniform(n, m, seed):
    return gen_random_instance(n, m, 1000.0, seed=seed)


def lattice(n, m, seed):
    rng = np.random.default_rng(seed)
    S = rng.integers(-6, 7, (m, 2)) / 2.0
    S[rng.random((m, 2)) < 0.5] *= -1.0  # -0.0 where a coordinate is 0
    P = rng.integers(-7, 8, (n, 2)) / 2.0 + 0.25
    return P, S


def line(degrees):
    def make(n, m, seed):
        rng = np.random.default_rng(seed)
        a = np.radians(degrees)
        t = rng.permutation(m).astype(np.float64)[:, None]
        S = t * np.array([np.cos(a), np.sin(a)]) * 1.7
        P = rng.uniform(-0.3 * m, 1.3 * m, (n, 2))
        return P, S

    return make


def near_duplicates(n, m, seed):
    rng = np.random.default_rng(seed)
    P, S = gen_random_instance(n, m, 1000.0, seed=seed)
    k = max(1, m // 10)
    S[rng.integers(0, m, k)] = S[rng.integers(0, m, k)] + 1e-12
    return P, S


def hull(n, m, seed):
    rng = np.random.default_rng(seed)
    S = _disc(rng, m, 0.0, 1000.0)
    return _disc(rng, n, 1010.0, 1200.0), S


def blob(n, m, seed):
    rng = np.random.default_rng(seed)
    P = _disc(rng, n, 0.0, 48.0, (500.0, 500.0))
    near = _disc(rng, m // 2, 0.0, 60.0, (500.0, 500.0))
    far = rng.uniform(0.0, 1000.0, (m - m // 2, 2))
    return P, np.concatenate((near, far))


FAMILIES = {
    "uniform": (uniform, [(1, 1), (3, 2), (40, 60), (300, 300), (100, 900), (700, 600), (5, 1500), (2000, 2000)]),
    "lattice": (lattice, [(1, 1), (4, 6), (30, 50), (60, 200), (200, 700), (20, 1200), (3, 2)]),
    "line60": (line(60), [(2, 3), (20, 80), (100, 600), (50, 1024), (1, 2)]),
    "line120": (line(120), [(2, 3), (20, 80), (100, 600), (50, 1024)]),
    "near_dup": (near_duplicates, [(10, 20), (50, 200), (200, 600), (40, 900), (100, 2000)]),
    "hull": (hull, [(5, 10), (40, 60), (100, 600), (300, 900), (60, 1500)]),
    "blob": (blob, [(10, 30), (50, 200), (200, 700), (400, 1200), (1000, 3000)]),
}

CASES = [
    (f"{family}-{n}x{m}", make, n, m, seed)
    for family, (make, sizes) in FAMILIES.items()
    for seed, (n, m) in enumerate(sizes, start=7)
]


def _update(h, *arrays):
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())


def digests(P, S) -> tuple[str, str, str]:
    """Digests of the solve report and tree, the EMST, and the Yao graph."""
    r = solve(P, S)
    t = r.tree
    h_solve = hashlib.sha256()
    _update(
        h_solve,
        np.float64(r.lambda_star),
        np.int64(r.threshold_index),
        np.int64(r.chosen_component),
        np.int64(r.candidate_count),
        t.component_vertices,
        t.skeleton_edges,
        t.external_edges,
    )
    e = euclidean_mst(S)
    h_emst = hashlib.sha256()
    _update(h_emst, np.int64(e.point_count), e.edge_u, e.edge_v, e.edge_w, e.thresholds)
    g = yao_bipartite(P, S)
    h_yao = hashlib.sha256()
    _update(h_yao, np.int64(g.candidate_count), g.p_idx, g.s_idx, g.cone, g.w)
    return tuple(h.hexdigest()[:16] for h in (h_solve, h_emst, h_yao))


GOLDEN = {
    "uniform-1x1": ("d3a842e79e489438", "80832152271a027e", "8f12ff44870a5986"),
    "uniform-3x2": ("18e9166ac0d7aa29", "ea265d99e719c904", "7a2416269d87ec22"),
    "uniform-40x60": ("a8535157ee76fa06", "075d6363ca10cda6", "97c3b77871670786"),
    "uniform-300x300": ("189c7a4136fe4d74", "a2e75d2c28c427a5", "8bc306b0b9b5c7cf"),
    "uniform-100x900": ("6cedd081144b1ae0", "9943f9a3701854b5", "d3a321f621f34fb5"),
    "uniform-700x600": ("d460dda809ecc9c4", "981d696005e587f8", "e3ecb9e3493bdcb5"),
    "uniform-5x1500": ("18c609d4ac44727c", "4e78b9a805736337", "39bea94b4d4c8c70"),
    "uniform-2000x2000": ("52081d3b67808084", "91bf2765cf8401d0", "5f89a5446f123aaa"),
    "lattice-1x1": ("840ee4412616ab18", "80832152271a027e", "b4acaac84411f56e"),
    "lattice-4x6": ("8b879cbae68c2eb3", "306eb3bfff4a087e", "47b1e298b4a8721e"),
    "lattice-30x50": ("35dd2c5b328f7ff2", "b0c5233f0b9ed9d9", "a684eec2ef40fbb3"),
    "lattice-60x200": ("da86a921074db157", "1bee77b3fb44db24", "34b83da392f864ce"),
    "lattice-200x700": ("96c6eaa7a5e1df3a", "314e8e7e4370afc4", "d67b1a18765a988b"),
    "lattice-20x1200": ("82b50f4c740128fa", "01578561803e9165", "1ddebe8dfc81ddcc"),
    "lattice-3x2": ("538bbf31838e26c6", "4aed24fe3dc133dd", "690f1d8c2f2a2429"),
    "line60-2x3": ("3e08e4b1bfcce20d", "35e3e815496a3059", "376a7bfaab28eee2"),
    "line60-20x80": ("69c674ed2f057b5c", "f754774a70ca44f6", "9ccf7231ef51442a"),
    "line60-100x600": ("97382f7126a868bc", "b390508392003fc8", "69e120626cd207cb"),
    "line60-50x1024": ("4412de6d2aab0263", "2d8a51ed31c5f7ec", "06c97abe49074f0d"),
    "line60-1x2": ("f2cb5dd51edbecbe", "e1fa11db058dfc16", "8e5436cc0a8c8905"),
    "line120-2x3": ("927aadf5ba94fd64", "503e44653703f83b", "6ab4d50e5aa6298b"),
    "line120-20x80": ("e406049a949f8f2c", "409618bf914b4073", "1474c704a768b50c"),
    "line120-100x600": ("89bfaba28b8d513a", "627f6a043f694e3d", "8a8b7a6ba6b97007"),
    "line120-50x1024": ("8b4cd4907a4fa7d7", "b2c90d922471889f", "51d681a3b26fb52f"),
    "near_dup-10x20": ("30104560f6cc2932", "8454cb7613d9ef45", "40ced1e3235003cd"),
    "near_dup-50x200": ("fb5d95e4111f1582", "d167f6a2271703fc", "297d02dc8685520b"),
    "near_dup-200x600": ("75eebab4babd8afc", "899949d0f7c7e52f", "471877c882e247d0"),
    "near_dup-40x900": ("905d0cfac94192ae", "43acbb815d2fc5d6", "b32f9916d196ad69"),
    "near_dup-100x2000": ("c24418983171c116", "8c0cde12775e2769", "67ac44a5953261d4"),
    "hull-5x10": ("21600605d00eeb4c", "966842a98cd92d14", "5daac3078265aa18"),
    "hull-40x60": ("064c6302881ba1c9", "1c09fd59c35fe894", "fbca5dc84865a714"),
    "hull-100x600": ("5e3af3efb286d349", "46cef86f44eddc88", "3c2f6318fc09f5f9"),
    "hull-300x900": ("80aeed0569a1bf74", "e1aa593101a6269d", "69f335af51e6d26b"),
    "hull-60x1500": ("396c26db0d311f23", "09837bef73cdab3e", "35b3a513ab6223ce"),
    "blob-10x30": ("c70f37721acbe31a", "dce77da7b7057c57", "c426954bc53ff8d7"),
    "blob-50x200": ("a3b5b6578033d5c2", "8d3a670c5df007b2", "259c22175094afe0"),
    "blob-200x700": ("a6ca2bd8b544f5e7", "3ad8a16c27cb290f", "7f95dc1363de6afa"),
    "blob-400x1200": ("fa47214567747d62", "25458ad57ad630f8", "8d9468a3d92d3d4b"),
    "blob-1000x3000": ("cd29754fc789cce2", "5b73145dd3e72268", "edc015f756f2c40d"),
}


@pytest.mark.parametrize("name, make, n, m, seed", CASES, ids=[c[0] for c in CASES])
def test_golden_digests(name, make, n, m, seed):
    assert digests(*make(n, m, seed)) == GOLDEN[name]
