"""Acceptance suite: one test per release criterion, each printing a verdict.

Run `pytest tests/test_acceptance.py -v` for the full gate.  The scaling
criterion solves instances up to a million points and takes a few
minutes; everything else finishes in well under two minutes combined.
"""

import math
import time

import numpy as np

from bsteiner.bench import bench, bench_csv
from bsteiner.decision import compare_to_optimal
from bsteiner.emst import euclidean_mst, mst_prim_reference
from bsteiner.generators import (
    gen_maxgap_instance,
    gen_membership_instance,
    gen_random_instance,
    verify_membership,
)
from bsteiner.geometry import squared_distances
from bsteiner.oracle import _Prepared, brute_force_optimum
from bsteiner.solver import preprocess, solve, validate_full_steiner_tree
from bsteiner.yao import same_edges, yao_bipartite, yao_bruteforce

from test_yao import check_graph_invariants


def report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {verdict}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def sized_rng(seed):
    return np.random.default_rng(seed)


def test_criterion_1_oracle_equivalence():
    rng = sized_rng(1001)
    t0 = time.perf_counter()
    mismatches = 0
    total = 1000
    for t in range(total):
        if t < 4:  # pin the extreme corners
            n, m = [(1, 1), (1, 40), (40, 1), (40, 40)][t]
        else:
            n = int(rng.integers(1, 41))
            m = int(rng.integers(1, 41))
        P, S = gen_random_instance(n, m, 100.0, seed=int(rng.integers(1 << 31)))
        got = solve(P, S).lambda_star
        want, _ = brute_force_optimum(P, S)
        if got != want:
            mismatches += 1
    dt = time.perf_counter() - t0
    report(
        1,
        "oracle equivalence",
        mismatches == 0 and dt < 60.0,
        f"{total - mismatches}/{total} bit-identical in {dt:.1f}s (budget 60s)",
    )


def test_criterion_2_decision_iff():
    rng = sized_rng(1002)
    bad = 0
    checked = 0
    for _ in range(200):
        n = int(rng.integers(1, 26))
        m = int(rng.integers(1, 26))
        P, S = gen_random_instance(n, m, 100.0, seed=int(rng.integers(1 << 31)))
        ctx = preprocess(P, S)
        lam_star, _ = brute_force_optimum(P, S)
        prep = _Prepared(P, S)
        candidates = np.unique(np.concatenate((prep.dps.ravel(), prep.pair_w)))
        for c in candidates:
            for lam in (c * (1 - 1e-9), float(c), c * (1 + 1e-9)):
                if not lam > 0:
                    continue
                checked += 1
                if bool(compare_to_optimal(ctx, lam)) != (lam_star < lam):
                    bad += 1
    report(2, "decision iff", bad == 0, f"{checked} threshold probes, {bad} mismatches")


def test_criterion_3_maxgap_identity():
    rng = sized_rng(1003)
    worst = 0.0
    count = 0
    while count < 200:
        m = int(rng.integers(2, 201))
        n = 2 * int(rng.integers(1, 26))
        values = rng.uniform(-1000.0, 1000.0, m)
        if values.max() == values.min():
            continue
        inst = gen_maxgap_instance(values, n, seed=count)
        got = math.sqrt(solve(inst.P, inst.S).lambda_star)
        worst = max(worst, abs(got - inst.expected) / inst.expected)
        count += 1
    report(3, "max-gap identity", worst <= 1e-9, f"worst relative error {worst:.2e}")


def test_criterion_4_membership_identity():
    rng = sized_rng(1004)
    bad = 0
    for _ in range(100):
        m = int(rng.integers(1, 31))
        n = int(rng.integers(0, 31))
        f = tuple(int(x) for x in rng.integers(1, m + 1, n))
        inst = gen_membership_instance(f, m)
        if not verify_membership(solve(inst.P, inst.S).tree, inst):
            bad += 1
        if n:
            j = int(rng.integers(1, n + 1))
            dx = 0.1 + 0.8 * rng.random()
            pert = gen_membership_instance(f, m, perturb=(j, (f[j - 1] + dx, 1.0)))
            if verify_membership(solve(pert.P, pert.S).tree, pert):
                bad += 1
    report(4, "membership identity", bad == 0, f"{bad} wrong verdicts over 100 instances")


def test_criterion_5_yao_correctness():
    rng = sized_rng(1005)
    bad = 0
    for _ in range(500):
        n = int(rng.integers(1, 101))
        m = int(rng.integers(1, 101))
        P, S = gen_random_instance(n, m, 100.0, seed=int(rng.integers(1 << 31)))
        ref = yao_bruteforce(P, S)
        if not same_edges(ref, yao_bipartite(P, S)):
            bad += 1
        check_graph_invariants(ref, P, S)  # exhaustive nearest-in-cone
    report(5, "yao equivalence", bad == 0, f"{bad} mismatching graphs over 500 instances")


def test_criterion_6_emst_correctness():
    rng = sized_rng(1006)
    bad = 0
    for _ in range(500):
        m = int(rng.integers(1, 201))
        S = rng.uniform(0, 100.0, (m, 2))
        a = euclidean_mst(S)
        b = mst_prim_reference(S)
        if not (np.array_equal(a.edge_w, b.edge_w) and np.array_equal(a.thresholds, b.thresholds)):
            bad += 1
    report(6, "emst weight multisets", bad == 0, f"{bad} mismatches over 500 point sets")


def test_criterion_7_structural_validity():
    # candidate-set size <= 6 is asserted inside every decision call;
    # here every returned tree runs the full invariant suite
    rng = sized_rng(1007)
    bad = 0
    for _ in range(200):
        n = int(rng.integers(1, 31))
        m = int(rng.integers(1, 31))
        P, S = gen_random_instance(n, m, 80.0, seed=int(rng.integers(1 << 31)))
        r = solve(P, S)
        try:
            validate_full_steiner_tree(r.tree)
        except ValueError:
            bad += 1
        if not r.candidate_count <= 6:
            bad += 1
        _, witness = brute_force_optimum(P, S)
        try:
            validate_full_steiner_tree(witness)
        except ValueError:
            bad += 1
    report(7, "structural validity", bad == 0, f"{bad} invariant violations over 200 instances")


def test_criterion_8_scaling():
    sizes = [2 ** e for e in range(14, 21)]
    t0 = time.perf_counter()
    rows = bench(sizes, seed=2024, reps=5)
    dt = time.perf_counter() - t0
    print()
    print(bench_csv(rows))
    ratios = [r.ratio_vs_prev for r in rows if r.size >= 2 ** 17]  # doublings past 2^16
    ok = all(r <= 2.6 for r in ratios) and dt <= 600.0
    report(
        8,
        "scaling",
        ok,
        f"ratios past 2^16: {[f'{r:.2f}' for r in ratios]}, run {dt:.0f}s (budget 600s)",
    )


def test_criterion_9_bounds_property():
    rng = sized_rng(1009)
    bad = 0
    for _ in range(300):
        n = int(rng.integers(1, 41))
        m = int(rng.integers(1, 41))
        P, S = gen_random_instance(n, m, 100.0, seed=int(rng.integers(1 << 31)))
        r = solve(P, S)
        attach = float(squared_distances(P[:, None], S).min(axis=1).max())
        emst = euclidean_mst(S)
        longest = float(emst.edge_w[-1]) if len(emst.edge_w) else 0.0
        if not attach <= r.lambda_star <= max(longest, attach):
            bad += 1
    report(9, "bottleneck bounds", bad == 0, f"{bad} violations over 300 instances")
