"""Solve a small instance end to end and cross-check it against brute force.

The instance: three candidate points on a line and a terminal hanging off
each end.  Any tree serving both terminals must keep the whole chain, so
the longest edge cannot shrink below the unit spacing.
"""

import math

from bsteiner import brute_force_optimum, emit_solution, solve

P = [(-1.0, 0.0), (3.0, 0.0)]
S = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]

report = solve(P, S)
print("terminals:", P)
print("candidates:", S)
print()
print("optimal bottleneck length:", math.sqrt(report.lambda_star))
print("skeleton edges (candidate index pairs):", report.tree.skeleton_edges.tolist())
print("external edges (terminal -> candidate):",
      list(enumerate(report.tree.external_edges.tolist())))
print("index of the first tree edge length above the optimum:", report.threshold_index)
print("candidate components at the final threshold:", report.candidate_count)

# The independent brute-force oracle probes every realized distance and
# must land on the same squared optimum, bit for bit.
lam, witness = brute_force_optimum(P, S)
assert lam == report.lambda_star
print()
print("oracle agrees:", lam == report.lambda_star)
print()
print("serialized solution:")
print(emit_solution(report))
