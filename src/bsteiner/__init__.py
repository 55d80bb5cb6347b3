"""Bottleneck-optimal full Steiner trees in the plane.

Given disjoint point sets P (terminals) and S (Steiner candidates), the
solver returns a tree on P plus a subset of S in which every terminal is
a leaf and the longest edge is as short as possible.  The package also
ships an independent brute-force oracle, instance generators with known
optima, serialization helpers, and a benchmark harness.
"""

from .bench import bench, bench_csv
from .decision import compare_to_optimal, forest_components
from .emst import euclidean_mst, mst_prim_reference
from .formats import emit_solution, parse_instance, render_svg
from .generators import (
    gen_maxgap_instance,
    gen_membership_instance,
    gen_random_instance,
    verify_membership,
)
from .geometry import max_gap
from .oracle import brute_force_optimum, feasible
from .solver import (
    SolveReport,
    bottleneck,
    preprocess,
    solve,
    validate_full_steiner_tree,
)
from .yao import yao_bipartite, yao_bruteforce

__version__ = "0.1.0"

__all__ = [
    "SolveReport",
    "bench",
    "bench_csv",
    "bottleneck",
    "brute_force_optimum",
    "compare_to_optimal",
    "emit_solution",
    "euclidean_mst",
    "feasible",
    "forest_components",
    "gen_maxgap_instance",
    "gen_membership_instance",
    "gen_random_instance",
    "max_gap",
    "mst_prim_reference",
    "parse_instance",
    "preprocess",
    "render_svg",
    "solve",
    "validate_full_steiner_tree",
    "verify_membership",
    "yao_bipartite",
    "yao_bruteforce",
]
