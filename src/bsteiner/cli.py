"""Command-line interface: solve / decide / oracle / gen / bench.

Every document is read and written by `formats`.  An instance is parsed
there and validated once, by the computation the command runs (`solve`,
`preprocess` or `brute_force_optimum`).  Exit codes: 0 on success, 2 on
input validation errors, 1 on anything unexpected.  Thresholds on the
command line are plain lengths; the library's internal squared
representation never leaks out.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .bench import bench, bench_csv
from .decision import compare_to_optimal
from .formats import emit_instance, emit_solution, emit_tree, parse_instance, render_svg
from .generators import gen_maxgap_instance, gen_membership_instance, gen_random_instance
from .oracle import brute_force_optimum
from .solver import preprocess, solve


def _read_instance(args) -> tuple[np.ndarray, np.ndarray]:
    return parse_instance(Path(args.input).read_text())


def _cmd_solve(args) -> int:
    report = solve(*_read_instance(args))
    payload = emit_solution(report)
    print(payload)
    if args.json:
        Path(args.json).write_text(payload + "\n")
    if args.svg:
        Path(args.svg).write_text(render_svg(report.tree))
    return 0


def _cmd_decide(args) -> int:
    if not args.lam > 0:  # rejects NaN too, before the costly preprocessing
        raise ValueError("threshold must be positive")
    ctx = preprocess(*_read_instance(args))
    # below about 1.5e-162 lambda squares to 0.0; every squared distance in
    # the coordinate domain is at least 2**-904, so the smallest positive
    # float gives the same verdict
    J = compare_to_optimal(ctx, max(args.lam * args.lam, math.ulp(0.0)))
    print(f"J = {sorted(J)}")
    print("lambda* < lambda" if J else "lambda* >= lambda")
    return 0


def _cmd_oracle(args) -> int:
    _, tree = brute_force_optimum(*_read_instance(args))
    print(emit_tree(tree))
    return 0


def _cmd_gen(args) -> int:
    if args.kind == "maxgap":
        if args.values:
            values = np.asarray([float(v) for v in args.values.split(",")])
        else:
            rng = np.random.default_rng(args.seed)
            values = rng.uniform(0.0, 100.0, args.m)
        inst = gen_maxgap_instance(values, args.n, seed=args.seed)
        payload = emit_instance(
            inst.P, inst.S,
            {"name": "maxgap", "seed": args.seed, "expected_bottleneck": inst.expected},
        )
    elif args.kind == "membership":
        if args.f:
            f = tuple(int(v) for v in args.f.split(","))
        else:
            rng = np.random.default_rng(args.seed)
            f = tuple(int(v) for v in rng.integers(1, args.m + 1, args.n))
        perturb = None
        if args.perturb:
            j, coords = args.perturb.split(":")
            x, y = coords.split(",")
            perturb = (int(j), (float(x), float(y)))
        inst = gen_membership_instance(f, args.m, perturb=perturb)
        payload = emit_instance(
            inst.P, inst.S,
            {"name": "membership", "seed": args.seed, "f": list(f)},
        )
    else:
        P, S = gen_random_instance(args.n, args.m, args.extent, args.seed)
        payload = emit_instance(P, S, {"name": "random", "seed": args.seed})
    if args.out:
        Path(args.out).write_text(payload + "\n")
    else:
        print(payload)
    return 0


def _cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    rows = bench(sizes, seed=args.seed, reps=args.reps)
    print(bench_csv(rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsteiner",
        description="Bottleneck-optimal full Steiner trees in the plane.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("--input", required=True)
    p.add_argument("--svg", help="write an SVG rendering here")
    p.add_argument("--json", help="also write the solution JSON here")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("decide", help="compare the optimum against a threshold")
    p.add_argument("--input", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="threshold as a length")
    p.set_defaults(fn=_cmd_decide)

    p = sub.add_parser("oracle", help="brute-force optimum for small instances")
    p.add_argument("--input", required=True)
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("gen", help="generate an instance file")
    gensub = p.add_subparsers(dest="kind", required=True)
    g = gensub.add_parser("maxgap", help="known optimum: the largest value gap")
    g.add_argument("--values", help="comma-separated values (default: random)")
    g.add_argument("--m", type=int, default=16, help="value count when random")
    g.add_argument("--n", type=int, default=4, help="even terminal count")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")
    g = gensub.add_parser("membership", help="grid terminals over a baseline")
    g.add_argument("--f", help="comma-separated 1-based columns (default: random)")
    g.add_argument("--m", type=int, default=8)
    g.add_argument("--n", type=int, default=4)
    g.add_argument("--perturb", help="J:X,Y moves grid terminal J to (X, Y)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")
    g = gensub.add_parser("random", help="uniform points in a square")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--extent", type=float, default=100.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("bench", help="doubling benchmark CSV")
    p.add_argument("--sizes", required=True, help="comma-separated ascending sizes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=5)
    p.set_defaults(fn=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
