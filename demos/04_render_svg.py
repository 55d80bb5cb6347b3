"""Render a solved instance to a standalone SVG file.

Candidates draw as filled circles, terminals as open circles, skeleton
edges solid, external edges dashed, and the bottleneck-attaining edge in
red.  The file lands in the current directory as solution.svg.
"""

from pathlib import Path

from bsteiner import gen_random_instance, render_svg, solve

P, S = gen_random_instance(n=10, m=25, extent=100.0, seed=12)
report = solve(P, S)
svg = render_svg(report.tree)

out = Path("solution.svg")
out.write_text(svg)
print(f"solved {len(P)}+{len(S)} points, bottleneck^2 = {report.lambda_star:.3f}")
print(f"wrote {out} ({len(svg)} bytes, {svg.count('<circle')} circles,"
      f" {svg.count('<line')} lines)")
