"""Instance and solution documents, and SVG rendering.

Instances travel as JSON ({"P": [[x, y], ...], "S": [...]} plus optional
metadata) or as a terse whitespace format for hand-written fixtures:
a header line "n m", then n terminal lines and m candidate lines, each
"x y".  A whitespace document never starts with '{', so the first
non-blank character tells the two apart.  Parsing checks only the document's own
shape; the instance contract (`solver.validate_instance`) is checked
once, by the computation the instance is handed to.  Solutions and
trees serialize to canonical JSON (sorted keys, compact separators,
edges in ascending index order) that parses back losslessly.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .geometry import pair_squared_distances
from .solver import FullSteinerTree, SolveReport


def _canonical_json(doc: dict) -> str:
    # a non-finite number would make the document invalid JSON
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _coords_from_json(doc, key: str) -> np.ndarray:
    if key not in doc:
        raise ValueError(f"missing key {key!r}")
    rows = doc[key]
    if not isinstance(rows, list):
        raise ValueError(f"{key} must be a list of [x, y] pairs")
    for i, row in enumerate(rows):
        if (
            not isinstance(row, list)
            or len(row) != 2
            or not all(type(c) in (int, float) for c in row)  # bool is not a number here
        ):
            raise ValueError(f"{key}[{i}]: expected a numeric [x, y] pair")
        try:
            rows[i] = [float(c) for c in row]
        except OverflowError:
            raise ValueError(f"{key}[{i}]: integer coordinate too large for a float") from None
    return np.asarray(rows, dtype=np.float64).reshape(-1, 2)


def parse_instance(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse an instance document in either supported format into (P, S).

    JSON input is detected by a leading '{'.  Raises ValueError naming
    the offending key, index, or line; the coordinates themselves are
    left for `solver.validate_instance` to check.
    """
    stripped = text.lstrip()
    if not stripped:
        raise ValueError("empty instance document")
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValueError(f"malformed JSON: {e}") from e
        if not isinstance(doc, dict):
            raise ValueError("instance document must be a JSON object")
        return _coords_from_json(doc, "P"), _coords_from_json(doc, "S")

    lines = text.splitlines()
    rows: list[tuple[int, list[float]]] = []
    for ln, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        try:
            rows.append((ln, [float(p) for p in parts]))
        except ValueError:
            raise ValueError(f"line {ln}: expected numbers") from None
    if not rows:
        raise ValueError("empty instance document")
    header_ln, header = rows[0]
    if len(header) != 2 or not all(float(h).is_integer() and h >= 0 for h in header):
        raise ValueError(f"line {header_ln}: header must be 'n m'")
    n, m = int(header[0]), int(header[1])
    body = rows[1:]
    if len(body) != n + m:
        raise ValueError(f"expected {n + m} point lines, found {len(body)}")
    for ln, row in body:
        if len(row) != 2:
            raise ValueError(f"line {ln}: expected two coordinates")
    pts = np.asarray([row for _, row in body], dtype=np.float64).reshape(-1, 2)
    return pts[:n], pts[n:]


def emit_instance(P: np.ndarray, S: np.ndarray, metadata: dict) -> str:
    """Canonical JSON instance document; `parse_instance` reads it back."""
    return _canonical_json({"P": P.tolist(), "S": S.tolist(), "metadata": metadata})


def tree_document(tree: FullSteinerTree) -> dict:
    """Bottleneck length, skeleton edges as ascending (a < b) pairs in
    ascending order, and one [terminal, candidate] pair per terminal."""
    skel = tree.skeleton_edges
    a = np.minimum(skel[:, 0], skel[:, 1])
    b = np.maximum(skel[:, 0], skel[:, 1])
    order = np.lexsort((b, a))
    return {
        "bottleneck": math.sqrt(tree.bottleneck),
        "skeleton_edges": np.column_stack((a[order], b[order])).tolist(),
        "external_edges": [[i, int(s)] for i, s in enumerate(tree.external_edges.tolist())],
    }


def emit_tree(tree: FullSteinerTree) -> str:
    """Canonical JSON of a tree on its own: its document plus its vertices."""
    return _canonical_json(
        {**tree_document(tree), "component_vertices": tree.component_vertices.tolist()}
    )


def solution_document(report: SolveReport) -> dict:
    """Plain-dict form of a solve report; the unit emit/parse agree on."""
    return {
        **tree_document(report.tree),
        "component": int(report.chosen_component),
        "threshold_index": int(report.threshold_index),
        "timings": {k: int(v) for k, v in sorted(report.timings.items())},
    }


def emit_solution(report: SolveReport) -> str:
    """Canonical JSON: sorted keys, compact separators, round-trippable floats."""
    return _canonical_json(solution_document(report))


_SOLUTION_KEYS = {
    "bottleneck",
    "component",
    "threshold_index",
    "skeleton_edges",
    "external_edges",
    "timings",
}


def parse_solution(text: str) -> dict:
    """Parse a serialized solution back into its document form."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"malformed JSON: {e}") from e
    if not isinstance(doc, dict) or not _SOLUTION_KEYS <= set(doc):
        missing = _SOLUTION_KEYS - set(doc) if isinstance(doc, dict) else _SOLUTION_KEYS
        raise ValueError(f"solution document missing keys: {sorted(missing)}")
    return doc


def _fmt(v: float) -> str:
    return repr(float(v))


def render_svg(tree: FullSteinerTree) -> str:
    """Standalone SVG of a tree over its instance: candidates filled,
    terminals open, skeleton solid, externals dashed, the
    bottleneck-attaining edge highlighted."""
    P, S = tree.P, tree.S
    xs = np.concatenate((P[:, 0], S[:, 0]))
    ys = np.concatenate((-P[:, 1], -S[:, 1]))  # SVG y grows downward
    span = max(xs.max() - xs.min(), ys.max() - ys.min())
    pad = 0.05 * span if span > 0 else 1.0
    x0, y0 = xs.min() - pad, ys.min() - pad
    width = (xs.max() - xs.min()) + 2 * pad
    height = (ys.max() - ys.min()) + 2 * pad
    scale = max(width, height)
    r = 0.012 * scale
    stroke = 0.005 * scale

    skel, ext = tree.skeleton_edges, tree.external_edges
    skel_w = pair_squared_distances(S[skel[:, 0]], S[skel[:, 1]])
    ext_w = pair_squared_distances(P, S[ext])
    edges = []  # (x1, y1, x2, y2, kind, weight)
    for (u, v), w in zip(skel.tolist(), skel_w.tolist()):
        edges.append((S[u, 0], -S[u, 1], S[v, 0], -S[v, 1], "skeleton", w))
    for i, (s, w) in enumerate(zip(ext.tolist(), ext_w.tolist())):
        edges.append((P[i, 0], -P[i, 1], S[s, 0], -S[s, 1], "external", w))
    hot = max(range(len(edges)), key=lambda t: edges[t][5]) if edges else -1

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(width)} {_fmt(height)}">'
    ]
    for t, (x1, y1, x2, y2, kind, _) in enumerate(edges):
        color = "#d62728" if t == hot else ("#333333" if kind == "skeleton" else "#777777")
        sw = stroke * (1.8 if t == hot else 1.0)
        dash = "" if kind == "skeleton" else f' stroke-dasharray="{_fmt(2 * stroke)}"'
        parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{_fmt(sw)}"{dash}/>'
        )
    for x, y in S.tolist():
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(-y)}" r="{_fmt(r)}" fill="#1f77b4"/>'
        )
    for x, y in P.tolist():
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(-y)}" r="{_fmt(r)}" fill="none" '
            f'stroke="#2ca02c" stroke-width="{_fmt(stroke)}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
