"""Threshold decision procedure over the candidate-set spanning tree.

For a positive threshold, the spanning tree of the candidate set falls
apart into components once every edge at least as long as the threshold
is removed.  A component is a viable attachment target when every
terminal reaches it through some cone edge strictly shorter than the
threshold; the set of such components is non-empty exactly when the
optimal bottleneck is strictly below the threshold.  The cone edges are
read row by row from the Yao graph's (n, 6) table.

The largest edge on the tree path between two candidates is the least
threshold above which they share a component (Hu 1961, "The maximum
capacity route problem"); `tree_bottlenecks` gives it for one root and
every other candidate at once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import breadth_first_order, connected_components

from .emst import EmstResult, sparse_graph
from .yao import YaoGraph, row_any


@dataclass(frozen=True)
class ComponentLabeling:
    """Component ids of the candidate points below one threshold."""

    threshold: float
    label: np.ndarray
    component_count: int


@dataclass(frozen=True)
class SolverContext:
    """Immutable preprocessing bundle shared by all decision calls."""

    P: np.ndarray
    S: np.ndarray
    emst: EmstResult
    yao: YaoGraph


def forest_components(emst: EmstResult, threshold: float) -> ComponentLabeling:
    """Label the components left after deleting edges with weight >= threshold.

    The threshold is a squared length and must be positive; passing
    infinity keeps every edge.  Labels are contiguous ids starting at 0,
    assigned in order of first occurrence.
    """
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    m = emst.point_count
    t = int(np.searchsorted(emst.edge_w, threshold, side="left"))
    g = sparse_graph(m, emst.edge_u[:t], emst.edge_v[:t])
    ncomp, label = connected_components(g, directed=False)
    return ComponentLabeling(threshold, label.astype(np.int64), int(ncomp))


def tree_bottlenecks(emst: EmstResult, root: int) -> np.ndarray:
    """Largest edge weight on the tree path from `root` to each candidate.

    Entry s is below a positive threshold exactly when `forest_components`
    at that threshold puts s in root's component; entry root is 0.  One
    breadth-first pass finds each candidate's parent edge, and pointer
    doubling folds the path maxima up to the root in log2(depth) rounds.
    """
    m = emst.point_count
    eu, ev = emst.edge_u, emst.edge_v
    order, up = breadth_first_order(
        sparse_graph(m, eu, ev), root, directed=False, return_predecessors=True
    )
    up[root] = root
    # each tree edge hangs its child off its parent
    b = np.zeros(m)
    b[np.where(up[eu] == ev, eu, ev)] = emst.edge_w
    # b[s] is the largest weight from s up to up[s]; the last vertex in
    # breadth-first order is a deepest one, so it reaches the root last
    while up[order[-1]] != root:
        np.maximum(b, b.take(up), out=b)
        up = up.take(up)
    return b


def candidate_components(ctx: SolverContext, labeling: ComponentLabeling) -> frozenset:
    """Components that every terminal can enter below the labeling threshold.

    Seeds with the components reachable from the binding terminal's row
    (at most six, one per cone), the argmax of the row minima, and keeps
    those that some cell of every row reaches.  A row that holds only its
    nearest cell reaches that cell's component; when a seed still alive
    is another one, the row is filled.  The rows are filled in batches
    that double, in index order, and the loop stops once no seed is left.
    """
    yao, label, threshold = ctx.yao, labeling.label, labeling.threshold
    p = yao.binding_row()
    cells = yao.cell_labels(label, threshold)
    seeds = np.unique(cells[p][cells[p] >= 0]).tolist()
    miss = {j: ~row_any(cells == j) for j in seeds}
    batch = 1
    while True:
        seeds = [j for j in seeds if not (miss[j] & yao.full).any()]
        if not seeds:
            return frozenset()
        pending = np.flatnonzero(functools.reduce(np.logical_or, (miss[j] for j in seeds)))
        if not len(pending):
            return frozenset(seeds)
        rows = pending[:batch]
        yao.complete(rows)
        cells = yao.cell_labels(label, threshold, rows)
        for j in seeds:
            miss[j][rows] = ~row_any(cells == j)
        batch *= 2


def compare_to_optimal(ctx: SolverContext, threshold: float) -> frozenset:
    """Candidate component ids at a threshold; non-empty iff optimum < threshold."""
    return candidate_components(ctx, forest_components(ctx.emst, threshold))
