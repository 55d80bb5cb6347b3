"""Threshold decision procedure over the candidate-set spanning tree.

For a positive threshold, the spanning tree of the candidate set falls
apart into components once every edge at least as long as the threshold
is removed.  A component is a viable attachment target when every
terminal reaches it through some cone edge strictly shorter than the
threshold; the set of such components is non-empty exactly when the
optimal bottleneck is strictly below the threshold.  The cone edges are
read row by row from the Yao graph's (n, 6) table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components

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


def candidate_components(ctx: SolverContext, labeling: ComponentLabeling) -> frozenset:
    """Components that every terminal can enter below the labeling threshold.

    Seeds with the components reachable from row 0 of the cone table (at
    most six, one per cone) and keeps those that some cell of every row
    reaches.
    """
    cells = ctx.yao.cell_labels(labeling.label, labeling.threshold)
    seeds = np.unique(cells[0][cells[0] >= 0])
    return frozenset(j for j in seeds.tolist() if row_any(cells == j).all())


def compare_to_optimal(ctx: SolverContext, threshold: float) -> frozenset:
    """Candidate component ids at a threshold; non-empty iff optimum < threshold."""
    return candidate_components(ctx, forest_components(ctx.emst, threshold))
