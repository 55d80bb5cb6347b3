"""End-to-end solver for bottleneck-optimal full Steiner trees.

Pipeline: spanning tree of the candidate set, then the six-cone terminal
graph up to the tree's largest edge (cells beyond it, other than each
terminal's nearest, may stay unsettled, since no decision reads them),
the threshold index in closed form, then assembly of the at most six
candidate trees and selection of the one with the smallest bottleneck.
The index is the first threshold above the least minimax bound over the
binding terminal's cells.  A cell's bound is the largest over terminals
of the cheapest cell whose cost is the larger of its edge and the
largest tree edge between its candidate and the root cell's candidate
(Hu 1961).  Finding it takes at most six tree walks and no decision
call.  All weights are squared lengths end to end.

`preprocess` builds the six-cone graph with each terminal's nearest
candidate only, and every reader of the table, the search, a decision
and the assembly, fills a terminal's whole row when its answer depends
on it.  A terminal whose nearest candidate already decides it, by a
bound no larger than the largest value found or by entering each
component in question, is never filled.  `solve`, `compare_to_optimal`
and `bsteiner decide` all read that one table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components

from .decision import (
    ComponentLabeling,
    SolverContext,
    candidate_components,
    forest_components,
    tree_bottlenecks,
)
from .emst import euclidean_mst, sparse_graph
from .geometry import as_points, check_disjoint, squared_distances
from .yao import YaoGraph, row_any, row_min, yao_bipartite


@dataclass(frozen=True)
class FullSteinerTree:
    """A tree on the terminals plus a candidate subset, terminals as leaves.

    `skeleton_edges` span `component_vertices`; `external_edges[i]` is the
    candidate index the i-th terminal hangs off.  `bottleneck` is the
    largest squared edge length in the whole tree.
    """

    P: np.ndarray
    S: np.ndarray
    component_vertices: np.ndarray
    skeleton_edges: np.ndarray
    external_edges: np.ndarray
    bottleneck: float


@dataclass(frozen=True)
class SolveReport:
    tree: FullSteinerTree
    lambda_star: float  # squared bottleneck length
    threshold_index: int
    chosen_component: int
    candidate_count: int
    timings: dict


def validate_instance(P, S) -> tuple[np.ndarray, np.ndarray]:
    """Coerce both sets with `as_points`; raise ValueError unless both are
    non-empty and disjoint.  The one instance check every entry point runs."""
    P = as_points(P, "P")
    S = as_points(S, "S")
    if len(P) == 0:
        raise ValueError("P must be non-empty")
    if len(S) == 0:
        raise ValueError("S must be non-empty")
    check_disjoint(P, S)
    return P, S


def preprocess(P, S) -> SolverContext:
    """Validate an instance and build the shared context for decision calls.

    The spanning tree comes first, and its largest edge M is the cone
    table's `limit` (inf when the tree has no edge).  A decision at a
    threshold up to M reads only cells shorter than it.  Above M the tree
    is one component, and the decision and the assembly read only each
    row's minimum.  So every read is exact, although cells at or beyond M
    may read as empty.  The table holds each row's nearest cell, and the
    readers fill the rows they need (`YaoGraph.complete`).
    """
    P, S = validate_instance(P, S)
    emst = euclidean_mst(S)
    limit = emst.thresholds[-1] if len(emst.thresholds) else np.inf
    return SolverContext(P, S, emst, yao_bipartite(P, S, limit))


def threshold_value(emst, index: int) -> float:
    """Value of the augmented threshold sequence: 0, distinct weights, inf."""
    k = len(emst.thresholds)
    if index == 0:
        return 0.0
    if index == k + 1:
        return np.inf
    return float(emst.thresholds[index - 1])


def binary_search_threshold(ctx: SolverContext) -> int:
    """Smallest index whose threshold makes the candidate set non-empty.

    Takes the index in closed form instead of probing decisions.  Let p
    be the binding terminal, the argmax of row_min(best_w).  For a root r,
    let U_r = max_q min_cone max(w(q, s), B_r[s]), with B_r the largest
    tree edge on the path from r to s (`tree_bottlenecks`): r's component
    succeeds at a threshold T exactly when U_r < T.  Every component that
    succeeds holds one of p's cells, so the answer is the first index of
    the augmented sequence above min_r U_r over p's non-empty cells.

    The cells are visited nearest first against `beat`, the threshold
    just below the best index so far.  A cell not shorter than beat ends
    the loop, since p enters any component that succeeds at beat through
    a shorter cell.  A cell inside a walked root's component at beat
    succeeds there exactly when that root does, and no walked root does,
    so it is skipped.  At most six tree walks are made, each O(m log m).
    When the attach bound max_p min_cone w(p, s) is at or above the
    largest tree edge, none is made and the index is k + 1.  Each walk
    fills the rows of the table that U_r depends on (`_root_bound`).
    """
    yao, emst = ctx.yao, ctx.emst
    thresholds = emst.thresholds
    # every row holds a finite cell: a terminal's nearest candidate lies in some cone
    p = yao.binding_row()
    order = np.argsort(yao.best_w[p], kind="stable")
    cell_w, cell_s = yao.best_w[p, order], yao.best_s[p, order]
    best = len(thresholds) + 1
    near = np.full(len(order), np.inf)  # least path maximum from a walked root to each cell
    cost = np.empty(yao.best_w.shape)  # every walk's (n, 6) costs, one buffer
    for i, (w, s) in enumerate(zip(cell_w.tolist(), cell_s.tolist())):
        beat = threshold_value(emst, best - 1)
        # an empty cell's inf length ends the loop before its index is read
        if w >= beat:
            break
        if near[i] < beat:
            continue
        b = tree_bottlenecks(emst, s)
        u = _root_bound(yao, b, cost)
        best = min(best, int(np.searchsorted(thresholds, u, side="right")) + 1)
        np.minimum(near, b.take(cell_s, mode="clip"), out=near)
    return best


def _root_bound(yao: YaoGraph, b: np.ndarray, cost: np.ndarray) -> float:
    """U_r = max over rows of min_cone max(w, b[s]), for the path maxima b of one root.

    A full row reads its exact value.  A row that holds only its nearest
    cell (w_min, s_min) reads its bound max(w_min, b[s_min]), and its
    value, min_cone max(w, b[s]), lies between w_min and that bound.  X,
    the largest value of the full rows, is at least every w_min, since
    the binding row is full.  So once no bound exceeds X, no value does
    either, and U_r = X.  The rows whose bound does are filled, largest
    bound first, in batches that double, until none is left.
    """
    # an empty cell's inf length hides its clipped index, as in `cell_labels`
    b.take(yao.best_s, mode="clip", out=cost)
    bound = row_min(np.maximum(cost, yao.best_w, out=cost))
    x = bound[yao.full].max()
    batch = 1
    while True:
        over = np.flatnonzero(bound > x)
        if not len(over):
            return x
        rows = over[np.argsort(-bound[over], kind="stable")[:batch]]
        yao.complete(rows)
        bound[rows] = row_min(np.maximum(b.take(yao.best_s[rows], mode="clip"), yao.best_w[rows]))
        x = max(x, bound[rows].max())
        batch *= 2


def build_tree_for_component(ctx: SolverContext, labeling: ComponentLabeling, j: int) -> FullSteinerTree:
    """Assemble the full Steiner tree anchored on component j at the labeling's threshold.

    The skeleton is every surviving spanning-tree edge inside the
    component; each terminal takes the shortest qualifying cell of its
    row of the cone table (ties on length broken by candidate index).
    A row that is not full and whose nearest cell does not qualify is
    filled first.
    """
    if not 0 <= j < labeling.component_count:
        raise ValueError("component not feasible at lambda")
    label, threshold = labeling.label, labeling.threshold
    comp = np.flatnonzero(label == j).astype(np.int64)

    t = int(np.searchsorted(ctx.emst.edge_w, threshold, side="left"))
    eu = ctx.emst.edge_u[:t]
    ev = ctx.emst.edge_v[:t]
    ew = ctx.emst.edge_w[:t]
    keep = label[eu] == j
    skeleton = np.column_stack((eu[keep], ev[keep]))
    skel_w = ew[keep]

    yao = ctx.yao
    hit = yao.cell_labels(label, threshold) == j
    # a row that holds only its nearest cell answers with it when that cell enters j
    rows = np.flatnonzero(~(row_any(hit) | yao.full))
    if len(rows):
        yao.complete(rows)
        hit[rows] = yao.cell_labels(label, threshold, rows) == j
    w = np.where(hit, yao.best_w, np.inf)
    ext_w = row_min(w)
    if not np.isfinite(ext_w).all():
        raise ValueError("component not feasible at lambda")
    np.equal(w, ext_w[:, None], out=hit)
    del w  # so that at most one (n, 6) table of numbers is alive at a time
    ext = row_min(np.where(hit, yao.best_s, len(ctx.S)))

    b = float(max(np.max(skel_w, initial=0.0), ext_w.max()))
    return FullSteinerTree(ctx.P, ctx.S, comp, skeleton, ext, b)


def edge_weights(tree: FullSteinerTree) -> tuple[np.ndarray, np.ndarray]:
    """Squared lengths of the skeleton edges and of the external edges, from the coordinates."""
    S, skel = tree.S, tree.skeleton_edges
    skel_w = squared_distances(S[skel[:, 0]], S[skel[:, 1]])
    return skel_w, squared_distances(tree.P, S[tree.external_edges])


def bottleneck(tree: FullSteinerTree) -> float:
    """Largest squared edge length, recomputed from the coordinates."""
    skel_w, ext_w = edge_weights(tree)
    return float(max(np.max(skel_w, initial=0.0), ext_w.max()))


def solve(P, S) -> SolveReport:
    """Compute an optimal bottleneck full Steiner tree.

    Returns the tree together with the squared optimum, the threshold
    index (found in closed form by at most six tree walks), the chosen
    component, and per-phase wall times in nanoseconds.  Runs are
    deterministic for identical inputs (timings aside).
    """
    t0 = time.perf_counter_ns()
    ctx = preprocess(P, S)
    t1 = time.perf_counter_ns()
    ell = binary_search_threshold(ctx)
    lam = threshold_value(ctx.emst, ell)
    t2 = time.perf_counter_ns()
    labeling = forest_components(ctx.emst, lam)
    J = candidate_components(ctx, labeling)
    # the first minimum is the smallest label among equal bottlenecks
    tree, j = min(
        ((build_tree_for_component(ctx, labeling, j), j) for j in sorted(J)),
        key=lambda tj: tj[0].bottleneck,
    )
    t3 = time.perf_counter_ns()
    return SolveReport(
        tree=tree,
        lambda_star=tree.bottleneck,
        threshold_index=ell,
        chosen_component=j,
        candidate_count=len(J),
        timings={
            "preprocess_ns": t1 - t0,
            "search_ns": t2 - t1,
            "assemble_ns": t3 - t2,
        },
    )


def validate_full_steiner_tree(tree: FullSteinerTree) -> None:
    """Raise ValueError unless the tree satisfies every structural invariant.

    Checks: non-empty vertex subset, skeleton is a spanning tree of it,
    external edges land inside it (one per terminal, so terminals are
    leaves), and the stored bottleneck matches a recomputation.
    """
    n, m = len(tree.P), len(tree.S)
    comp = tree.component_vertices
    if comp.size == 0:
        raise ValueError("component_vertices is empty")
    if comp.min() < 0 or comp.max() >= m:
        raise ValueError("component vertex out of range")
    if np.any(np.diff(comp) <= 0):
        raise ValueError("component_vertices must be sorted and unique")

    skel = tree.skeleton_edges
    if len(skel) != len(comp) - 1:
        raise ValueError("skeleton edge count must be |S'| - 1")
    if not np.isin(skel, comp).all():
        raise ValueError("skeleton edge leaves the component")
    # |S'| - 1 edges connect S' only when they form a spanning tree of it:
    # a cycle or a self-loop would leave some vertex unreached
    local = np.searchsorted(comp, skel)
    ncomp, _ = connected_components(
        sparse_graph(len(comp), local[:, 0], local[:, 1]), directed=False
    )
    if ncomp != 1:
        raise ValueError("skeleton does not connect the component")

    ext = tree.external_edges
    if len(ext) != n:
        raise ValueError("one external edge per terminal required")
    if not np.isin(ext, comp).all():
        raise ValueError("external edge leaves the component")

    if bottleneck(tree) != tree.bottleneck:
        raise ValueError("stored bottleneck does not match the edges")
