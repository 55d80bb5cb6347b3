"""Brute-force ground truth, built straight from the tree definition.

A bottleneck of at most lambda is achievable exactly when some connected
component of the candidate set under edges of squared length <= lambda
can absorb an attachment of squared length <= lambda from every terminal.
The optimum is the smallest realized pairwise distance for which that
holds.  Apart from the shared instance contract
(`solver.validate_instance`), nothing here touches the fast pipeline:
components come from a private union-find over all candidate pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import squared_distance_matrix
from .solver import FullSteinerTree, validate_instance


class _DisjointSets:
    """Minimal union-find; deliberately independent of the solver's csgraph code."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


@dataclass(frozen=True)
class FeasibilityWitness:
    """Certificate that a bottleneck of at most `threshold` is achievable."""

    threshold: float
    members: np.ndarray  # candidate indices of the serving component
    attachment: np.ndarray  # per-terminal candidate index, distance <= threshold


class _Prepared:
    """Distance tables shared across the feasibility probes of one instance."""

    def __init__(self, P: np.ndarray, S: np.ndarray):
        self.n, self.m = len(P), len(S)
        self.dps = squared_distance_matrix(P, S)
        dss = squared_distance_matrix(S, S)
        iu, iv = np.triu_indices(self.m, 1)
        self.iu = iu.astype(np.int64)
        self.iv = iv.astype(np.int64)
        self.pair_w = dss[self.iu, self.iv]
        order = np.lexsort((self.iv, self.iu, self.pair_w))
        self.order = order

    def component_labels(self, threshold: float) -> np.ndarray:
        ds = _DisjointSets(self.m)
        sel = np.flatnonzero(self.pair_w <= threshold)
        for a, b in zip(self.iu[sel].tolist(), self.iv[sel].tolist()):
            ds.union(a, b)
        return np.fromiter((ds.find(i) for i in range(self.m)), np.int64, self.m)

    def feasible_component(self, threshold: float) -> np.ndarray | None:
        """Members of the first serving component (by smallest index), or None."""
        labels = self.component_labels(threshold)
        ok = self.dps <= threshold
        for r in np.unique(labels).tolist():  # unique roots ascend by member index
            members = np.flatnonzero(labels == r)
            if ok[:, members].any(axis=1).all():
                return members
        return None


def _witness(prep: _Prepared, threshold: float, members: np.ndarray) -> FeasibilityWitness:
    sub = prep.dps[:, members]
    wmin = sub.min(axis=1)
    att = np.where(sub == wmin[:, None], members[None, :], prep.m).min(axis=1)
    return FeasibilityWitness(threshold, members, att.astype(np.int64))


def feasible(P, S, threshold: float) -> FeasibilityWitness | None:
    """Witness that some component serves every terminal at <= threshold.

    Comparisons here are non-strict: the optimum itself is feasible.
    Returns None when infeasible.
    """
    P, S = validate_instance(P, S)
    prep = _Prepared(P, S)
    members = prep.feasible_component(threshold)
    if members is None:
        return None
    return _witness(prep, threshold, members)


def _spanning_edges(prep: _Prepared, threshold: float, members: np.ndarray) -> np.ndarray:
    """Deterministic spanning tree of `members` using pair edges <= threshold."""
    member_set = set(members.tolist())
    ds = _DisjointSets(prep.m)
    edges = []
    for t in prep.order.tolist():
        if prep.pair_w[t] > threshold:
            break
        a = int(prep.iu[t])
        b = int(prep.iv[t])
        if a in member_set and ds.union(a, b):
            edges.append((a, b))
    assert len(edges) == len(members) - 1
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def brute_force_optimum(P, S) -> tuple[float, FullSteinerTree]:
    """Exact optimum and a witness tree, by probing realized distances.

    The bottleneck of any tree is one of the pairwise squared distances,
    so the optimum is the smallest such candidate that is feasible;
    feasibility is monotone, which a binary search over the sorted
    candidates exploits.  Intended for desk-size instances.
    """
    P, S = validate_instance(P, S)
    prep = _Prepared(P, S)
    candidates = np.unique(np.concatenate((prep.dps.ravel(), prep.pair_w)))
    lo, hi = 0, len(candidates) - 1  # the largest candidate is always feasible
    while lo < hi:
        mid = (lo + hi) // 2
        if prep.feasible_component(float(candidates[mid])) is not None:
            hi = mid
        else:
            lo = mid + 1
    lam = float(candidates[lo])

    members = prep.feasible_component(lam)
    assert members is not None
    witness = _witness(prep, lam, members)
    skeleton = _spanning_edges(prep, lam, members)
    ext_w = prep.dps[np.arange(prep.n), witness.attachment]
    if len(skeleton):
        skel_w = prep.pair_w[
            np.searchsorted(prep.iu * np.int64(prep.m) + prep.iv,
                            skeleton[:, 0] * np.int64(prep.m) + skeleton[:, 1])
        ]
        b = float(max(skel_w.max(), ext_w.max()))
    else:
        b = float(ext_w.max())
    tree = FullSteinerTree(P, S, members, skeleton, witness.attachment, b)
    return lam, tree
