"""Per-layer spans for one `solve`, recorded from outside the solver.

`traced_solve` rebinds, for the duration of one call, the names through
which the solver's modules reach each layer (`solver.yao_bipartite`,
`yao.cKDTree`, `emst.Delaunay`, ...) to wrappers that open a span around
the call, then restores the originals.  Nothing in the package changes.
A name a module no longer has is reported as absent instead of raised,
so refactors of the solver do not break the benchmark.

A span's self time is its duration minus the durations of its child
spans.  A layer's time is the self time of all spans of that layer, so
for example `yao.s` excludes the validation calls `yao_bipartite` makes
into `geometry` but includes its k-d tree queries.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

from bsteiner import emst, solver, yao

CONES = 6

# Metrics fixed by the instance and the algorithm, not by timing.
COUNTERS = frozenset({
    "geometry.check_disjoint_calls",
    "yao.knn_rounds",
    "yao.knn_final_k",
    "yao.neighbors_fetched",
    "yao.edges",
    "yao.empty_cones",
    "yao.useful_ratio",
    "emst.thresholds",
    "decision.calls",
    "solver.search_depth",
    "solver.candidates",
})


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    child: float = 0.0  # summed duration of direct children
    info: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".")[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    """Spans of one solve, kept in memory in the order they opened."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        span = Span(name, self._open[-1] if self._open else None)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            span.info["out"] = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            if span.parent is not None:
                self.spans[span.parent].child += span.duration
        return span


def _wrap(tracer: Tracer, name: str, fn, summarize=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.call(name, fn, *args, **kwargs)
        out = span.info.pop("out")
        if summarize is not None:
            span.info.update(summarize(out))
        return out

    return wrapper


class _TracedKDTree:
    """Stands in for `cKDTree`; times construction and each `query` round."""

    def __init__(self, tracer: Tracer, cls, *args, **kwargs):
        self._tracer = tracer
        span = tracer.call("yao.kdtree", cls, *args, **kwargs)
        self._tree = span.info.pop("out")

    def query(self, x, k=1, **kwargs):
        span = self._tracer.call("yao.knn", self._tree.query, x, k=k, **kwargs)
        span.info["k"] = k
        span.info["fetched"] = len(x) * k
        return span.info.pop("out")

    def __getattr__(self, name):
        return getattr(self._tree, name)


def _targets(tracer: Tracer):
    """(module, name, wrapper factory) for every rebound name."""

    def timed(name, summarize=None):
        return lambda fn: _wrap(tracer, name, fn, summarize)

    def kdtree(cls):
        return lambda *a, **kw: _TracedKDTree(tracer, cls, *a, **kw)

    def yao_summary(graph):
        return {"edges": graph.edge_count(), "terminals": graph.terminal_count}

    def emst_summary(result):
        return {"thresholds": len(result.thresholds)}

    return [
        (solver, "as_points", timed("geometry.as_points")),
        (solver, "check_disjoint", timed("geometry.check_disjoint")),
        (solver, "yao_bipartite", timed("yao", yao_summary)),
        (solver, "euclidean_mst", timed("emst", emst_summary)),
        (solver, "binary_search_threshold", timed("solver.search")),
        (solver, "forest_components", timed("decision.forest")),
        (solver, "candidate_components", timed("decision.candidates")),
        (solver, "build_tree_for_component", timed("solver.build_tree")),
        (yao, "as_points", timed("geometry.as_points")),
        (yao, "check_disjoint", timed("geometry.check_disjoint")),
        (yao, "cKDTree", kdtree),
        (emst, "Delaunay", timed("emst.delaunay")),
        (emst, "as_points", timed("geometry.as_points")),
    ]


def traced_solve(P, S):
    """Run `solver.solve` with every layer rebound; returns (report, tracer, absent).

    `absent` lists the `module.name` targets the package no longer has.
    The root span, named "solve", is the first span of the tracer.
    """
    tracer = Tracer()
    saved, absent = [], []
    for module, name, factory in _targets(tracer):
        short = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        if not hasattr(module, name):
            absent.append(short)
            continue
        original = getattr(module, name)
        saved.append((module, name, original))
        setattr(module, name, factory(original))
    try:
        report = tracer.call("solve", solver.solve, P, S).info.pop("out")
    finally:
        for module, name, original in saved:
            setattr(module, name, original)
    return report, tracer, absent


def layer_metrics(report, tracer: Tracer, absent: list[str]) -> dict[str, float]:
    """Per-layer times (seconds) and counters of one traced solve.

    Report fields the solver no longer returns count as 0 and are added
    to `absent`.
    """
    spans = tracer.spans
    root = spans[0]

    def self_of(prefix):
        return sum(s.self_time for s in spans if s.name == prefix or s.name.startswith(prefix + "."))

    def named(name):
        return [s for s in spans if s.name == name]

    knn = named("yao.knn")
    yao_out = [s.info for s in named("yao")]
    edges = sum(i["edges"] for i in yao_out)
    terminals = sum(i["terminals"] for i in yao_out)
    fetched = sum(s.info["fetched"] for s in knn)
    k = sum(s.info["thresholds"] for s in named("emst"))

    # Decision calls made straight from `solve` belong to assembly.
    assembly_decisions = sum(s.duration for s in spans if s.parent == 0 and s.layer == "decision")

    def field_of(name, default=0):
        if not hasattr(report, name):
            absent.append(f"SolveReport.{name}")
        return getattr(report, name, default)

    assemble_ns = field_of("timings", {}).get("assemble_ns")
    if assemble_ns is None:
        absent.append("SolveReport.timings[assemble_ns]")
        assemble = self_of("solver.build_tree")
    else:
        assemble = assemble_ns / 1e9 - assembly_decisions

    m = {
        "geometry.validate_s": self_of("geometry"),
        "geometry.check_disjoint_calls": len(named("geometry.check_disjoint")),
        "yao.s": self_of("yao"),
        "yao.knn_s": sum(s.duration for s in knn),
        "yao.knn_rounds": len(knn),
        "yao.knn_final_k": max((s.info["k"] for s in knn), default=0),
        "yao.neighbors_fetched": fetched,
        "yao.edges": edges,
        "yao.empty_cones": CONES * terminals - edges,
        "yao.useful_ratio": edges / fetched if fetched else 0.0,
        "emst.s": self_of("emst"),
        "emst.delaunay_s": sum(s.duration for s in named("emst.delaunay")),
        "emst.thresholds": k,
        "decision.calls": len(named("decision.forest")),
        "decision.forest_s": self_of("decision.forest"),
        "decision.candidates_s": self_of("decision.candidates"),
        "solver.search_s": self_of("solver.search"),
        "solver.search_depth": field_of("threshold_index") / (k + 1),
        "solver.assemble_s": assemble,
        "solver.candidates": field_of("candidate_count"),
        "trace.solve_s": root.duration,
    }
    m["emst.rest_s"] = m["emst.s"] - m["emst.delaunay_s"]
    covered = (
        m["geometry.validate_s"] + m["yao.s"] + m["emst.s"] + m["decision.forest_s"]
        + m["decision.candidates_s"] + m["solver.search_s"] + m["solver.assemble_s"]
    )
    m["trace.coverage"] = covered / root.duration
    return m
