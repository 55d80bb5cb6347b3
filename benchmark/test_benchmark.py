"""Tests of the benchmark itself; run with `python3 -m pytest benchmark`."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from bsteiner import solve  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def result_of(out) -> dict:
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_decides_instances(name):
    wl = WORKLOADS[name]
    for make in (lambda seed: wl.instance(seed, 1), wl.small_instance):
        a, b, c = make(1), make(1), make(2)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not any(np.array_equal(x, z) for x, z in zip(a, c))
    assert not np.array_equal(wl.instance(1, 1)[1], wl.instance(1, 2)[1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counters_repeat(name):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = [result_of(run_bench("--workload", name, "--seed", "7", "--seconds", "0", "--trace", "1"))
            for _ in range(2)]
    for r in runs:
        assert r["correct"] and r["failed"] == 0
        assert list(r["metrics"]) == [m["name"] for m in spec["per_layer"]]
        assert r["metrics"]["trace.coverage"]["value"] > 0.95
    counters = [{k: r["metrics"][k]["value"] for k in tracing.COUNTERS} for r in runs]
    assert counters[0] == counters[1]


def test_end_to_end_metrics_named_in_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    r = result_of(run_bench("--workload", "hull", "--seed", "3", "--seconds", "0", "--trace", "0"))
    assert r["correct"] and r["attempted"] >= 2 and r["failed"] == 0
    for m in spec["end_to_end"]:
        got = r["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_absent_name_is_reported(monkeypatch):
    real = tracing._targets
    monkeypatch.setattr(
        tracing, "_targets", lambda t: real(t) + [(tracing.solver, "no_such_name", lambda fn: fn)]
    )
    P, S = WORKLOADS["uniform"].small_instance(1)
    report, tracer, absent = tracing.traced_solve(P, S)
    assert absent == ["solver.no_such_name"]
    assert report.lambda_star == solve(P, S).lambda_star
    assert not hasattr(tracing.solver, "no_such_name")
    assert tracing.solver.yao_bipartite is tracing.yao.yao_bipartite  # originals restored


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("--workload", "uniform", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=tmp_path, script=tmp_path / "benchmark" / "run.py")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
