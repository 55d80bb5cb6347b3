import argparse
import json
import re
from pathlib import Path

import pytest

from bsteiner import cli, solver
from bsteiner.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text('{"P":[[-1,0],[3,0]],"S":[[0,0],[1,0],[2,0]]}')
    return path


def test_solve_outputs_solution(instance_file, capsys):
    assert main(["solve", "--input", str(instance_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bottleneck"] == 1.0
    assert doc["skeleton_edges"] == [[0, 1], [1, 2]]


def test_solve_writes_files(instance_file, tmp_path, capsys):
    svg = tmp_path / "out.svg"
    sol = tmp_path / "sol.json"
    assert main([
        "solve", "--input", str(instance_file),
        "--svg", str(svg), "--json", str(sol),
    ]) == 0
    capsys.readouterr()
    assert svg.read_text().startswith("<svg")
    assert json.loads(sol.read_text())["bottleneck"] == 1.0


def test_solve_text_format(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_text("1 1\n1 0\n0 0\n")
    assert main(["solve", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["bottleneck"] == 1.0


def test_decide_verdicts(instance_file, capsys):
    assert main(["decide", "--input", str(instance_file), "--lambda", "1.5"]) == 0
    out = capsys.readouterr().out
    assert "J = [0]" in out and "lambda* < lambda" in out
    assert main(["decide", "--input", str(instance_file), "--lambda", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "J = []" in out and "lambda* >= lambda" in out


def test_decide_rejects_bad_threshold(instance_file, capsys):
    assert main(["decide", "--input", str(instance_file), "--lambda", "-2"]) == 2


@pytest.mark.parametrize("lam", ["0", "-1", "nan"])
def test_decide_rejects_bad_threshold_before_preprocessing(instance_file, monkeypatch, capsys, lam):
    calls = []
    monkeypatch.setattr(cli, "preprocess", lambda *a: calls.append(a))
    assert main(["decide", "--input", str(instance_file), "--lambda", lam]) == 2
    assert "threshold must be positive" in capsys.readouterr().err
    assert calls == []


def test_decide_threshold_squaring_to_zero(instance_file, capsys):
    # 1e-170 squares to 0.0, yet every squared distance is far above it
    assert main(["decide", "--input", str(instance_file), "--lambda", "1e-170"]) == 0
    out = capsys.readouterr().out
    assert "J = []" in out and "lambda* >= lambda" in out


def test_oracle_agrees_with_solve(instance_file, capsys):
    assert main(["oracle", "--input", str(instance_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bottleneck"] == 1.0


def test_oracle_skeleton_edges_ascend(tmp_path, capsys):
    # Kruskal takes the light edge (1, 2) before (0, 1); the document lists
    # edges in ascending index order, as `solve` does
    path = tmp_path / "inst.json"
    path.write_text('{"P":[[-1,0],[7,0]],"S":[[0,0],[5,0],[6,0]]}')
    assert main(["oracle", "--input", str(path)]) == 0
    oracle = json.loads(capsys.readouterr().out)
    assert oracle["skeleton_edges"] == [[0, 1], [1, 2]]
    assert oracle["component_vertices"] == [0, 1, 2]
    assert main(["solve", "--input", str(path)]) == 0
    solved = json.loads(capsys.readouterr().out)
    for key in ("bottleneck", "skeleton_edges", "external_edges"):
        assert oracle[key] == solved[key]


@pytest.mark.parametrize("argv", [
    ["solve"],
    ["decide", "--lambda", "1.5"],
    ["oracle"],
])
def test_each_command_validates_once(instance_file, monkeypatch, capsys, argv):
    calls = []
    original = solver.check_disjoint

    def counting(P, S):
        calls.append(1)
        return original(P, S)

    monkeypatch.setattr(solver, "check_disjoint", counting)
    assert main([argv[0], "--input", str(instance_file), *argv[1:]]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def _subcommands(parser):
    return next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def test_readme_cli_flags_exist():
    """Every --flag in README's CLI block is accepted by its subcommand."""
    block = re.search(r"## CLI\n\n```bash\n(.*?)```", README.read_text(), re.S).group(1)
    commands = _subcommands(build_parser())
    rejected = []
    for line in block.splitlines():
        words = line.split()
        assert words[0] == "bsteiner"
        sub = commands[words[1]]
        # `gen {a|b|c} ...`: the flags belong to every listed kind
        kinds = re.fullmatch(r"\{(.*)\}", words[2]) if len(words) > 2 else None
        parsers = [_subcommands(sub)[k] for k in kinds.group(1).split("|")] if kinds else [sub]
        for flag in re.findall(r"--[a-z][a-z-]*", line):
            if not all(flag in p._option_string_actions for p in parsers):
                rejected.append((words[1], flag))
    assert rejected == []


def test_gen_maxgap_roundtrip(tmp_path, capsys):
    out = tmp_path / "mg.json"
    assert main([
        "gen", "maxgap", "--values", "0,1,5,6", "--n", "4",
        "--seed", "3", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    meta = json.loads(out.read_text())["metadata"]
    assert meta["expected_bottleneck"] == 4.0
    assert main(["solve", "--input", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["bottleneck"] == 4.0


def test_gen_membership_and_random(tmp_path, capsys):
    out = tmp_path / "mem.json"
    assert main([
        "gen", "membership", "--f", "1,3", "--m", "3", "--out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert doc["P"] == [[0, 0], [4, 0], [1, 1], [3, 1]]
    assert main(["gen", "random", "--n", "4", "--m", "6", "--seed", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["P"]) == 4 and len(doc["S"]) == 6


def test_gen_membership_perturb(tmp_path, capsys):
    out = tmp_path / "mem.json"
    assert main([
        "gen", "membership", "--f", "1,3", "--m", "3",
        "--perturb", "1:1.5,1.0", "--out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert [1.5, 1.0] in doc["P"]


@pytest.mark.parametrize("argv, message", [
    (["gen", "random", "--n", "4", "--m", "6", "--extent", "inf"],
     "extent must be positive and finite"),
    (["gen", "membership", "--f", "1,3", "--m", "3", "--perturb", "1:inf,1"],
     "perturbed point must be finite"),
    (["gen", "membership", "--f", "1,3", "--m", "3", "--perturb", "1:nan,1"],
     "perturbed point must be finite"),
], ids=["extent-inf", "perturb-inf", "perturb-nan"])
def test_gen_rejects_non_finite_arguments(argv, message, capsys):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_gen_never_writes_non_finite_json(tmp_path, capsys):
    # the gap between -1e308 and 1e308 overflows to inf
    out = tmp_path / "mg.json"
    assert main(["gen", "maxgap", "--values=-1e308,1e308", "--out", str(out)]) == 2
    assert "JSON" in capsys.readouterr().err
    assert not out.exists()


def test_bench_csv_output(capsys):
    assert main(["bench", "--sizes", "48,96", "--seed", "1", "--reps", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "N,median_ns,ratio_vs_prev"
    assert len(lines) == 3


def test_exit_codes(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["solve", "--input", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"P":[[0,0]],"S":[[0,0]]}')
    assert main(["solve", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "disjoint" in err
    # coordinates the float arithmetic cannot hold are rejected up front
    cases = {
        '{"P":[[1e160,0]],"S":[[0,1e160],[-1e160,5e159]]}': "P[0]",
        '{"P":[[0,1],[2,0]],"S":[[0,0],[1e-170,3e-170]]}': "S[1]",
        '{"P":[[1,0]],"S":[[0,1],[1' + "0" * 400 + ',0]]}': "S[1]",
        '{"P":[[1,0],[true,0]],"S":[[0,1]]}': "P[1]",
    }
    for text, where in cases.items():
        bad.write_text(text)
        assert main(["solve", "--input", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {where}:")
