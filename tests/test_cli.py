import json

import pytest

from bsteiner.cli import main


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
    assert main(["solve", "--input", str(path), "--text"]) == 0
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


def test_oracle_agrees_with_solve(instance_file, capsys):
    assert main(["oracle", "--input", str(instance_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bottleneck"] == 1.0


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
