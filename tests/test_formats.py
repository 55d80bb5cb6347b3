import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsteiner.formats import (
    emit_instance,
    emit_solution,
    parse_instance,
    parse_solution,
    render_svg,
    solution_document,
)
from bsteiner.generators import gen_random_instance
from bsteiner.geometry import MAX_ABS, MIN_ABS, as_points
from bsteiner.solver import solve


def test_parse_json_example():
    P, S = parse_instance('{"P":[[1,0]],"S":[[0,0]]}')
    assert P.tolist() == [[1.0, 0.0]]
    assert S.tolist() == [[0.0, 0.0]]


def test_parse_text_example():
    P, S = parse_instance("1 1\n1 0\n0 0")
    assert P.tolist() == [[1.0, 0.0]]
    assert S.tolist() == [[0.0, 0.0]]


def test_parse_accepts_metadata():
    P, S = parse_instance('{"P":[[1,0]],"S":[[0,0]],"metadata":{"name":"x"}}')
    assert len(P) == len(S) == 1


def test_parse_error_messages():
    with pytest.raises(ValueError, match="disjoint"):
        solve(*parse_instance('{"P":[[0,0]],"S":[[0,0]]}'))
    with pytest.raises(ValueError, match="malformed JSON"):
        parse_instance('{"P": [[1,0]')
    with pytest.raises(ValueError, match=r"S\[1\]"):
        solve(*parse_instance('{"P":[[1,0]],"S":[[0,0],[NaN,0]]}'))
    with pytest.raises(ValueError, match=r"P\[0\]: expected"):
        parse_instance('{"P":[[1]],"S":[[0,0]]}')
    with pytest.raises(ValueError, match="non-empty"):
        solve(*parse_instance('{"P":[],"S":[[0,0]]}'))
    with pytest.raises(ValueError, match="missing key"):
        parse_instance('{"P":[[1,0]]}')
    with pytest.raises(ValueError, match="line 2"):
        parse_instance("1 1\nfoo bar\n0 0")
    with pytest.raises(ValueError, match="header"):
        parse_instance("1\n1 0")
    with pytest.raises(ValueError, match="point lines"):
        parse_instance("2 1\n1 0\n0 0")
    with pytest.raises(ValueError, match="empty"):
        parse_instance("   \n  ")


# every coordinate the instance contract admits, including -0.0 and both
# ends of each magnitude range
coordinate = st.one_of(
    st.sampled_from([0.0, -0.0, MIN_ABS, -MIN_ABS, MAX_ABS, -MAX_ABS]),
    st.floats(min_value=MIN_ABS, max_value=MAX_ABS).flatmap(
        lambda x: st.sampled_from([x, -x])
    ),
)
point_rows = st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=8)


@settings(max_examples=100)
@given(point_rows, point_rows, st.dictionaries(st.text(max_size=5), st.integers()))
def test_emit_instance_roundtrips_bytewise(P_rows, S_rows, metadata):
    P = np.array(P_rows, dtype=np.float64)
    S = np.array(S_rows, dtype=np.float64)
    P2, S2 = parse_instance(emit_instance(P, S, metadata))
    for a, b in ((P, P2), (S, S2)):
        assert b.dtype == np.float64 and b.shape == a.shape
        assert b.tobytes() == a.tobytes()


def test_text_format_blank_lines_ok():
    P, S = parse_instance("2 1\n\n1 0\n3 0\n\n0 0\n")
    assert len(P) == 2 and len(S) == 1


def test_emit_canonical_and_roundtrip():
    r = solve([(1, 0)], [(0, 0)])
    out = emit_solution(r)
    assert out.startswith('{"bottleneck":1.0,')
    assert '"external_edges":[[0,0]]' in out
    assert '"skeleton_edges":[]' in out
    doc = parse_solution(out)
    assert doc == solution_document(r)
    assert emit_solution(r) == out  # stable bytes


def test_roundtrip_random_instances():
    rng = np.random.default_rng(40)
    for _ in range(10):
        P, S = gen_random_instance(
            int(rng.integers(1, 15)), int(rng.integers(1, 15)), 30.0,
            seed=int(rng.integers(1 << 31)),
        )
        r = solve(P, S)
        doc = parse_solution(emit_solution(r))
        assert doc == solution_document(r)
        back = json.loads(emit_solution(r))
        assert back["bottleneck"] == doc["bottleneck"]
        assert [p for p, _ in doc["external_edges"]] == list(range(len(P)))
        skel = [tuple(e) for e in doc["skeleton_edges"]]
        assert skel == sorted(skel)


def test_parse_solution_rejects_incomplete():
    with pytest.raises(ValueError, match="missing keys"):
        parse_solution('{"bottleneck": 1.0}')


@settings(max_examples=50)
@given(st.floats(min_value=1e-9, max_value=1e12))
def test_bottleneck_serialization_roundtrips(x):
    assert json.loads(json.dumps(x)) == x


def count_tags(svg):
    root = ET.fromstring(svg)
    circles = sum(1 for e in root.iter() if e.tag.endswith("circle"))
    lines = sum(1 for e in root.iter() if e.tag.endswith("line"))
    return circles, lines


def test_svg_single_edge():
    P, S = as_points([(1, 0)]), as_points([(0, 0)])
    svg = render_svg(solve(P, S).tree)
    assert count_tags(svg) == (2, 1)


def test_svg_collinear():
    P, S = as_points([(-1, 0), (3, 0)]), as_points([(0, 0), (1, 0), (2, 0)])
    svg = render_svg(solve(P, S).tree)
    assert count_tags(svg) == (5, 4)
    assert svg.count("#d62728") == 1  # exactly one highlighted edge


def test_svg_well_formed_random():
    rng = np.random.default_rng(41)
    for _ in range(5):
        P, S = gen_random_instance(
            int(rng.integers(1, 12)), int(rng.integers(1, 12)), 20.0,
            seed=int(rng.integers(1 << 31)),
        )
        svg = render_svg(solve(P, S).tree)
        ET.fromstring(svg)  # raises on malformed XML
        assert "viewBox" in svg
