"""Trace serialization: coordinate layouts, decimation, JSON payloads."""

from __future__ import annotations

import math

import pytest

from cycproj import ChainPoint, ProductPoint, StarPoint, build_scenario, iterate, verdict
from cycproj.traceio import (read_trace_csv, summary_dict, write_json, write_trace_csv,
                             write_trace_json)


def decode_edges(name, space):
    """Points beside the default start that ``trace.points`` must decode bit
    for bit: chain heights 1 to 3 ulps below the circumference, which
    ``TwistedChain.point``'s reduction to [0, circumference) must keep, and
    tree-product points with a factor at its center, whose leg and -0.0
    offset ``StarPoint`` canonicalises to (0, 0.0)."""
    if name == "twisted-chain":
        heights = [space.circumference]
        for _ in range(3):
            heights.append(math.nextafter(heights[-1], 0.0))
        return [ChainPoint(0.06, -0.07, h) for h in heights[1:]]
    if name == "tripod":
        center, out = StarPoint(2, -0.0), StarPoint(2, 0.25)
        return [ProductPoint(center, out), ProductPoint(out, center),
                ProductPoint(center, center)]
    return []


@pytest.mark.parametrize("name, params, expected_headers", [
    ("plane-two-sets", {"epsilon": 0.5}, ["x", "y"]),
    ("tripod", {}, ["left_leg", "left_offset", "right_leg", "right_offset"]),
    ("twisted-chain", {}, ["u", "v", "height"]),
])
def test_point_row_roundtrip(name, params, expected_headers):
    scenario = build_scenario(name, **params)
    space = scenario.space
    assert list(space.coord_names) == expected_headers
    for point in [scenario.start(), *decode_edges(name, space)]:
        row = space.to_coords(point)
        assert len(row) == len(expected_headers)
        back = space.from_coords(row)
        assert repr(back) == repr(point)  # bit for bit, -0.0 included
        assert space.to_coords(back) == row


@pytest.mark.parametrize("name, values", [
    ("tripod", [7.0, 0.3, 0.0, 0.2]),    # leg 7 of a 3-leg tree
    ("tripod", [0.7, 0.3, 0.0, 0.2]),    # non-integral leg
    ("tripod", [0.0, 1.5, 1.0, 0.2]),    # offset longer than its unit leg
    ("twisted-chain", [0.2, 0.0, 1.0]),  # outside the disc of radius 0.1
])
def test_from_coords_rejects_points_off_the_space(name, values):
    with pytest.raises(ValueError):
        build_scenario(name).space.from_coords(values)


@pytest.mark.parametrize("name", ["tripod", "twisted-chain"])
def test_csv_roundtrip_recomputes_steps(tmp_path, name):
    scenario = build_scenario(name)
    trace = iterate(scenario.space, scenario.sets, scenario.start(), 30)
    path = tmp_path / f"{name}.csv"
    write_trace_csv(trace, path)
    columns = read_trace_csv(path)
    points = [
        scenario.space.from_coords([columns[h][i] for h in scenario.space.coord_names])
        for i in range(31)
    ]
    for i in range(30):
        d = scenario.space.distance(points[i], points[i + 1])
        assert abs(d - columns["r"][i]) <= 1e-9


def test_decimated_csv_has_empty_coordinate_cells(tmp_path):
    scenario = build_scenario("plane-two-sets", epsilon=0.5)
    trace = iterate(scenario.space, scenario.sets, scenario.start(), 100, stride=20)
    path = tmp_path / "decimated.csv"
    write_trace_csv(trace, path)
    columns = read_trace_csv(path)
    assert len(columns["n"]) == 101
    assert all(columns["r"][i] is not None for i in range(100))  # scalars kept
    stored = {int(i) for i in trace.point_indices}
    for i in (0, 1, 20, 21, 100):
        assert i in stored
        assert columns["x"][i] is not None
    assert columns["x"][7] is None  # decimated away


def test_json_payload_is_valid_json_with_nulls(tmp_path, strict_json):
    scenario = build_scenario("plane-two-sets", epsilon=0.5)
    trace = iterate(scenario.space, scenario.sets, scenario.start(), 10)
    summary = summary_dict(trace, verdict(trace), scenario=scenario.name,
                           params=dict(scenario.params))
    path = tmp_path / "trace.json"
    write_trace_json(trace, summary, path)
    payload = strict_json(path.read_text())
    assert payload["trace"]["a"][0] is None
    assert payload["trace"]["s"][0] is None
    assert len(payload["trace"]["r"]) == 10
    assert payload["n"] == 10


def test_write_json_spells_every_non_finite_value(tmp_path, strict_json):
    path = tmp_path / "sweep.json"
    write_json([{"final_r": -math.inf, "liminf_r": math.inf, "sums": {"r_sq": math.nan}},
                {"error": "bad", "grid_index": 1}], path)
    assert strict_json(path.read_text()) == [
        {"final_r": "-inf", "liminf_r": "inf", "sums": {"r_sq": None}},
        {"error": "bad", "grid_index": 1}]


def test_write_json_refuses_a_value_the_rule_does_not_reach(tmp_path):
    # a list passes as it is, so a non-finite value in one is refused, not written
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json({"points": [(math.inf, 0.0)]}, tmp_path / "bad.json")


@pytest.mark.parametrize("row", ["1,0.25,0.1", "1,0.25,0.1,,0.2,1.5,0.0,7"])
def test_csv_row_of_the_wrong_width_names_the_file_and_line(tmp_path, row):
    # a short row would shift every later value of its columns by one index
    path = tmp_path / "ragged.csv"
    path.write_text(f"n,r,s,a,b,x,y\n0,0.5,,,0.25,1.0,0.0\n{row}\n2,0.2,,,0.1,1.2,0.0\n")
    with pytest.raises(ValueError, match=r"ragged.csv: line 3 has \d cells, the header has 7"):
        read_trace_csv(path)


def test_empty_csv_names_the_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty.csv: empty trace file"):
        read_trace_csv(path)
