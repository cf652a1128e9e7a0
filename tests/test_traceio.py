"""Trace serialization: coordinate layouts, decimation, JSON payloads."""

from __future__ import annotations

import csv
import io
import json
import math
import tracemalloc

import pytest

from cycproj import ChainPoint, ProductPoint, StarPoint, build_scenario, iterate, traceio, verdict
from cycproj.traceio import (_json_value, read_trace_csv, summary_dict, write_json,
                             write_trace_csv, write_trace_json)

# the writers encode this many rows or items at a time; a writer without blocks is
# checked at the same sizes
BLOCK = getattr(traceio, "_BLOCK", 512)
EDGES = (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1)
SCENARIOS = ("tripod", "twisted-chain", "plane-two-sets", "two-lines")


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


def cell_by_cell_columns(path) -> dict[str, list]:
    """A trace CSV's columns by ``csv.reader``, a cell at a time: floats, None for empty."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        headers = next(reader)
        columns = {h: [] for h in headers}
        for row in reader:
            for h, cell in zip(headers, row):
                columns[h].append(float(cell) if cell else None)
    return columns


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("rows", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("name", SCENARIOS)
def test_reader_matches_a_cell_by_cell_reader_at_block_edges(tmp_path, name, rows, stride):
    scenario = build_scenario(name)
    trace = iterate(scenario.space, scenario.sets, scenario.start(), rows - 1, stride=stride)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    columns = read_trace_csv(path)
    assert len(columns["n"]) == rows
    assert repr(columns) == repr(cell_by_cell_columns(path))  # bit for bit, -0.0 included


def test_reader_matches_a_cell_by_cell_reader_on_overflowed_columns(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(overflow_trace(5)[1], path)
    columns = read_trace_csv(path)
    assert math.isinf(columns["r"][0]) and columns["s"][0] is None
    assert repr(columns) == repr(cell_by_cell_columns(path))


def block_rows(count: int) -> list[str]:
    """The header and ``count`` well-formed rows of a plane trace CSV."""
    return ["n,r,s,a,b,x,y", *(f"{i},0.5,,,0.25,1.0,0.0" for i in range(count))]


@pytest.mark.parametrize("cells", [8, 6], ids=["too-wide", "too-short"])
def test_wrong_width_in_the_second_block_names_its_line(tmp_path, cells):
    lines = block_rows(BLOCK + 10)
    lines[BLOCK + 6] = ",".join(["1"] * cells)  # row BLOCK + 5, on line BLOCK + 7
    path = tmp_path / "ragged.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"ragged.csv: line {BLOCK + 7} has {cells} cells, "
                                         "the header has 7"):
        read_trace_csv(path)


def test_the_first_fault_in_file_order_is_reported(tmp_path):
    # a bad y above a bad r, both above a short row, all in the second block
    lines = block_rows(BLOCK + 10)
    lines[BLOCK + 3] = f"{BLOCK + 2},0.5,,,0.25,1.0,first"
    lines[BLOCK + 5] = f"{BLOCK + 4},second,,,0.25,1.0,0.0"
    lines[BLOCK + 7] = "1,0.5"
    path = tmp_path / "faults.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="could not convert string to float: 'first'"):
        read_trace_csv(path)


def expected_csv(trace) -> bytes:
    """The trace's CSV by ``csv.writer``, a row at a time: ``repr`` cells, empty for
    NaN, for a step past the end and for the coordinates of a point not stored."""
    def cell(value) -> str:
        return "" if math.isnan(value) else repr(float(value))

    names = trace.space.coord_names
    stored = dict(zip(trace.point_indices.tolist(), trace.coords))
    columns = [() if col is None else col for col in (trace.r, trace.s, trace.a, trace.b)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "r", "s", "a", "b", *names])
    for i in range(trace.completed + 1):
        writer.writerow([str(i), *(cell(col[i]) if i < len(col) else "" for col in columns),
                         *(map(cell, stored[i]) if i in stored else [""] * len(names))])
    return buf.getvalue().encode()


def expected_json(payload) -> bytes:
    """``json.dumps`` of the payload after the non-finite rule, in one piece."""
    clean = list(map(_json_value, payload)) if isinstance(payload, list) else _json_value(payload)
    return (json.dumps(clean, sort_keys=True, allow_nan=False) + "\n").encode()


def overflow_trace(n: int):
    """A two-lines trace whose first step overflows: its columns hold inf and NaN."""
    scenario = build_scenario("two-lines")
    start = scenario.space.from_coords([-1.7e308, 1.7e308])
    return scenario, iterate(scenario.space, scenario.sets, start, n)


def trace_and_summary(scenario, trace):
    return trace, summary_dict(trace, verdict(trace), scenario=scenario.name,
                               params=dict(scenario.params))


def assert_writes_expected_bytes(tmp_path, trace, summary):
    csv_path, json_path = tmp_path / "trace.csv", tmp_path / "trace.json"
    write_trace_csv(trace, csv_path)
    assert csv_path.read_bytes() == expected_csv(trace)
    write_trace_json(trace, summary, json_path)
    assert json_path.read_bytes() == expected_json({**summary, "trace": {
        "point_indices": trace.point_indices, "points": trace.coords,
        "r": trace.r, "s": trace.s, "a": trace.a, "b": trace.b}})


@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize("cycles", EDGES)
@pytest.mark.parametrize("name", SCENARIOS)
def test_writers_are_byte_identical_at_block_edges(tmp_path, name, cycles, stride):
    scenario = build_scenario(name)
    trace = iterate(scenario.space, scenario.sets, scenario.start(), cycles, stride=stride)
    assert_writes_expected_bytes(tmp_path, *trace_and_summary(scenario, trace))


def test_writers_are_byte_identical_on_overflowed_columns(tmp_path):
    trace, summary = trace_and_summary(*overflow_trace(5))
    assert math.isinf(trace.r[0]) and math.isnan(trace.s[0])
    assert_writes_expected_bytes(tmp_path, trace, summary)


@pytest.mark.parametrize("entries", EDGES)
def test_sweep_list_is_byte_identical_at_block_edges(tmp_path, entries):
    runs = [trace_and_summary(*overflow_trace(1))[1]]  # final_r and liminf_r are inf
    for name in SCENARIOS:
        scenario = build_scenario(name)
        runs.append(trace_and_summary(scenario, iterate(scenario.space, scenario.sets,
                                                        scenario.start(), 20))[1])
    sweep = [{**runs[i % len(runs)], "grid_index": i} if i % 7 else
             {"error": "epsilon must be positive, got -1.0", "grid_index": i}
             for i in range(entries)]
    path = tmp_path / "sweep.json"
    write_json(sweep, path)
    assert path.read_bytes() == expected_json(sweep)


def peak_mib(write) -> float:
    """The tracemalloc peak of one call of ``write``, in MiB."""
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_export_memory_is_bounded(tmp_path):
    # every point stored (stride 1), so the CSV writer must not hold all their indices;
    # encoding each list in one piece peaks at 6.7 MiB for JSON here
    scenario = build_scenario("plane-two-sets")
    trace, summary = trace_and_summary(scenario, iterate(scenario.space, scenario.sets,
                                                         scenario.start(), 50_000))
    assert trace.stride == 1
    assert peak_mib(lambda: write_trace_json(trace, summary, tmp_path / "trace.json")) < 2.0
    assert peak_mib(lambda: write_trace_csv(trace, tmp_path / "trace.csv")) <= 1.61
