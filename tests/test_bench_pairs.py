"""tools/bench_pairs.py: the summary of alternating benchmark pairs."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
           {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}]


def record(wall: float, rss: float, failed: int = 0) -> dict:
    return {"result": {"attempted": 10, "failed": failed,
                       "metrics": {"wall_s": {"value": wall, "unit": "s"},
                                   "peak_rss_mb": {"value": rss, "unit": "MB"}}}}


def clean_pairs(count: int) -> list[dict]:
    """``count`` pairs in which the change is 2 s faster and 7.5% larger."""
    return [{"parent": record(7.0 + 0.1 * i, 40.0), "change": record(5.0 + 0.1 * i, 43.0)}
            for i in range(count)]


def test_gain_wins_and_bounds():
    pairs = clean_pairs(10)
    pairs[3]["change"] = record(7.5, 43.0)  # one lost pair
    summary = bench_pairs.summarize(pairs, METRICS)
    assert summary["pairs"] == summary["completed_pairs"] == 10
    wall = summary["wall_s"]
    assert (wall["wins"], wall["losses"]) == (9, 1)
    assert wall["parent_quartiles"][1] == 7.45
    assert wall["gain_holds"] and wall["gap_exceeds_parent_iqr"]
    assert not wall["worse_beyond_bound"] and not wall["unresolved"]
    rss = summary["peak_rss_mb"]
    assert rss["wins"] == 0 and not rss["gain_holds"]
    assert rss["worse_beyond_bound"]  # 7.5% worse against a 5% bound


def test_no_gain_from_fewer_than_ten_pairs():
    summary = bench_pairs.summarize(clean_pairs(3), METRICS)
    wall = summary["wall_s"]
    assert wall["wins"] == 3 and wall["gap_exceeds_parent_iqr"]
    assert not wall["gain_holds"]


def test_failed_run_loses_its_pair_and_the_gain():
    pairs = clean_pairs(10)
    pairs.append({"parent": record(7.0, 40.0), "change": {"error": "exit 1: boom"}})
    summary = bench_pairs.summarize(pairs, METRICS)
    assert summary["pairs"] == 11 and summary["completed_pairs"] == 10
    assert summary["change_operations"] == {"attempted": 100, "failed": 0, "failed_runs": 1}
    wall = summary["wall_s"]
    assert wall["wins"] == 10  # ten of eleven pairs: still above nine tenths
    assert not wall["gain_holds"]  # but the change has a failed run the parent has not


def test_wins_count_over_all_pairs():
    pairs = clean_pairs(10)
    pairs[0]["parent"] = {"error": "exit 1: boom"}
    pairs[1]["change"] = {"error": "exit 1: boom"}  # as many failed runs on each side
    summary = bench_pairs.summarize(pairs, METRICS)
    wall = summary["wall_s"]
    assert summary["completed_pairs"] == wall["wins"] == 8
    assert not wall["gain_holds"]  # 8 of 10 pairs, though all 8 completed ones


def test_failed_operation_voids_the_gain():
    pairs = clean_pairs(10)
    pairs[3]["change"] = record(5.3, 43.0, failed=1)
    summary = bench_pairs.summarize(pairs, METRICS)
    assert summary["change_operations"]["failed"] == 1
    assert summary["wall_s"]["wins"] == 10 and not summary["wall_s"]["gain_holds"]


def test_spread_wider_than_the_bound_is_unresolved():
    pairs = clean_pairs(10)
    for i, pair in enumerate(pairs):
        pair["parent"] = record(7.0, 40.0 + 2.0 * i)  # IQR 10 MB about a median of 49
    summary = bench_pairs.summarize(pairs, METRICS)
    assert summary["peak_rss_mb"]["unresolved"]
    assert not summary["wall_s"]["unresolved"]


def test_wide_spread_is_resolved_when_every_run_is_better():
    pairs = [{"parent": record(7.0 + i, 40.0), "change": record(1.0 + 0.5 * i, 40.0)}
             for i in range(10)]  # the parent's IQR is 4.5 s about a median of 11.5 s
    summary = bench_pairs.summarize(pairs, METRICS)
    assert not summary["wall_s"]["unresolved"]
    pairs[0]["change"] = record(7.5, 40.0)  # one change run slower than a parent run
    assert bench_pairs.summarize(pairs, METRICS)["wall_s"]["unresolved"]


def test_quartiles_of_one_value():
    assert bench_pairs.quartiles([2.0]) == [2.0, 2.0, 2.0]
