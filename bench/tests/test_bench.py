"""Tests of the benchmark itself: its gate, its shims and its contract."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import cycproj  # noqa: E402
import cycproj.cli  # noqa: E402
import cycproj.engine  # noqa: E402
import cycproj.projections  # noqa: E402
import cycproj.spaces  # noqa: E402
import cycproj.traceio  # noqa: E402
import cycproj.verify  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _tripod_trace(t: float, n: int):
    sc = cycproj.build_tripod_counterexample(3)
    first = sc.sets[0]
    trace = cycproj.iterate(sc.space, sc.sets, sc.space.geodesic(first.start, first.end, t), n)
    return trace, cycproj.verdict(trace)


def test_gate_rejects_one_altered_tripod_step():
    trace, v = _tripod_trace(0.1, 200)
    assert gate.check_tripod(trace, v, 0.1, 200) == []
    trace.r[57] += 1e-9
    assert gate.check_tripod(trace, v, 0.1, 200)


def test_gate_rejects_broken_two_set_chain():
    eps, n = 0.5, 2000
    sc = cycproj.build_plane_two_sets(eps)
    trace = cycproj.iterate(sc.space, sc.sets, sc.space.point(1.3, 0.0), n)

    def problems():
        return gate.check_two_set(trace, cycproj.two_set_diagnostics(trace),
                                  cycproj.rate_fit(trace, (n // 100, n)),
                                  cycproj.verdict(trace), eps, n)

    assert problems() == []
    trace.s[100] = trace.r[100] - 1e-9  # s_n >= r_n no longer holds
    assert any("inequalities" in p for p in problems())


def test_gate_rejects_csv_missing_a_row(tmp_path, capsys):
    n = 50
    path = tmp_path / "plane.csv"
    code = cycproj.cli.main(["run", "plane-two-sets", "--n", str(n), "--out", str(path)])
    stdout = capsys.readouterr().out
    assert gate.check_cli_csv(code, stdout, cycproj.traceio.read_trace_csv(path), n) == []

    lines = path.read_text().splitlines(keepends=True)
    del lines[20]
    path.write_text("".join(lines))
    assert gate.check_cli_csv(code, stdout, cycproj.traceio.read_trace_csv(path), n)


def test_gate_rejects_failed_sweep_entry():
    entries = [{"grid_index": 0, "failed": False}, {"grid_index": 1, "error": "boom"}]
    assert gate.check_cli_sweep(0, entries[:1], 1) == []
    assert gate.check_cli_sweep(0, entries, 2)


def _bindings():
    modules = [cycproj, cycproj.engine, cycproj.projections, cycproj.verify, cycproj.cli,
               cycproj.traceio]
    names = ["project", "project_segment_generic", "project_segment_tree_exact", "iterate",
             "two_set_diagnostics", "rate_fit", "verdict", "run_suite", "main",
             "write_trace_csv", "write_trace_json", "read_trace_csv"]
    found = {(m.__name__, n): getattr(m, n) for m in modules for n in names if hasattr(m, n)}
    for cls in (cycproj.Plane, cycproj.StarTree, cycproj.ProductSpace, cycproj.TwistedChain):
        found[(cls.__name__, "distance")] = cls.__dict__["distance"]
    return found


def test_shims_restore_every_binding_exactly():
    before = _bindings()
    project = cycproj.engine.project
    with pytest.raises(RuntimeError):
        with Tracer():
            assert cycproj.engine.project is not project
            assert cycproj.ProductSpace.__dict__["distance"] is not before[("ProductSpace",
                                                                            "distance")]
            raise RuntimeError("leave the block early")
    after = _bindings()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key


def test_traced_iterate_time_is_projection_distance_and_engine_self_time(tmp_path):
    inputs = dict(workloads.make_inputs("counterexamples", 1), tripod_cycles=300,
                  chain_cycles=200)
    ctx = workloads.Context(tmp=tmp_path, env={})
    w = workloads.WORKLOADS["counterexamples"]
    with Tracer() as tracer:
        ops, _ = w.check(inputs, w.run(inputs, ctx), ctx)
    assert all(problems == [] for _, problems in ops)

    assert tracer.totals("projections.exact_piecewise")[0] == 3 * 300
    assert tracer.totals("projections.closed_form")[0] == 3 * 200
    assert tracer.totals("projections.newton")[0] == 0
    # r_n per cycle, plus one distance inside each tripod projection
    assert tracer.totals("spaces.distance")[0] == 4 * 300 + 200
    assert tracer.totals("engine.iterate")[3] == 500
    accounting = run.iterate_accounting(tracer)
    assert math.isclose(accounting["accounted_s"], accounting["iterate_s"], rel_tol=1e-9)

    metrics = run.layer_metrics(tracer, 1, 1.0, 1.2, {})
    assert 0.0 < metrics["projections.share"] < 1.0
    assert metrics["trace.overhead_pct"] == pytest.approx(20.0)


def test_inputs_come_from_the_seed_alone():
    for name in workloads.WORKLOADS:
        assert workloads.make_inputs(name, 7) == workloads.make_inputs(name, 7)
        assert workloads.make_inputs(name, 7) != workloads.make_inputs(name, 8)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "two-set-long",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

