"""Print the cost of one cycle per scenario, of one projector call per
solver tag, of one exported row and of one diagnostics call: README's
per-cycle table, and the per-call, export and diagnostics layers below it.

    python3 tools/percycle.py

Each of tripod, twisted-chain and plane-two-sets, with its default
parameters, runs ``iterate`` for 2 000 cycles from its default start 15
times, storing every point; plane-two-sets runs once more at ``stride=100``,
the point storage of a 10^6-cycle run.  The first table gives the fastest
run's time per cycle, in µs, and the slowest for a sense of the spread.
The second times 200 calls of one fixed projection per solver tag, 15
times, in µs per call:
``exact_piecewise`` (``project``) and ``golden_section``
(``project_segment_generic``) from the tripod's start onto its first
segment, ``closed_form`` from the chain's start onto its second disc, and
``newton`` from (1, 0) onto the plane's epigraph; the ``newton:axis`` row
times the two-set kernel's axis solve ``_epigraph_feet``, per foot, over
200 feet from (100, 0) at epsilon 0.5.  The third times the
export layer on one 10^4-cycle twisted-chain trace from its default start,
15 times, in µs per row (cycle index 0..n): ``write_trace_csv``,
``write_trace_json`` and ``read_trace_csv`` of that CSV, and ``Trace.points``,
decoding every stored point (one per row) from a fresh copy of the trace;
its ``write_trace_csv:two-set`` and ``write_trace_json:two-set`` rows write a
plane-two-sets trace of the same length, whose ``s``, ``a`` and ``b`` columns
the chain's lacks.
The fourth times the diagnostics layer on one 10^5-cycle plane-two-sets
trace from its default start, 15 times, in µs per call:
``two_set_diagnostics``, ``rate_fit`` over [n/10, n] and ``verdict``.
The fifth times start-up, in ms of wall time per fresh interpreter, 15 of
each: ``import cycproj``, ``import cycproj.cli``, and ``python -m
cycproj.cli run tripod --n 1`` writing its trace to a temporary file.
Files go to a temporary directory.  The library is imported from this
checkout's ``src/``, and the fresh interpreters run with ``PYTHONPATH`` set to it.
"""

from __future__ import annotations

import dataclasses
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from cycproj import (  # noqa: E402
    PlanePoint, build_scenario, iterate, project, project_segment_generic, rate_fit,
    two_set_diagnostics, verdict)
from cycproj.projections import _epigraph_feet  # noqa: E402
from cycproj.traceio import (  # noqa: E402
    read_trace_csv, summary_dict, write_trace_csv, write_trace_json)

SCENARIOS = ("tripod", "twisted-chain", "plane-two-sets")
# (row label, scenario, stride): the first table's rows
ROWS = (*((name, name, 1) for name in SCENARIOS),
        ("plane-two-sets:stride=100", "plane-two-sets", 100))
RUNS = 15
CYCLES = 2000
CALLS = 200
EXPORT_CYCLES = 10_000
DIAGNOSTICS_CYCLES = 100_000


def per_cycle_us(name: str, runs: int, cycles: int, stride: int = 1) -> list[float]:
    """µs per cycle of each of ``runs`` runs of ``cycles`` cycles of ``name``."""
    scenario = build_scenario(name)
    space, sets, start = scenario.space, scenario.sets, scenario.start()

    def run() -> None:
        trace = iterate(space, sets, start, cycles, stride=stride)
        if trace.failed:
            raise RuntimeError(f"{name} failed after {trace.completed} cycles: {trace.failure}")

    return timed_us([(name, run)], runs, cycles)[0][1]


def projector_calls() -> list[tuple]:
    """(solver tag, projector, its arguments): one fixed projection per tag."""
    tripod, chain, plane = (build_scenario(name) for name in SCENARIOS)
    on_tripod = (tripod.space, tripod.sets[0], tripod.start())
    return [("exact_piecewise", project, on_tripod),
            ("golden_section", project_segment_generic, on_tripod),
            ("closed_form", project, (chain.space, chain.sets[1], chain.start())),
            ("newton", project, (plane.space, plane.sets[1], PlanePoint(1.0, 0.0)))]


def per_call_us(tag: str, projector, args: tuple, runs: int, calls: int) -> list[float]:
    """µs per call of each of ``runs`` runs of ``calls`` calls of ``projector(*args)``."""
    solver = projector(*args).solver
    if solver != tag:
        raise RuntimeError(f"the {tag} input ran {solver}")

    def run() -> None:
        for _ in range(calls):
            projector(*args)

    return timed_us([(tag, run)], runs, calls)[0][1]


def per_call_rows(runs: int):
    """(solver tag, µs per call of each of ``runs`` runs) per projector tag, then
    ``newton:axis``'s µs per foot of ``_epigraph_feet``."""
    for tag, projector, args in projector_calls():
        yield tag, per_call_us(tag, projector, args, runs, CALLS)
    yield from timed_us([("newton:axis", lambda: _epigraph_feet(0.5, 100.0, CALLS, [], []))],
                        runs, CALLS)


def timed_us(layers: list, runs: int, per: int) -> list[tuple[str, list[float]]]:
    """(layer, µs per unit of each of ``runs`` runs) of each (layer, call) in ``layers``,
    where one call does ``per`` units."""
    out = []
    for layer, run in layers:
        times = []
        for _ in range(runs):
            t0 = time.perf_counter()
            run()
            times.append((time.perf_counter() - t0) / per * 1e6)
        out.append((layer, times))
    return out


def run_and_summary(name: str, cycles: int):
    """A ``cycles``-cycle trace of ``name`` from its default start, and its summary."""
    scenario = build_scenario(name)
    trace = iterate(scenario.space, scenario.sets, scenario.start(), cycles)
    return trace, summary_dict(trace, verdict(trace), scenario=name,
                               params=dict(scenario.params))


def export_us(runs: int, cycles: int) -> list[tuple[str, list[float]]]:
    """(layer, µs per row of each of ``runs`` runs) on one ``cycles``-cycle chain trace,
    and of each writer on one plane-two-sets trace as long."""
    trace, summary = run_and_summary("twisted-chain", cycles)
    two_set, two_set_summary = run_and_summary("plane-two-sets", cycles)
    rows = trace.completed + 1
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, json_path = Path(tmp) / "trace.csv", Path(tmp) / "trace.json"
        two_set_csv = Path(tmp) / "two-set.csv"  # not csv_path, which read_trace_csv reads
        return timed_us([
            ("write_trace_csv", lambda: write_trace_csv(trace, csv_path)),
            ("write_trace_csv:two-set", lambda: write_trace_csv(two_set, two_set_csv)),
            ("write_trace_json", lambda: write_trace_json(trace, summary, json_path)),
            ("write_trace_json:two-set",
             lambda: write_trace_json(two_set, two_set_summary, json_path)),
            ("read_trace_csv", lambda: read_trace_csv(csv_path)),
            ("Trace.points", lambda: dataclasses.replace(trace).points)], runs, rows)


def diagnostics_us(runs: int, cycles: int) -> list[tuple[str, list[float]]]:
    """(call, µs per call of each of ``runs`` runs) on one ``cycles``-cycle
    plane-two-sets trace."""
    scenario = build_scenario("plane-two-sets")
    trace = iterate(scenario.space, scenario.sets, scenario.start(), cycles)
    return timed_us([("two_set_diagnostics", lambda: two_set_diagnostics(trace)),
                     ("rate_fit", lambda: rate_fit(trace, (cycles // 10, cycles))),
                     ("verdict", lambda: verdict(trace))], runs, 1)


def startup_ms(runs: int) -> list[tuple[str, list[float]]]:
    """(row, ms of wall time of each of ``runs`` fresh interpreters) per start-up row."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    with tempfile.TemporaryDirectory() as tmp:
        rows = [("import:cycproj", ["-c", "import cycproj"]),
                ("import:cycproj.cli", ["-c", "import cycproj.cli"]),
                ("run:tripod:n=1", ["-m", "cycproj.cli", "run", "tripod", "--n", "1",
                                    "--out", str(Path(tmp) / "tripod.csv")])]
        # one call is 1000 units, so timed_us's µs per unit are ms per call
        return timed_us([(label, lambda args=args: subprocess.run(
            [sys.executable, *args], env=env, check=True, stdout=subprocess.DEVNULL))
                         for label, args in rows], runs, 1000)


def print_table(heading: str, column: str, unit: str, rows) -> None:
    """Print ``heading``, the column titles and each (label, times) row's fastest
    and slowest time; ``rows`` may be lazy, so each row prints as it is timed."""
    print(heading)
    print(f"{column:<25} {'min ' + unit:>12} {'max ' + unit:>12}")
    for label, times in rows:
        print(f"{label:<25} {min(times):>12.2f} {max(times):>12.2f}")


def main(runs: int = RUNS, cycles: int = CYCLES, export_cycles: int = EXPORT_CYCLES,
         diagnostics_cycles: int = DIAGNOSTICS_CYCLES) -> int:
    print_table(f"# min of {runs} runs of {cycles}-cycle iterate; Python "
                f"{platform.python_version()}, {platform.machine()}", "scenario", "us/cycle",
                ((label, per_cycle_us(name, runs, cycles, stride)) for label, name, stride in ROWS))
    print_table(f"# min of {runs} runs of {CALLS} projector calls", "solver", "us/call",
                per_call_rows(runs))
    print_table(f"# min of {runs} runs on one {export_cycles}-cycle twisted-chain trace",
                "export layer", "us/row", export_us(runs, export_cycles))
    print_table(f"# min of {runs} runs on one {diagnostics_cycles}-cycle plane-two-sets trace",
                "diagnostics layer", "us/call", diagnostics_us(runs, diagnostics_cycles))
    print_table(f"# min of {runs} fresh interpreters", "start-up", "ms", startup_ms(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
