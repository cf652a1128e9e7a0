"""Print the cost of one cycle per scenario and of one projector call per
solver tag: README's per-cycle table, and the per-call layer below it.

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
``newton`` from (1, 0) onto the plane's epigraph.  The library is imported
from this checkout's ``src/``.
"""

from __future__ import annotations

import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cycproj import PlanePoint, build_scenario, iterate, project, project_segment_generic  # noqa: E402

SCENARIOS = ("tripod", "twisted-chain", "plane-two-sets")
# (row label, scenario, stride): the first table's rows
ROWS = (*((name, name, 1) for name in SCENARIOS),
        ("plane-two-sets:stride=100", "plane-two-sets", 100))
RUNS = 15
CYCLES = 2000
CALLS = 200


def per_cycle_us(name: str, runs: int, cycles: int, stride: int = 1) -> list[float]:
    """µs per cycle of each of ``runs`` runs of ``cycles`` cycles of ``name``."""
    scenario = build_scenario(name)
    space, sets, start = scenario.space, scenario.sets, scenario.start()
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        trace = iterate(space, sets, start, cycles, stride=stride)
        elapsed = time.perf_counter() - t0
        if trace.failed:
            raise RuntimeError(f"{name} failed after {trace.completed} cycles: {trace.failure}")
        times.append(elapsed / cycles * 1e6)
    return times


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
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        for _ in range(calls):
            projector(*args)
        times.append((time.perf_counter() - t0) / calls * 1e6)
    return times


def main(runs: int = RUNS, cycles: int = CYCLES) -> int:
    print(f"# min of {runs} runs of {cycles}-cycle iterate; Python "
          f"{platform.python_version()}, {platform.machine()}")
    print(f"{'scenario':<25} {'min us/cycle':>12} {'max us/cycle':>12}")
    for label, name, stride in ROWS:
        times = per_cycle_us(name, runs, cycles, stride)
        print(f"{label:<25} {min(times):>12.2f} {max(times):>12.2f}")
    print(f"# min of {runs} runs of {CALLS} projector calls")
    print(f"{'solver':<25} {'min us/call':>12} {'max us/call':>12}")
    for tag, projector, args in projector_calls():
        times = per_call_us(tag, projector, args, runs, CALLS)
        print(f"{tag:<25} {min(times):>12.2f} {max(times):>12.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
