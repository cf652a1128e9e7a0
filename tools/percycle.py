"""Print the cost of one cycle per scenario: README's per-cycle table.

    python3 tools/percycle.py

Each of tripod, twisted-chain and plane-two-sets, with its default
parameters, runs ``iterate`` for 2 000 cycles from its default start 15
times.  The table gives the fastest run's time per cycle, in µs, and the
slowest for a sense of the spread.  The library is imported from this
checkout's ``src/``.
"""

from __future__ import annotations

import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cycproj import build_scenario, iterate  # noqa: E402

SCENARIOS = ("tripod", "twisted-chain", "plane-two-sets")
RUNS = 15
CYCLES = 2000


def per_cycle_us(name: str, runs: int, cycles: int) -> list[float]:
    """µs per cycle of each of ``runs`` runs of ``cycles`` cycles of ``name``."""
    scenario = build_scenario(name)
    space, sets, start = scenario.space, scenario.sets, scenario.start()
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        trace = iterate(space, sets, start, cycles)
        elapsed = time.perf_counter() - t0
        if trace.failed:
            raise RuntimeError(f"{name} failed after {trace.completed} cycles: {trace.failure}")
        times.append(elapsed / cycles * 1e6)
    return times


def main(runs: int = RUNS, cycles: int = CYCLES) -> int:
    print(f"# min of {runs} runs of {cycles}-cycle iterate; Python "
          f"{platform.python_version()}, {platform.machine()}")
    print(f"{'scenario':<16} {'min us/cycle':>12} {'max us/cycle':>12}")
    for name in SCENARIOS:
        times = per_cycle_us(name, runs, cycles)
        print(f"{name:<16} {min(times):>12.2f} {max(times):>12.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
