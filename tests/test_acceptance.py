"""Acceptance suite: one test per numbered criterion, one printed line each.

Long runs (a million cycles per epsilon) are computed once per session in
the ``long_two_set_runs`` fixture and shared across criteria 3 and 4.
Criteria 2, 5, 6, 7 and 8 report the seed-0 verify results of the
``seed0_suites`` fixture, which the golden digests share: ``cycproj.verify``
is the one definition of the tripod, chain and two-lines certificates.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they happen.
"""

from __future__ import annotations

import math
import time

import numpy as np

from cycproj import (
    build_tripod_counterexample,
    build_twisted_chain,
    iterate,
    project_segment_generic,
    rate_fit,
    two_set_diagnostics,
    verdict,
)


def report(num: int, clauses: list[tuple[str, bool]]) -> None:
    failed = [name for name, ok in clauses if not ok]
    status = "PASS" if not failed else "FAIL"
    detail = "" if not failed else f" [failing: {', '.join(failed)}]"
    print(f"[criterion {num}] {status} ({len(clauses) - len(failed)}/{len(clauses)} clauses)"
          f"{detail}")
    assert not failed, f"criterion {num} failed clauses: {failed}"


def suite_clauses(results, prefix: str = "") -> list[tuple[str, bool]]:
    """One clause per verify result whose name starts with ``prefix``."""
    return [(r.line(), r.passed) for r in results if r.name.startswith(prefix)]


def report_suite(num: int, run, limit: float, prefix: str = "") -> None:
    """Report a seed-0 suite's results named ``prefix*`` and its runtime against ``limit`` s."""
    results, elapsed = run
    report(num, [*suite_clauses(results, prefix),
                 (f"runtime {elapsed:.2f}s < {limit:g}s", elapsed < limit)])


def test_criterion_1_tripod_steps_stay_one():
    scenario = build_tripod_counterexample(3)
    space, start = scenario.space, scenario.start("endpoint")
    t0 = time.perf_counter()
    exact = iterate(space, scenario.sets, start, 100)
    # the same cycles with golden section forced on every segment
    generic_r, x = [], start
    for _ in range(100):
        y = x
        for cset in reversed(scenario.sets):
            y = project_segment_generic(space, cset, y).point
        generic_r.append(space.distance(x, y))
        x = y
    elapsed = time.perf_counter() - t0
    exact_err = float(np.abs(exact.r - 1.0).max())
    generic_err = float(np.abs(np.array(generic_r) - 1.0).max())
    report(1, [
        (f"exact |r-1| = {exact_err:.2e} <= 1e-9", exact_err <= 1e-9),
        (f"generic |r-1| = {generic_err:.2e} <= 1e-6", generic_err <= 1e-6),
        (f"runtime {elapsed:.2f}s < 1s", elapsed < 1.0),
    ])


def test_criterion_2_tripod_structure(seed0_suites):
    report_suite(2, seed0_suites["counterexamples"], 1.0, "tripod-")


def test_criterion_3_two_set_million_cycle_inequalities(long_two_set_runs):
    trace, elapsed = long_two_set_runs[0.5]
    rep = two_set_diagnostics(trace)
    sqrt_lo = math.sqrt(10**4) * float(trace.r[10**4])
    sqrt_hi = math.sqrt(10**6) * float(trace.r[10**6])
    ratio = sqrt_hi / sqrt_lo
    report(3, [
        (f"step chain margin {rep.step_chain_margin:.2e} >= -1e-12", rep.step_chain_ok),
        (f"gap chain margin {rep.gap_chain_margin:.2e} >= -1e-12", rep.gap_chain_ok),
        (f"energy margin {rep.energy_margin:.2e} >= -1e-12", rep.energy_ok),
        (f"sum r^2 = {rep.sum_r_sq:.6f} <= b_1^2 + 1e-9 = {rep.b1_sq:.6f}", rep.sum_ok),
        (f"r non-increasing (margin {rep.monotone_margin:.2e})", rep.monotone_ok),
        # Unattainable as stated: the measured decay exponent (~ -0.60, see
        # criterion 4) forces sqrt(n) * r_n to shrink only by a factor of
        # about 10**-0.2 ~ 0.62 over these two decades. Kept faithful to the
        # stated threshold; see the repository notes on the acceptance gap.
        (f"sqrt(n) r ratio {ratio:.3f} <= 0.5", ratio <= 0.5),
        (f"runtime {elapsed:.1f}s < 60s", elapsed < 60.0),
    ])


def test_criterion_4_rate_exponents(long_two_set_runs):
    clauses = []
    total = 0.0
    for eps in (0.25, 0.5, 1.0):
        trace, elapsed = long_two_set_runs[eps]
        total += elapsed
        fit = rate_fit(trace, (10**4, 10**6))
        target = -(1.0 + eps) / (2.0 + eps)
        clauses.append((
            f"eps={eps}: slope {fit.slope:.4f} within {target:.4f} +- 0.05",
            abs(fit.slope - target) <= 0.05,
        ))
        clauses.append((
            f"eps={eps}: slope {fit.slope:.4f} > -(1/2 + eps) = {-(0.5 + eps):.2f}",
            fit.slope > -(0.5 + eps),
        ))
    clauses.append((f"total runtime {total:.1f}s < 180s", total < 180.0))
    report(4, clauses)


def test_criterion_5_twisted_chain_powers(seed0_suites):
    scenario = build_twisted_chain(alpha=1.0, radius=0.1, circumference=3.0)
    t0 = time.perf_counter()
    trace = iterate(scenario.space, scenario.sets, scenario.start("boundary"), 10**4)
    elapsed = time.perf_counter() - t0
    base_err = float(np.abs(trace.r - 0.2 * math.sin(0.5)).max())
    base_verdict = verdict(trace).classification
    results, _ = seed0_suites["counterexamples"]
    report(5, [
        (f"base steps |r - 0.2 sin(1/2)| = {base_err:.2e} <= 1e-9 over 1e4 cycles",
         base_err <= 1e-9),
        (f"base verdict {base_verdict} = NotRegular", base_verdict == "NotRegular"),
        *suite_clauses(results, "chain-"),
        (f"runtime {elapsed:.2f}s < 5s", elapsed < 5.0),
    ])


def test_criterion_6_projection_property_suite(seed0_suites):
    report_suite(6, seed0_suites["projections"], 60.0)


def test_criterion_7_metric_suite(seed0_suites):
    report_suite(7, seed0_suites["metric"], 30.0)


def test_criterion_8_two_lines_sanity(seed0_suites):
    report_suite(8, seed0_suites["two-set"], 1.0, "two-lines-")
