"""Acceptance suite: one test per numbered criterion, one printed line each.

Long runs (a million cycles per epsilon) are computed once per session in
the ``long_two_set_runs`` fixture and shared across criteria 3 and 4.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they happen.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from cycproj import (
    build_plane_two_lines,
    build_tripod_counterexample,
    build_twisted_chain,
    iterate,
    project,
    project_segment_generic,
    rate_fit,
    two_set_diagnostics,
    verdict,
)
from cycproj.verify import suite_metric, suite_projections


def report(num: int, clauses: list[tuple[str, bool]]) -> None:
    failed = [name for name, ok in clauses if not ok]
    status = "PASS" if not failed else "FAIL"
    detail = "" if not failed else f" [failing: {', '.join(failed)}]"
    print(f"[criterion {num}] {status} ({len(clauses) - len(failed)}/{len(clauses)} clauses)"
          f"{detail}")
    assert not failed, f"criterion {num} failed clauses: {failed}"


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
            y = project_segment_generic(space, cset, y, tol=1e-12).point
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


def test_criterion_2_tripod_structure():
    scenario = build_tripod_counterexample(3)
    space = scenario.space
    c1, c2, c3 = scenario.sets[:3]
    t0 = time.perf_counter()

    worst_iso = 0.0
    worst_slope = 0.0
    for source, target in ((c2, c1), (c3, c2), (c1, c3)):
        ts = np.linspace(0.0, 1.0, 21)  # 20 sampled pairs
        points = [space.geodesic(source.start, source.end, float(t)) for t in ts]
        feet = [project(space, target, p).point for p in points]
        params = [space.distance(target.start, f) for f in feet]
        for i in range(20):
            worst_iso = max(worst_iso, abs(space.distance(feet[i], feet[i + 1])
                                           - space.distance(points[i], points[i + 1])))
            slope = (params[i + 1] - params[i]) / float(ts[i + 1] - ts[i])
            worst_slope = max(worst_slope, abs(slope + 1.0))

    def cycle(x):
        for cset in reversed(scenario.sets):
            x = project(space, cset, x).point
        return x

    e1, e2 = c1.start, c1.end
    swap_err = max(space.distance(cycle(e1), e2), space.distance(cycle(e2), e1))
    mid = space.geodesic(c1.start, c1.end, 0.5)
    mid_err = space.distance(cycle(mid), mid)
    worst_invol = 0.0
    for t in np.linspace(0.0, 1.0, 20):
        x = space.geodesic(c1.start, c1.end, float(t))
        worst_invol = max(worst_invol, space.distance(cycle(cycle(x)), x))
    elapsed = time.perf_counter() - t0

    report(2, [
        (f"inter-segment isometry error {worst_iso:.2e} <= 1e-9", worst_iso <= 1e-9),
        (f"orientation-reversal slope error {worst_slope:.2e} <= 1e-9", worst_slope <= 1e-9),
        (f"cycle swaps endpoints (err {swap_err:.2e} <= 1e-9)", swap_err <= 1e-9),
        (f"cycle fixes midpoint (err {mid_err:.2e} <= 1e-9)", mid_err <= 1e-9),
        (f"cycle squared is identity (err {worst_invol:.2e} <= 1e-9)", worst_invol <= 1e-9),
        (f"runtime {elapsed:.2f}s < 1s", elapsed < 1.0),
    ])


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


def test_criterion_5_twisted_chain_powers():
    scenario = build_twisted_chain(alpha=1.0, radius=0.1, circumference=3.0)
    chain = scenario.space
    start = scenario.start("boundary")
    t0 = time.perf_counter()

    trace = iterate(chain, scenario.sets, start, 10**4)
    base_err = float(np.abs(trace.r - 0.2 * math.sin(0.5)).max())
    base_verdict = verdict(trace).classification

    worst_power_err = 0.0
    all_not_regular = True
    for m in range(1, 21):
        trace_m = iterate(chain, scenario.sets * m, start, 50)
        target = 0.2 * abs(math.sin(m / 2.0))
        worst_power_err = max(worst_power_err, float(np.abs(trace_m.r - target).max()))
        if verdict(trace_m).classification != "NotRegular":
            all_not_regular = False
    elapsed = time.perf_counter() - t0

    report(5, [
        (f"base steps |r - 0.2 sin(1/2)| = {base_err:.2e} <= 1e-9 over 1e4 cycles",
         base_err <= 1e-9),
        (f"base verdict {base_verdict} = NotRegular", base_verdict == "NotRegular"),
        (f"power steps |r - 0.2 |sin(m/2)|| = {worst_power_err:.2e} <= 1e-9, m <= 20",
         worst_power_err <= 1e-9),
        ("every power verdict NotRegular", all_not_regular),
        (f"runtime {elapsed:.2f}s < 5s", elapsed < 5.0),
    ])


def test_criterion_6_projection_property_suite():
    t0 = time.perf_counter()
    results = suite_projections(seed=0)
    elapsed = time.perf_counter() - t0
    clauses = [(r.line(), r.passed) for r in results]
    clauses.append((f"runtime {elapsed:.1f}s < 60s", elapsed < 60.0))
    report(6, clauses)


def test_criterion_7_metric_suite():
    t0 = time.perf_counter()
    results = suite_metric(seed=0)
    elapsed = time.perf_counter() - t0
    clauses = [(r.line(), r.passed) for r in results]
    clauses.append((f"runtime {elapsed:.1f}s < 30s", elapsed < 30.0))
    report(7, clauses)


def test_criterion_8_two_lines_sanity():
    scenario = build_plane_two_lines(math.pi / 4.0)
    t0 = time.perf_counter()
    trace = iterate(scenario.space, scenario.sets, scenario.start(), 200)
    elapsed = time.perf_counter() - t0
    positive = trace.r > 1e-300  # past underflow the ratio is noise
    ratios = trace.r[1:][positive[1:] & positive[:-1]] / trace.r[:-1][positive[1:] & positive[:-1]]
    ratio_err = float(np.abs(ratios - 0.5).max())
    v = verdict(trace)
    report(8, [
        (f"|r_{{n+1}}/r_n - 1/2| = {ratio_err:.2e} <= 1e-9", ratio_err <= 1e-9),
        (f"verdict {v.classification} = Regular within 200 cycles",
         v.classification == "Regular"),
        (f"runtime {elapsed:.2f}s < 1s", elapsed < 1.0),
    ])
