"""Cycle application, traces, diagnostics, rate fits, verdicts."""

from __future__ import annotations

import dataclasses
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from cycproj import (
    AxisLine,
    Epigraph,
    NumericalFailureError,
    Plane,
    PlanePoint,
    Segment,
    Trace,
    build_plane_two_lines,
    build_plane_two_sets,
    build_scenario,
    cycle_apply,
    iterate,
    project,
    rate_fit,
    two_set_diagnostics,
    verdict,
)
from cycproj.engine import _BLOCK, _FIT_CHUNK, _margin, _tail_slope
from cycproj.projections import _epigraph_feet, _epigraph_foot

DELTA = math.sqrt(2.0) / 4.0


class TestCycleApply:
    def test_endpoint_travels_the_cycle(self, tripod):
        # the endpoint visits the third segment, then the second, then comes
        # back to the opposite endpoint of the first
        space = tripod.space
        e = tripod.start("endpoint")
        final, mids = cycle_apply(space, tripod.sets, e)
        assert len(mids) == 3
        after_c3, after_c2, after_c1 = mids
        assert after_c3.left.leg == 2 and after_c3.right.leg == 2
        assert after_c3.left.offset == pytest.approx(0.5 - DELTA, abs=1e-12)
        assert after_c3.right.offset == pytest.approx(0.5 + DELTA, abs=1e-12)
        assert after_c2.left.leg == 1 and after_c2.right.leg == 1
        assert after_c2.left.offset == pytest.approx(0.5 + DELTA, abs=1e-12)
        assert after_c2.right.offset == pytest.approx(0.5 - DELTA, abs=1e-12)
        assert final is after_c1
        assert final.left.offset == pytest.approx(0.5 - DELTA, abs=1e-12)
        assert final.right.offset == pytest.approx(0.5 + DELTA, abs=1e-12)
        assert space.distance(e, final) == pytest.approx(1.0, abs=1e-12)

    def test_midpoint_is_fixed(self, tripod):
        mid = tripod.start("midpoint")
        final, _ = cycle_apply(tripod.space, tripod.sets, mid)
        assert tripod.space.distance(mid, final) <= 1e-15

    def test_single_set_degenerates(self, tripod):
        from cycproj import project

        x = tripod.start("center")
        final, mids = cycle_apply(tripod.space, tripod.sets[:1], x)
        assert len(mids) == 1
        direct = project(tripod.space, tripod.sets[0], x)
        assert tripod.space.distance(final, direct.point) == 0.0

    def test_empty_sets_rejected(self, tripod):
        with pytest.raises(ValueError):
            cycle_apply(tripod.space, (), tripod.start("center"))


class TestIterate:
    def test_center_start_settles_immediately(self, tripod):
        trace = iterate(tripod.space, tripod.sets, tripod.start("center"), 10)
        assert trace.r[0] == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert np.abs(trace.r[1:]).max() <= 1e-15

    def test_deterministic(self, tripod):
        a = iterate(tripod.space, tripod.sets, tripod.start("endpoint"), 50)
        b = iterate(tripod.space, tripod.sets, tripod.start("endpoint"), 50)
        assert np.array_equal(a.r, b.r)
        assert a.points == b.points

    def test_steps_recomputable_from_points(self, tripod):
        trace = iterate(tripod.space, tripod.sets, tripod.start("endpoint"), 40)
        assert trace.stride == 1
        for i in range(trace.completed):
            d = tripod.space.distance(trace.points[i], trace.points[i + 1])
            assert abs(d - trace.r[i]) <= 1e-12

    def test_iterates_land_in_first_set(self, tripod):
        from cycproj import project

        trace = iterate(tripod.space, tripod.sets, tripod.start("endpoint"), 30)
        for idx, point in zip(trace.point_indices, trace.points):
            if idx == 0:
                continue
            assert project(tripod.space, tripod.sets[0], point).distance <= 1e-9

    def test_two_set_trace_records_y_series(self):
        scenario = build_plane_two_sets(0.5)
        trace = iterate(scenario.space, scenario.sets, scenario.start(), 20)
        # y_{n+1} = projection of x_n onto the second set; b_n = d(y_{n+1}, x_n)
        from cycproj import project

        x0 = scenario.start()
        y1 = project(scenario.space, scenario.sets[1], x0).point
        assert trace.b[0] == pytest.approx(scenario.space.distance(y1, x0), abs=1e-12)
        x1 = project(scenario.space, scenario.sets[0], y1).point
        assert trace.a[1] == pytest.approx(scenario.space.distance(x1, y1), abs=1e-12)
        assert np.isnan(trace.a[0])
        assert np.isnan(trace.s[0])
        # every cycle output lies in the first set
        assert all(p.y == 0.0 for i, p in zip(trace.point_indices, trace.points) if i >= 1)

    def test_decimation(self):
        scenario = build_plane_two_sets(0.5)
        trace = iterate(scenario.space, scenario.sets, scenario.start(), 200, stride=50)
        assert trace.point_indices[0] == 0
        kept = set(int(i) for i in trace.point_indices)
        assert {0, 1, 50, 51, 100, 101, 150, 151, 200} <= kept
        assert len(trace.r) == 200  # scalars never decimated

    def test_equality_is_identity(self, tripod):
        runs = [iterate(tripod.space, tripod.sets, tripod.start("endpoint"), 5) for _ in range(2)]
        assert runs[0] == runs[0]
        assert (runs[0] == runs[1]) is False

    def test_partial_trace_on_numerical_failure(self):
        scenario = build_plane_two_sets(1.0)
        trace = iterate(scenario.space, scenario.sets, PlanePoint(1e300, 0.0), 10)
        assert trace.failed
        assert trace.completed == 0
        assert "1e+300" in trace.failure

    def test_bad_arguments(self, tripod):
        with pytest.raises(ValueError):
            iterate(tripod.space, tripod.sets, tripod.start("endpoint"), 0)
        with pytest.raises(ValueError):
            iterate(tripod.space, (), tripod.start("endpoint"), 5)


def failing_at(patch, fail_at):
    """Make cycle ``fail_at`` (from 0) raise ``NumericalFailureError`` on either loop."""
    import cycproj.engine

    done = [0]

    def cycle(space, sets, x):
        if done[0] == fail_at:
            raise NumericalFailureError("stopped")
        done[0] += 1
        return cycle_apply(space, sets, x)

    def feet(epsilon, x0, cycles, us, heights):
        run = min(cycles, fail_at - done[0])
        _epigraph_feet(epsilon, x0, run, us, heights)
        done[0] += run
        if run < cycles:
            raise NumericalFailureError("stopped")

    patch.setattr(cycproj.engine, "cycle_apply", cycle)
    patch.setattr(cycproj.engine, "_epigraph_feet", feet)


class TestStoredPoints:
    @pytest.mark.parametrize("name", ["tripod", "plane-two-sets"])
    @pytest.mark.parametrize("kwargs, match", [
        ({"stride": 2.5}, "stride must be an integer, got 2.5"),
        ({"cycles": 2.5}, "cycles must be an integer, got 2.5"),
        ({"stride": True}, "stride must be an integer, got True"),
        ({"cycles": True}, "cycles must be an integer, got True"),
        ({"cycles": None}, "cycles must be an integer, got None"),
    ])
    def test_non_integral_counts_raise_before_any_cycle(self, monkeypatch, name, kwargs,
                                                         match):
        import cycproj.engine

        calls = []

        def counted_project(*args):
            calls.append(args)
            return project(*args)

        monkeypatch.setattr(cycproj.engine, "project", counted_project)
        scenario = build_scenario(name)
        kwargs = {"cycles": 10, **kwargs}
        cycles = kwargs.pop("cycles")
        with pytest.raises(TypeError, match=match):
            iterate(scenario.space, scenario.sets, scenario.start(), cycles, **kwargs)
        assert not calls
        # numpy integers are integers
        trace = iterate(scenario.space, scenario.sets, scenario.start(), np.int64(10),
                        stride=np.int64(3))
        assert trace.point_indices.tolist() == [0, 1, 3, 4, 6, 7, 9, 10]

    @seed(0)
    @given(st.sampled_from(["tripod", "twisted-chain", "plane-two-sets"]),
           st.integers(1, 3 * _BLOCK + 5), st.integers(1, 9), st.data())
    @settings(max_examples=150, deadline=None)
    def test_stored_indices_of_completed_and_failed_runs(self, name, n, stride, data):
        # the plane-two-sets scenario runs on the float kernel from cycle 1 on
        fail_at = data.draw(st.integers(0, n), label="fail_at")  # n: the run completes
        scenario = build_scenario(name)
        with pytest.MonkeyPatch.context() as patch:
            failing_at(patch, fail_at)
            trace = iterate(scenario.space, scenario.sets, scenario.start(), n, stride=stride)
        completed = min(fail_at, n)
        assert trace.completed == completed and trace.failed is (fail_at < n)
        expected = {0, completed} | {k for k in range(completed + 1) if k % stride <= 1}
        assert trace.point_indices.tolist() == sorted(expected)
        assert len(trace.points) == len(expected)


def reference_iterate(space, sets, start, cycles, *, stride=None):
    """The generic loop of ``iterate``: ``cycle_apply`` plus ``space.distance``.

    Kept here as the reference the float kernel for the axis against an
    epigraph must match bit for bit.
    """
    sets = tuple(sets)
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles!r}")
    if stride is None:
        stride = 1 if cycles <= 100_000 else math.ceil(cycles / 10_000)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride!r}")
    n = cycles
    r = np.empty(n)
    s_arr, b_arr = np.full(n, np.nan), np.full(n, np.nan)
    a_arr = np.full(n + 1, np.nan)
    point_indices, points = [0], [start]
    distance = space.distance
    x, y_prev, failure, completed = start, None, None, n
    for i in range(n):
        try:
            x_next, mids = cycle_apply(space, sets, x)
        except NumericalFailureError as exc:
            failure, completed = str(exc), i
            break
        r[i] = distance(x, x_next)
        y = mids[0]
        b_arr[i] = distance(y, x)
        a_arr[i + 1] = distance(x_next, y)
        if y_prev is not None:
            s_arr[i] = distance(y_prev, y)
        y_prev = y
        if (i + 1) % stride <= 1 or i + 1 == n:
            point_indices.append(i + 1)
            points.append(x_next)
        x = x_next
    if failure is not None:
        r, s_arr, b_arr = r[:completed], s_arr[:completed], b_arr[:completed]
        a_arr = a_arr[: completed + 1]
        if points[-1] is not x:
            point_indices.append(completed)
            points.append(x)
    return Trace(space=space, sets=sets, stride=stride, r=r,
                 point_indices=np.asarray(point_indices, dtype=np.int64),
                 coords=list(map(space.to_coords, points)),
                 s=s_arr, a=a_arr, b=b_arr, failure=failure)


def outcome(run, *args, **kwargs):
    """Everything a trace records, as comparable values, or the error raised."""
    try:
        t = run(*args, **kwargs)
    except Exception as exc:  # the two loops must raise alike, too
        return ("raised", type(exc), str(exc))
    return (t.r.tobytes(), t.s.tobytes(), t.a.tobytes(), t.b.tobytes(), repr(t.points),
            t.point_indices.tolist(), t.stride, t.failed, t.failure)


KERNEL_STARTS = [
    (1.0, 0.0), (0.0, 0.0), (1e-300, 0.0), (280.0, 0.0),
    (-3.0, 2.0),   # x0 <= 0: geometric bracket
    (2.0, 5.0),    # inside the epigraph
    (3.7, -2.2),
    (1e300, 0.0), (1e20, 0.0),  # fail on the first cycle
]


@st.composite
def kernel_runs(draw):
    """An epsilon, a start on the axis, off it, inside the epigraph or at x <= 0,
    a cycle count reaching past three blocks and a stride."""
    eps = draw(st.floats(0.01, 2.0))
    kind = draw(st.sampled_from(["on-axis", "off-axis", "inside", "x<=0"]))
    if kind == "x<=0":
        x, y = draw(st.floats(-100.0, 0.0)), draw(st.floats(-100.0, 100.0))
    else:
        x = draw(st.floats(1e-3, 100.0))
        y = {"on-axis": 0.0,
             "off-axis": draw(st.floats(-100.0, 1.0)),  # below the boundary 1 + x**(-eps)
             "inside": 1.0 + x ** -eps + draw(st.floats(0.0, 100.0))}[kind]
    return eps, PlanePoint(x, y), draw(st.integers(1, 3 * _BLOCK + 5)), draw(st.integers(1, 9))


class TestAxisEpigraphKernel:
    @pytest.mark.parametrize("eps", [0.01, 0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("xy", KERNEL_STARTS)
    def test_bitwise_the_generic_loop(self, eps, xy):
        space, sets, start = Plane(), (AxisLine(), Epigraph(eps)), PlanePoint(*xy)
        for n in (1, 7, 500, 3000):
            assert outcome(iterate, space, sets, start, n) == \
                outcome(reference_iterate, space, sets, start, n), n

    @given(kernel_runs())
    @settings(max_examples=200, deadline=None)
    def test_bitwise_the_generic_loop_on_random_runs(self, run):
        eps, start, n, stride = run
        space, sets = Plane(), (AxisLine(), Epigraph(eps))
        assert outcome(iterate, space, sets, start, n, stride=stride) == \
            outcome(reference_iterate, space, sets, start, n, stride=stride)

    def test_bitwise_the_generic_loop_with_stride(self):
        space, sets = Plane(), (AxisLine(), Epigraph(0.5))
        for start in (PlanePoint(1.3, 0.0), PlanePoint(-3.0, 2.0)):
            kernel = outcome(iterate, space, sets, start, 1200, stride=7)
            assert kernel == outcome(reference_iterate, space, sets, start, 1200, stride=7)
            assert kernel[5][:4] == [0, 1, 7, 8]

    def test_mid_run_failure_appends_the_last_point(self):
        # six ulps below 2**23 the steps move x by one ulp until x reaches
        # 2**23, where ulps double and cycle 6 fails; stride 4 stores
        # cycles 0, 1, 4 and 5, so the failed trace must append cycle 6
        space, sets = Plane(), (AxisLine(), Epigraph(0.25))
        start = PlanePoint(2.0**23 - 6 * 2.0**-30, 0.0)
        kernel = outcome(iterate, space, sets, start, 50, stride=4)
        assert kernel == outcome(reference_iterate, space, sets, start, 50, stride=4)
        assert kernel[7] and kernel[5] == [0, 1, 4, 5, 6]

    @pytest.mark.parametrize("start, kwargs, error, match", [
        ("1.3,0", {}, TypeError, "expected PlanePoint, got str"),
        (PlanePoint(1.3, 0.0), {"cycles": 0}, ValueError, "cycles must be >= 1"),
        (PlanePoint(1.3, 0.0), {"stride": 0}, ValueError, "stride must be >= 1"),
    ])
    def test_rejects_what_the_generic_loop_rejects(self, start, kwargs, error, match):
        space, sets = Plane(), (AxisLine(), Epigraph(0.5))
        kwargs = {"cycles": 5, **kwargs}
        cycles = kwargs.pop("cycles")
        for run in (iterate, reference_iterate):
            with pytest.raises(error, match=match):
                run(space, sets, start, cycles, **kwargs)

    @pytest.mark.parametrize("xy", [(1.3, 0.0), (2.0, 5.0), (-3.0, 2.0), (1e300, 0.0)])
    def test_reversed_order_matches_the_generic_loop(self, xy):
        space, sets, start = Plane(), (Epigraph(0.5), AxisLine()), PlanePoint(*xy)
        for n in (1, 500):
            assert outcome(iterate, space, sets, start, n) == \
                outcome(reference_iterate, space, sets, start, n)

    def test_kernel_chosen_by_input_types(self, monkeypatch):
        # the kernel runs cycle 0 through project, two calls, and the rest on
        # floats; the generic loop makes two calls per cycle
        import cycproj.engine

        calls = []

        def counted_project(*args):
            calls.append(args)
            return project(*args)

        monkeypatch.setattr(cycproj.engine, "project", counted_project)
        start, n = PlanePoint(1.3, 0.0), 10
        for sets, expected in [((AxisLine(), Epigraph(0.5)), 2),
                               ((Epigraph(0.5), AxisLine()), 2 * n),
                               ((AxisLine(), AxisLine()), 2 * n)]:
            calls.clear()
            assert iterate(Plane(), sets, start, n).completed == n
            assert len(calls) == expected, sets

    def test_blocks_join_bitwise(self):
        # the kernel solves _BLOCK cycles per solver call; stride 7 stores
        # points on both sides of each block edge
        space, sets, n = Plane(), (AxisLine(), Epigraph(0.5)), 2 * _BLOCK + 3
        for start in (PlanePoint(1.3, 0.0), PlanePoint(2.0, 5.0), PlanePoint(-3.0, 2.0)):
            assert outcome(iterate, space, sets, start, n, stride=7) == \
                outcome(reference_iterate, space, sets, start, n, stride=7)

    @pytest.mark.parametrize("cycles_run", [_BLOCK, _BLOCK + 1])
    def test_failure_on_and_past_a_block_edge(self, cycles_run):
        # as in the six-ulp test above, a start k ulps below 2**23 runs k
        # cycles and fails on the next: here the first cycle of the second
        # block, then the second cycle of it
        space, sets = Plane(), (AxisLine(), Epigraph(0.25))
        start = PlanePoint(2.0**23 - cycles_run * 2.0**-30, 0.0)
        kernel = outcome(iterate, space, sets, start, 3 * _BLOCK, stride=7)
        assert kernel == outcome(reference_iterate, space, sets, start, 3 * _BLOCK, stride=7)
        assert kernel[7] and len(kernel[0]) == 8 * cycles_run
        assert kernel[5][-1] == cycles_run

    @pytest.mark.parametrize("later", [NumericalFailureError("a later cycle failed"),
                                       ZeroDivisionError("a later cycle divided by 0")])
    def test_non_finite_foot_raises_before_a_later_error(self, monkeypatch, later):
        # the generic loop raises at the first non-finite foot.  A solver call
        # ends at its first failure, so a later error comes from the next
        # call; the kernel checks every foot of a block before it makes that
        # call, whether the trace stores the foot (stride 1) or not (stride 4
        # skips cycle 3, the NaN foot's)
        import cycproj.engine

        calls = []

        def feet(epsilon, x0, cycles, us, heights):
            calls.append(cycles)
            if len(calls) > 1:
                raise later
            us += [2.0, math.nan] + [1.0] * (cycles - 2)
            heights += [1.5] * cycles

        monkeypatch.setattr(cycproj.engine, "_epigraph_feet", feet)
        for stride in (1, 4):
            calls.clear()
            with pytest.raises(ValueError, match="x must be finite, got nan"):
                iterate(Plane(), (AxisLine(), Epigraph(0.5)), PlanePoint(1.3, 0.0), _BLOCK + 10,
                        stride=stride)
            assert calls == [_BLOCK], stride

    @given(st.floats(-300.0, 300.0), st.floats(-323.0, 308.0))
    @settings(max_examples=500, deadline=None)
    def test_feet_from_the_axis_are_finite(self, log_eps, log_x0):
        # a non-finite foot makes the kernel raise ValueError, not flag a
        # failure: from an axis point every foot is finite, and a failure is
        # flagged
        us, heights = [], []
        try:
            _epigraph_feet(10.0 ** log_eps, 10.0 ** log_x0, 3, us, heights)
        except NumericalFailureError:
            pass
        assert all(math.isfinite(v) for v in us + heights), (us, heights)

    def test_feet_are_the_one_point_solves_bitwise(self, monkeypatch):
        # the kernel's inline axis solve against repeated one-point solves from
        # the same x0: the same feet, or the same error after the same feet; a
        # step cap of 1 or 2 makes both raise their step-limit error
        import cycproj.projections

        fallbacks = []

        def counted_foot(*args):
            fallbacks.append(args)
            return _epigraph_foot(*args)

        def run(solve, epsilon, x0):
            us, heights, error = [], [], None
            try:
                solve(epsilon, x0, us, heights)
            except Exception as exc:
                error = type(exc), str(exc)
            return list(map(float.hex, us)), list(map(float.hex, heights)), error

        def kernel(epsilon, x0, us, heights):
            _epigraph_feet(epsilon, x0, 3, us, heights)

        def one_point(epsilon, x0, us, heights):
            for _ in range(3):
                x0, height = _epigraph_foot(epsilon, x0, 0.0)
                us.append(x0)
                heights.append(height)

        rng = np.random.default_rng(28)
        starts = [(eps, x0) for eps in (0.01, 0.25, 1.0, 2.0)
                  for x0 in (1e-300, 1e-200, 1e-12, 1e-3, 0.1, 0.5, 1.0, 1.3, 10.0, 280.0,
                             1e4, 1e8, 2.0**23 - 2.0**-30, 2.0**23 - 2 * 2.0**-30, 1e20, 1e300)]
        # epsilon far from 1 as well, and a start at x0 < 0, where halving from
        # u = 1 overflows the power
        starts += (10.0 ** rng.uniform([-300.0, -300.0], [300.0, 300.0], (300, 2))).tolist()
        starts.append((1e300, -1e308))
        monkeypatch.setattr(cycproj.projections, "_epigraph_foot", counted_foot)
        for max_newton in (cycproj.projections._MAX_NEWTON, 1, 2):
            monkeypatch.setattr(cycproj.projections, "_MAX_NEWTON", max_newton)
            errors = []
            for eps, x0 in starts:
                feet = run(kernel, eps, x0)
                assert feet == run(one_point, eps, x0), (eps, x0, max_newton)
                errors.append(feet[2] and feet[2][1])
            assert any("one ulp of x0" in e for e in errors if e)
            assert any("power overflowed" in e for e in errors if e)
            # the inline solve from 1.3 at epsilon 0.25 takes more than two steps
            limit_hit = "epigraph Newton failed to converge from (1.3, 0.0), epsilon=0.25"
            assert (limit_hit in errors) == (max_newton <= 2)
        assert fallbacks  # some cycles have no local bracket


class TestTwoSetDiagnostics:
    def test_plane_two_sets_chains_hold(self):
        scenario = build_plane_two_sets(0.5)
        trace = iterate(scenario.space, scenario.sets, scenario.start(), 10_000)
        report = two_set_diagnostics(trace)
        assert report.passed
        assert report.step_chain_margin >= -1e-12
        assert report.gap_chain_margin >= -1e-12
        assert report.energy_margin >= -1e-12
        assert report.monotone_margin >= -1e-12
        assert report.sum_r_sq <= report.b1_sq + 1e-9

    def test_two_lines_chains_hold(self):
        scenario = build_plane_two_lines(math.pi / 4.0)
        trace = iterate(scenario.space, scenario.sets, scenario.start(), 50)
        assert two_set_diagnostics(trace).passed

    def test_requires_two_sets(self, tripod):
        trace = iterate(tripod.space, tripod.sets, tripod.start("endpoint"), 5)
        with pytest.raises(ValueError):
            two_set_diagnostics(trace)

    @staticmethod
    def full_length_margins(trace):
        """The step, gap, energy and monotone margins from full-length expressions."""
        n, r, s, a, b = trace.completed, trace.r, trace.s, trace.a, trace.b
        return (min(math.inf, float(np.min(s[1:n] - r[1:n])), float(np.min(r[1:n - 1] - s[2:n]))),
                min(math.inf, float(np.min(a[1:n] - b[1:n])),
                    float(np.min(b[1:n] - a[2:n + 1]))),
                min(math.inf, float(np.min(b[1:n] ** 2 - a[2:n + 1] ** 2 - r[1:n] ** 2))),
                float(np.min(r[:-1] - r[1:])))

    def test_chunked_margins_are_the_full_length_ones(self):
        # three chunks; each column is moved by -1 and +1 at each chunk edge in
        # turn, so a margin's extreme term sits on either side of every edge
        n = 2 * _FIT_CHUNK + 10
        scenario = build_plane_two_sets(0.5)
        base = iterate(scenario.space, scenario.sets, scenario.start(), n, stride=n)
        edges = (0, 1, 2, _FIT_CHUNK - 1, _FIT_CHUNK, _FIT_CHUNK + 1, 2 * _FIT_CHUNK,
                 2 * _FIT_CHUNK + 1, n - 2, n - 1, n)
        cases = [base]
        for name in ("r", "s", "a", "b"):
            for edge in edges:
                for shift in (-1.0, 1.0):
                    column = getattr(base, name).copy()
                    if edge < len(column):
                        column[edge] += shift
                        cases.append(dataclasses.replace(base, **{name: column}))
        for trace in cases:
            report = two_set_diagnostics(trace)
            got = (report.step_chain_margin, report.gap_chain_margin, report.energy_margin,
                   report.monotone_margin)
            assert got == self.full_length_margins(trace)

    def test_nan_energy_term_fails(self):
        # b_n = a_{n+1} = 1e155, so every energy term is inf - inf = NaN
        far = Segment(PlanePoint(-1.0, 1e155), PlanePoint(1.0, 1e155))
        trace = iterate(Plane(), (AxisLine(), far), PlanePoint(3.0, 0.0), 10)
        with np.errstate(over="ignore", invalid="ignore"):
            report = two_set_diagnostics(trace)
        assert math.isnan(report.energy_margin)
        assert not report.energy_ok
        assert not report.passed
        assert report.step_chain_ok and report.gap_chain_ok and report.monotone_ok

    def test_margin_parts(self):
        def part(values, lo=0, hi=None):
            values = np.asarray(values, dtype=float)
            return (lambda i, j: values[i:j], lo, len(values) if hi is None else hi)

        assert _margin(part([])) == math.inf
        assert _margin(part([1.0, 2.0], 1, 1), part([3.0], 0, -1)) == math.inf
        # a NaN anywhere, in any part, is the margin
        for parts in ([part([np.nan])], [part([0.0]), part([np.nan])],
                      [part([np.nan]), part([0.0])], [part([]), part([5.0, np.nan, -1.0])]):
            assert math.isnan(_margin(*parts))
        # the parts combine in order, so of two equal zeros the first is kept
        assert math.copysign(1.0, _margin(part([1.0, 0.0]), part([-0.0, 2.0]))) == 1.0
        assert math.copysign(1.0, _margin(part([-0.0, 2.0]), part([1.0, 0.0]))) == -1.0
        assert _margin(part([3.0, -2.0]), part([]), part([-1.0])) == -2.0

    def test_memory_is_bounded_by_the_sum(self):
        # a real trace's columns repeated to 2*10**6 cycles, as the margins'
        # memory depends only on the length.  Full-length margins peaked at
        # 30.5 MiB on this trace; the one-call sum r[1:] ** 2 alone takes 15.3 MiB
        scenario = build_plane_two_sets(0.5)
        short = iterate(scenario.space, scenario.sets, scenario.start(), 20_000)
        n = 2 * 10**6
        trace = dataclasses.replace(short, r=np.resize(short.r, n), s=np.resize(short.s, n),
                                    a=np.resize(short.a, n + 1), b=np.resize(short.b, n))
        tracemalloc.start()
        try:
            report = two_set_diagnostics(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.cycles == n
        assert peak < 20 * 2**20


def synthetic_trace(r: np.ndarray) -> Trace:
    return Trace(
        space=None,
        sets=(None, None),
        stride=1,
        r=np.asarray(r, dtype=float),
        point_indices=np.arange(len(r) + 1),
        coords=[None] * (len(r) + 1),
    )


class TestRateFit:
    def test_exact_power_law(self):
        n = np.arange(1, 5001, dtype=float)
        trace = synthetic_trace(np.concatenate([[1.0], n**-0.6]))  # r[i] = i**-0.6
        fit = rate_fit(trace, (10, 4000))
        assert fit.slope == pytest.approx(-0.6, abs=1e-3)

    def test_constant_steps_have_zero_slope(self, tripod):
        trace = iterate(tripod.space, tripod.sets, tripod.start("endpoint"), 100)
        fit = rate_fit(trace, (1, 99))
        assert fit.slope == pytest.approx(0.0, abs=1e-9)

    def test_zero_steps_excluded_with_warning(self):
        r = np.concatenate([np.ones(10), np.zeros(2), np.ones(10)])
        trace = synthetic_trace(r)
        with pytest.warns(UserWarning, match="excluded 2"):
            fit = rate_fit(trace, (1, 21))
        assert fit.zeros_excluded == 2

    def test_window_validation(self):
        trace = synthetic_trace(np.ones(10))
        with pytest.raises(ValueError):
            rate_fit(trace, (0, 5))
        with pytest.raises(ValueError):
            rate_fit(trace, (9, 30))
        long_trace = synthetic_trace(np.ones(200))
        for window in [(10.0, 100.0), (10, 100.0), (np.float64(10), 100), (True, 4), (10, True)]:
            message = f"window bounds must be integers, got {window!r}"
            with pytest.raises(TypeError, match=re.escape(message)):
                rate_fit(long_trace, window)
        fit = rate_fit(long_trace, (np.int64(10), np.int64(100)))
        assert (fit.slope, fit.count) == (0.0, 91)

    @pytest.mark.parametrize("zeros", [False, True], ids=["positive", "zeros"])
    @pytest.mark.parametrize("eps", [0.25, 0.5, 1.0])
    def test_no_farther_from_the_exact_fit_than_polyfit(self, eps, zeros):
        scenario = build_plane_two_sets(eps)
        r = iterate(scenario.space, scenario.sets, scenario.start(), 5000).r.copy()
        if zeros:
            r[50::97] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the zero steps' warning
            fit = rate_fit(synthetic_trace(r), (50, 4999))
        n = np.arange(50, 5000)[r[50:] > 0.0]
        x, y = np.log(n), np.log(r[n])
        assert fit.count == len(n)
        # the least-squares line through the same float points, in exact rationals
        xs, ys = [Fraction(v) for v in x.tolist()], [Fraction(v) for v in y.tolist()]
        x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = (sum((u - x_mean) * (v - y_mean) for u, v in zip(xs, ys))
                 / sum((u - x_mean) ** 2 for u in xs))
        exact = (slope, y_mean - slope * x_mean)
        old = np.polyfit(x, y, 1).tolist()
        for new, ref, want in zip((fit.slope, fit.intercept), old, exact):
            assert abs(Fraction(new) - want) <= abs(Fraction(ref) - want)

    def test_chunks_join_like_polyfit(self):
        lo = 10
        hi = lo + 2 * _FIT_CHUNK  # three chunks, the last of them one index long
        n = np.arange(hi + 1, dtype=float)
        r = 3.0 * np.maximum(n, 1.0) ** -0.6 * (1.0 + 0.1 * np.sin(n))
        fit = rate_fit(synthetic_trace(r), (lo, hi + 5))
        slope, intercept = np.polyfit(np.log(n[lo:]), np.log(r[lo:]), 1)
        assert fit.count == hi - lo + 1
        assert fit.slope == pytest.approx(slope, rel=1e-13)
        assert fit.intercept == pytest.approx(intercept, rel=1e-13)

    def test_memory_is_bounded_by_the_chunk(self):
        n = np.arange(2 * 10**6 + 1, dtype=float)
        n[0] = 1.0
        trace = synthetic_trace(n ** -0.6)  # r[i] = i**-0.6
        del n
        tracemalloc.start()
        try:
            fit = rate_fit(trace, (1, 2 * 10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.slope == pytest.approx(-0.6, rel=1e-12)
        assert peak < 16 * 2**20


class TestVerdict:
    def test_tripod_not_regular(self, tripod):
        trace = iterate(tripod.space, tripod.sets, tripod.start("endpoint"), 100)
        v = verdict(trace)
        assert v.classification == "NotRegular"
        assert v.liminf_r == pytest.approx(1.0, abs=1e-9)
        # the declared bound is honored by the stored points themselves
        tail = trace.r[-20:]
        recomputed = [
            tripod.space.distance(trace.points[i], trace.points[i + 1])
            for i in range(80, 100)
        ]
        assert min(recomputed) >= v.liminf_r - 1e-12
        assert np.min(tail) >= v.liminf_r

    def test_two_lines_regular(self):
        scenario = build_plane_two_lines(math.pi / 4.0)
        trace = iterate(scenario.space, scenario.sets, scenario.start(), 200)
        assert verdict(trace).classification == "Regular"

    def test_slow_decay_is_inconclusive(self):
        scenario = build_plane_two_sets(0.5)
        trace = iterate(scenario.space, scenario.sets, scenario.start(), 100)
        assert verdict(trace).classification == "Inconclusive"

    def test_all_zero_steps_regular(self, tripod):
        trace = iterate(tripod.space, tripod.sets, tripod.start("midpoint"), 10)
        assert verdict(trace).classification == "Regular"

    @staticmethod
    def old_verdict(trace):
        """The classification, final step and tail minimum by the formulas of
        the earlier verdict, with a one-step tail never NotRegular."""
        rs = trace.r[1:] if trace.completed >= 2 else trace.r
        tail = rs[-max(1, math.ceil(0.2 * len(rs))):]
        tail_min, tail_max, final_r = float(np.min(tail)), float(np.max(tail)), float(rs[-1])
        non_increasing = bool(np.all(np.diff(tail) <= 1e-12)) if len(tail) >= 2 else True
        if final_r < 1e-6 and non_increasing:
            cls = "Regular"
        elif tail_min >= 1e-5 and tail_max - tail_min <= 1e-6 * tail_max and len(tail) >= 2:
            cls = "NotRegular"
        else:
            cls = "Inconclusive"
        return cls, final_r, tail_min

    @staticmethod
    def old_tail_slope(trace):
        lo = trace.completed - math.ceil(0.2 * (trace.completed - 1))
        if trace.completed - lo < 10 or not trace.r[lo:].min() > 0.0:
            return None
        return rate_fit(trace, (lo, trace.completed - 1)).slope

    @pytest.mark.parametrize("n", [*range(1, 31), 46, 47, 48, 60, 200])
    def test_tail_rule_matches_the_earlier_formulas(self, n):
        index = np.arange(n, dtype=float)
        rows = [np.ones(n), 0.5 ** index, 1e-8 * 0.9 ** index, (index + 1.0) ** -0.6,
                np.where(index % 2 == 0, 1.0, 1.0 + 1e-9), np.zeros(n),
                np.r_[np.ones(n - 1), 0.0], np.r_[np.ones(max(n - 1, 0)) * 1e-7, 2e-7][-n:]]
        for r in rows:
            trace = synthetic_trace(r)
            got = verdict(trace)
            assert (got.classification, got.final_r, got.liminf_r) == self.old_verdict(trace)
            assert _tail_slope(trace) == self.old_tail_slope(trace)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_one_step_tail_is_not_not_regular(self, tripod, n):
        scenario = build_plane_two_lines(math.pi / 4.0)
        lines = iterate(scenario.space, scenario.sets, scenario.start(), n)
        steps = iterate(tripod.space, tripod.sets, tripod.start("endpoint"), n)
        assert verdict(lines).classification == "Inconclusive"
        assert verdict(steps).classification == "Inconclusive"

    def test_two_step_tail_can_be_not_regular(self, tripod):
        trace = iterate(tripod.space, tripod.sets, tripod.start("endpoint"), 7)
        assert verdict(trace).classification == "NotRegular"
