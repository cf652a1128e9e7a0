"""Cycle application, traces, diagnostics, rate fits, verdicts."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cycproj import (
    AxisLine,
    Epigraph,
    NumericalFailureError,
    Plane,
    PlanePoint,
    Trace,
    build_plane_two_lines,
    build_plane_two_sets,
    build_tripod_counterexample,
    cycle_apply,
    iterate,
    rate_fit,
    two_set_diagnostics,
    verdict,
)

DELTA = math.sqrt(2.0) / 4.0


@pytest.fixture(scope="module")
def tripod():
    return build_tripod_counterexample(3)


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
    def test_tripod_steps_stay_one(self, tripod):
        trace = iterate(tripod.space, tripod.sets, tripod.start("endpoint"), 100)
        assert np.abs(trace.r - 1.0).max() <= 1e-9

    def test_center_start_settles_immediately(self, tripod):
        trace = iterate(tripod.space, tripod.sets, tripod.start("center"), 10)
        assert trace.r[0] == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert np.abs(trace.r[1:]).max() <= 1e-15

    def test_two_lines_ratio(self):
        scenario = build_plane_two_lines(math.pi / 4.0)
        trace = iterate(scenario.space, scenario.sets, scenario.start(), 50)
        ratios = trace.r[1:] / trace.r[:-1]
        assert np.abs(ratios - 0.5).max() <= 1e-9

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


def reference_iterate(space, sets, start, cycles, *, tol=1e-12, stride=None):
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
            x_next, mids = cycle_apply(space, sets, x, tol=tol)
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
                 point_indices=np.asarray(point_indices, dtype=np.int64), points=points,
                 s=s_arr, a=a_arr, b=b_arr,
                 failed=failure is not None, failure=failure)


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


class TestAxisEpigraphKernel:
    @pytest.mark.parametrize("eps", [0.01, 0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("xy", KERNEL_STARTS)
    def test_bitwise_the_generic_loop(self, eps, xy):
        space, sets, start = Plane(), (AxisLine(), Epigraph(eps)), PlanePoint(*xy)
        for n in (1, 7, 500, 3000):
            assert outcome(iterate, space, sets, start, n) == \
                outcome(reference_iterate, space, sets, start, n), n

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
        (PlanePoint(1.3, 0.0), {"tol": 0.0}, ValueError, "tol must be positive"),
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
        import cycproj.engine

        def no_project(*args, **kwargs):
            raise AssertionError("generic loop used")

        monkeypatch.setattr(cycproj.engine, "project", no_project)
        start = PlanePoint(1.3, 0.0)
        assert iterate(Plane(), (AxisLine(), Epigraph(0.5)), start, 10).completed == 10
        for sets in ((Epigraph(0.5), AxisLine()), (AxisLine(), AxisLine())):
            with pytest.raises(AssertionError, match="generic loop used"):
                iterate(Plane(), sets, start, 10)


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


def synthetic_trace(r: np.ndarray) -> Trace:
    return Trace(
        space=None,
        sets=(None, None),
        stride=1,
        r=np.asarray(r, dtype=float),
        point_indices=np.arange(len(r) + 1),
        points=[None] * (len(r) + 1),
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
