"""Projection operators: exact examples, independent oracles, properties."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from cycproj import projections
from cycproj import (
    AmbiguousProjectionError,
    AxisLine,
    ChainPoint,
    CrossDisc,
    Epigraph,
    NumericalFailureError,
    Plane,
    PlanePoint,
    ProductPoint,
    ProductSpace,
    Segment,
    StarPoint,
    StarTree,
    TwistedChain,
    UnsupportedShapeError,
    build_tripod_counterexample,
    project,
    project_axis,
    project_cross_disc,
    project_epigraph,
    project_segment_generic,
    project_segment_tree_exact,
    set_distance,
)

DELTA = math.sqrt(2.0) / 4.0
PLANE = Plane()
# Factor points off the unit tripod's trees: a fourth leg, and past a leg's end.
OFF_TREE = [pytest.param(StarPoint(3, 0.2), id="leg-3"),
            pytest.param(StarPoint(1, 1.5), id="offset-1.5")]


def off_tree_variants(point, bad):
    """``point`` with its left, then its right factor replaced by ``bad``."""
    return ProductPoint(bad, point.right), ProductPoint(point.left, bad)


def epigraph_stationarity(eps, x0, y0, u):
    """The first-order optimality residual, written out independently."""
    return (u - x0) - eps * u ** (-eps - 1.0) * (1.0 + u ** (-eps) - y0)


class TestAxis:
    def test_drops_height(self):
        res = project_axis(PlanePoint(3.0, 4.0))
        assert res.point == PlanePoint(3.0, 0.0)
        assert res.distance == 4.0
        assert res.solver == "closed_form"

    def test_fixed_point(self):
        res = project_axis(PlanePoint(-1.0, 0.0))
        assert res.point == PlanePoint(-1.0, 0.0)
        assert res.distance == 0.0

    def test_negative_height(self):
        res = project_axis(PlanePoint(0.0, -2.0))
        assert res.point == PlanePoint(0.0, 0.0)
        assert res.distance == 2.0


class TestEpigraph:
    def test_membership(self):
        res = project_epigraph(1.0, PlanePoint(2.0, 10.0))
        assert res.point == PlanePoint(2.0, 10.0)
        assert res.distance == 0.0
        assert res.solver == "closed_form"

    @pytest.mark.parametrize("x0, y0", [(1.0, 0.0), (-5.0, 0.0)])
    def test_boundary_solve_against_dense_oracle(self, x0, y0):
        eps = 1.0
        res = project_epigraph(eps, PlanePoint(x0, y0))
        u = res.point.x
        assert res.solver == "newton"
        assert abs(epigraph_stationarity(eps, x0, y0, u)) <= 1e-13
        assert res.point.y == pytest.approx(1.0 + u ** (-eps), abs=1e-15)
        # oracle: one million boundary points on a log grid
        grid = np.exp(np.linspace(math.log(1e-4), math.log(1e4), 10**6))
        d2 = (grid - x0) ** 2 + (1.0 + grid ** (-eps) - y0) ** 2
        assert res.distance**2 <= d2.min() + 1e-6
        if x0 < 0:
            assert 0.0 < u < 1.0

    def test_solved_distance_matches_metric(self):
        res = project_epigraph(0.5, PlanePoint(3.0, -1.0))
        assert res.distance == pytest.approx(PLANE.distance(PlanePoint(3.0, -1.0), res.point),
                                             abs=1e-12)

    def test_bracketing_failure_reports_inputs(self):
        with pytest.raises(NumericalFailureError, match="1e\\+300"):
            project_epigraph(1.0, PlanePoint(1e300, 0.0))

    def test_underflowed_bracket_width_reads_zero(self):
        # h(1e300) underflows to 0.0; its negation must not print as -0.0
        with pytest.raises(NumericalFailureError) as info:
            project_epigraph(0.5, PlanePoint(1e300, 0.0))
        assert "width 0.0 " in str(info.value)
        assert "-0.0" not in str(info.value)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            project_epigraph(1.0, PlanePoint(1.0, 0.0), tol=0.0)

    @pytest.mark.parametrize("eps, x0, foot", [
        (0.25, 1e-300, 0.74708832998635),
        (1.0, 1e-300, 1.2207440846057596),
        (0.25, 1e-12, 0.7470883299867702),
        (1.0, 1e-12, 1.2207440846060493),
        # finite brackets [x0, x0 + h(x0)] many decades wide
        (0.1, 1e-100, 0.47319375784270223),
        (0.01, 1e-300, 0.14349899580976305),
    ])
    def test_tiny_x_still_projects(self, eps, x0, foot):
        res = project_epigraph(eps, PlanePoint(x0, 0.0))
        assert res.solver == "newton"
        assert res.point.x == pytest.approx(foot, rel=1e-13, abs=0.0)
        assert abs(epigraph_stationarity(eps, x0, 0.0, res.point.x)) <= 1e-13

    @pytest.mark.parametrize("eps, x0", [(0.25, 1e8), (0.25, 1e20), (0.5, 1e20), (1.0, 1e20)])
    def test_foot_below_float_resolution_raises(self, eps, x0):
        # the foot lies less than one ulp from x0, so the step would read 0
        with pytest.raises(NumericalFailureError, match=re.escape(f"({x0!r}, 0.0), epsilon={eps!r}")):
            project_epigraph(eps, PlanePoint(x0, 0.0))

    def test_random_plane_points_against_grid_oracle(self):
        rng = np.random.default_rng(2024)
        points = rng.uniform(-5.0, 5.0, size=(20_000, 2))
        grid = np.exp(np.linspace(math.log(1e-4), math.log(1e2), 4001))
        for k, eps in enumerate((0.25, 0.5, 1.0)):
            outside = []
            for x0, y0 in points[k::3].tolist():
                res = project_epigraph(eps, PlanePoint(x0, y0))
                if res.solver == "closed_form":
                    assert Epigraph(eps).contains(PlanePoint(x0, y0))
                    continue
                u = res.point.x
                scale = max(1.0, abs(x0), abs(y0))
                assert abs(epigraph_stationarity(eps, x0, y0, u)) <= 1e-13 * scale
                outside.append((x0, y0, res.distance))
            x0s, y0s, dist = np.array(outside).T
            for lo in range(0, len(outside), 500):
                part = slice(lo, lo + 500)
                d2 = ((grid - x0s[part, None]) ** 2
                      + (1.0 + grid ** (-eps) - y0s[part, None]) ** 2).min(axis=1)
                # never farther than any grid point, and within grid resolution of the best
                assert np.all(dist[part] ** 2 <= d2 + 1e-12)
                assert np.all(d2 - dist[part] ** 2 <= 1e-3)

    @pytest.mark.parametrize("eps", [0.25, 1.0])
    @pytest.mark.parametrize("x_start, cycles", [(1.3, 300), (280.0, 200)])
    def test_trajectory_feet_within_one_ulp_of_mpmath_root(self, eps, x_start, cycles):
        # x0 = 280 is where the two-set trajectory sits after about 10**6 cycles
        mpmath = pytest.importorskip("mpmath")
        worst = 0.0
        x0 = x_start
        with mpmath.workdps(50):
            e = mpmath.mpf(eps)
            for _ in range(cycles):
                u = project_epigraph(eps, PlanePoint(x0, 0.0)).point.x
                x, root = mpmath.mpf(x0), mpmath.mpf(u)
                for _ in range(4):  # Newton from the float foot, quadratic at 50 digits
                    ue = root ** (-e)
                    tail = 1 + ue
                    g = (root - x) - e * ue / root * tail
                    gp = 1 + e * (e + 1) * ue / root**2 * tail + (e * ue / root) ** 2
                    root -= g / gp
                worst = max(worst, float(abs(mpmath.mpf(u) - root)) / math.ulp(u))
                x0 = u
        assert worst <= 1.0


class TestSegmentGeneric:
    def test_clamped_foot(self):
        seg = Segment(PlanePoint(0, 0), PlanePoint(1, 0))
        res = project_segment_generic(PLANE, seg, PlanePoint(2.0, 5.0))
        assert res.point.x == pytest.approx(1.0, abs=1e-9)
        assert res.point.y == 0.0
        assert res.solver == "golden_section"

    def test_idempotent_on_segment(self):
        seg = Segment(PlanePoint(0, 0), PlanePoint(2, 1))
        x = PLANE.geodesic(seg.start, seg.end, 0.375)
        res = project_segment_generic(PLANE, seg, x)
        assert res.distance <= 1e-12

    def test_center_start_against_dense_sampling(self, tripod):
        # distance from the product center to the first segment is sqrt(2)/2:
        # sampled offsets p give squared distance p^2 + (1-p)^2, minimal 1/2
        space = tripod.space
        c1 = tripod.sets[0]
        x = ProductPoint(StarPoint(0, 0.0), StarPoint(0, 0.0))
        res = project_segment_generic(space, c1, x)
        assert res.distance == pytest.approx(math.sqrt(0.5), abs=1e-9)
        assert res.point.left.offset == pytest.approx(0.5, abs=1e-7)
        assert res.point.right.offset == pytest.approx(0.5, abs=1e-7)
        # independent oracle: the segment point at parameter t sits at offsets
        # (1/2 + d - 2dt, 1/2 - d + 2dt); from the center pair the squared
        # distance is the sum of squared offsets
        ts = np.linspace(0.0, 1.0, 10**5)
        left = 0.5 + DELTA - 2.0 * DELTA * ts
        right = 0.5 - DELTA + 2.0 * DELTA * ts
        sampled = float(np.sqrt((left**2 + right**2).min()))
        assert res.distance <= sampled + 1e-9

    def test_tol_validation(self, tripod):
        with pytest.raises(ValueError):
            project_segment_generic(tripod.space, tripod.sets[0],
                                    tripod.start("endpoint"), tol=-1.0)

    @pytest.mark.parametrize("bad", OFF_TREE)
    def test_every_argument_is_validated(self, tripod, bad):
        space, seg = tripod.space, tripod.sets[0]
        x = ProductPoint(StarPoint(1, 0.3), StarPoint(2, 0.4))
        for off in off_tree_variants(x, bad):
            with pytest.raises(ValueError):
                project_segment_generic(space, seg, off)
        for end in off_tree_variants(seg.end, bad):
            with pytest.raises(ValueError):
                project_segment_generic(space, Segment(seg.start, end), x)


@pytest.fixture(scope="module")
def tripod():
    return build_tripod_counterexample(3)


class TestSegmentTreeExact:
    def test_endpoint_maps_to_opposite_endpoint(self, tripod):
        # critical point of (p + p')^2 + (1 - p + q')^2 lands at the far end
        space = tripod.space
        c1, c2 = tripod.sets[0], tripod.sets[1]
        x = ProductPoint(StarPoint(1, 0.5 + DELTA), StarPoint(1, 0.5 - DELTA))  # end of C2
        res = project_segment_tree_exact(space, c1, x)
        assert res.solver == "exact_piecewise"
        assert res.point.left.offset == pytest.approx(0.5 - DELTA, abs=1e-12)
        assert res.point.right.offset == pytest.approx(0.5 + DELTA, abs=1e-12)
        generic = project_segment_generic(space, c1, x, tol=1e-12)
        assert space.distance(res.point, generic.point) <= 1e-7

    def test_midpoint_maps_to_midpoint(self, tripod):
        space = tripod.space
        c1 = tripod.sets[0]
        x = ProductPoint(StarPoint(1, 0.5), StarPoint(1, 0.5))
        res = project_segment_tree_exact(space, c1, x)
        assert res.point.left.offset == pytest.approx(0.5, abs=1e-12)
        assert res.point.right.offset == pytest.approx(0.5, abs=1e-12)

    def test_fixed_on_segment(self, tripod):
        space = tripod.space
        c1 = tripod.sets[0]
        x = space.geodesic(c1.start, c1.end, 0.25)
        res = project_segment_tree_exact(space, c1, x)
        assert res.distance == 0.0
        assert res.point == x

    def test_unsupported_shape(self, tripod):
        space = tripod.space
        crossing = Segment(
            ProductPoint(StarPoint(0, 0.5), StarPoint(0, 0.5)),
            ProductPoint(StarPoint(1, 0.5), StarPoint(0, 0.2)),
        )
        x = ProductPoint(StarPoint(2, 0.3), StarPoint(1, 0.3))
        with pytest.raises(UnsupportedShapeError):
            project_segment_tree_exact(space, crossing, x)
        # the dispatcher falls back to the generic solver
        res = project(space, crossing, x)
        assert res.solver == "golden_section"

    def test_center_endpoint_supported(self, tripod):
        space = tripod.space
        seg = Segment(
            ProductPoint(StarPoint(0, 0.0), StarPoint(2, 0.1)),
            ProductPoint(StarPoint(1, 0.8), StarPoint(2, 0.9)),
        )
        x = ProductPoint(StarPoint(1, 0.4), StarPoint(0, 0.6))
        res = project_segment_tree_exact(space, seg, x)
        generic = project_segment_generic(space, seg, x, tol=1e-12)
        assert space.distance(res.point, generic.point) <= 1e-7

    @pytest.mark.parametrize("bad", OFF_TREE)
    def test_every_argument_is_validated(self, tripod, bad):
        space, seg = tripod.space, tripod.sets[0]
        x = ProductPoint(StarPoint(1, 0.3), StarPoint(2, 0.4))
        project_segment_tree_exact(space, seg, x)  # the segment is now known
        for off in off_tree_variants(x, bad):
            with pytest.raises(ValueError):
                project_segment_tree_exact(space, seg, off)
            with pytest.raises(ValueError):
                project(space, seg, off)
        for point in (seg.start, seg.end):
            for off in off_tree_variants(point, bad):
                bad_seg = Segment(off, seg.end) if point is seg.start else Segment(seg.start, off)
                for _ in range(2):  # a rejected segment is not remembered
                    with pytest.raises(ValueError):
                        project_segment_tree_exact(space, bad_seg, x)
                    with pytest.raises(ValueError):
                        project(space, bad_seg, x)

    def test_wrong_point_types_rejected(self, tripod):
        space, seg = tripod.space, tripod.sets[0]
        with pytest.raises(TypeError, match="expected ProductPoint"):
            project_segment_tree_exact(space, seg, PlanePoint(0.0, 0.0))
        with pytest.raises(TypeError, match="expected StarPoint"):
            project_segment_tree_exact(space, seg, ProductPoint(PlanePoint(0.0, 0.0),
                                                                StarPoint(0, 0.1)))

    def test_known_segment_still_checked_in_another_space(self, tripod):
        seg = tripod.sets[0]
        x = ProductPoint(StarPoint(0, 0.3), StarPoint(0, 0.3))
        project_segment_tree_exact(ProductSpace(StarTree.unit(3), StarTree.unit(3)), seg, x)
        short = ProductSpace(StarTree((0.4,) * 3), StarTree((0.4,) * 3))
        # the endpoint is rejected, not just the foot (offsets 0.5) it would give
        endpoint = re.escape(f"offset {seg.start.left.offset!r} exceeds leg 0 length 0.4")
        with pytest.raises(ValueError, match=endpoint):
            project_segment_tree_exact(short, seg, x)
        with pytest.raises(ValueError, match=endpoint):
            project(short, seg, x)

    def test_set_distance_checks_segment_endpoints(self, tripod):
        short = ProductSpace(StarTree((0.4,) * 3), StarTree((0.4,) * 3))
        for other in (tripod.sets[1], tripod.sets[0]):
            with pytest.raises(ValueError, match="exceeds leg 0 length 0.4"):
                set_distance(short, tripod.sets[0], other)

    def test_equal_distinct_segment_gives_identical_foot(self, tripod):
        space = tripod.space
        rng = np.random.default_rng(29)
        for seg in tripod.sets:
            twin = Segment(seg.start, seg.end)
            assert twin == seg and twin is not seg
            for _ in range(20):
                x = ProductPoint(StarPoint(int(rng.integers(3)), float(rng.uniform(0, 1))),
                                 StarPoint(int(rng.integers(3)), float(rng.uniform(0, 1))))
                a = project_segment_tree_exact(space, seg, x)
                b = project_segment_tree_exact(space, twin, x)
                assert repr(a) == repr(b)

    def test_segment_table_overflow_leaves_results_unchanged(self, tripod):
        space = tripod.space
        rng = np.random.default_rng(31)
        xs = [ProductPoint(StarPoint(int(rng.integers(3)), float(rng.uniform(0, 1))),
                           StarPoint(int(rng.integers(3)), float(rng.uniform(0, 1))))
              for _ in range(10)]
        before = [repr(project_segment_tree_exact(space, seg, x))
                  for seg in tripod.sets for x in xs]
        cap = projections._SEGMENT_TABLE_CAP
        fillers = [Segment(seg.start, seg.end) for _ in range(cap) for seg in tripod.sets]
        for seg in fillers:
            project_segment_tree_exact(space, seg, xs[0])
            assert len(projections._segment_paths) <= cap
        after = [repr(project_segment_tree_exact(space, seg, x))
                 for seg in tripod.sets for x in xs]
        assert after == before

    def test_agreement_on_random_inputs(self, tripod):
        space = tripod.space
        rng = np.random.default_rng(23)
        worst = 0.0
        for _ in range(300):
            x = ProductPoint(
                StarPoint(int(rng.integers(3)), float(rng.uniform(0, 1))),
                StarPoint(int(rng.integers(3)), float(rng.uniform(0, 1))),
            )
            cset = tripod.sets[int(rng.integers(3))]
            exact = project_segment_tree_exact(space, cset, x)
            generic = project_segment_generic(space, cset, x, tol=1e-12)
            worst = max(worst, space.distance(exact.point, generic.point))
        assert worst <= 1e-7


class TestCrossDisc:
    @pytest.fixture
    def chain(self):
        return TwistedChain(radius=0.1, circumference=3.0, twist=1.0)

    @staticmethod
    def brute_force_distance(chain, x, disc_index):
        """Search the disc densely over lifts k in [-3, 3]."""
        h = chain.disc_heights[disc_index]
        best = math.inf
        radii = np.linspace(0.0, chain.radius, 60)
        angles = np.linspace(0.0, 2.0 * math.pi, 200, endpoint=False)
        for k in range(-3, 4):
            dz = x.height - h - k * chain.circumference
            for rad in radii:
                for ang in angles:
                    cu = rad * math.cos(ang)
                    cv = rad * math.sin(ang)
                    c, s = math.cos(k * chain.twist), math.sin(k * chain.twist)
                    du = x.u - (c * cu - s * cv)
                    dv = x.v - (s * cu + c * cv)
                    best = min(best, du * du + dv * dv + dz * dz)
        return math.sqrt(best)

    def test_on_disc_fixed(self, chain):
        x = ChainPoint(0.03, -0.04, chain.disc_heights[1])
        res = project_cross_disc(chain, 1, x)
        assert res.point == x
        assert res.distance == 0.0

    def test_unwrapped_drop(self, chain):
        x = ChainPoint(0.05, 0.0, 1.0)
        res = project_cross_disc(chain, 0, x)
        assert res.point.u == pytest.approx(0.05, abs=1e-15)
        assert res.point.v == pytest.approx(0.0, abs=1e-15)
        assert res.point.height == 0.0
        assert res.distance == pytest.approx(1.0, abs=1e-15)
        assert res.distance == pytest.approx(self.brute_force_distance(chain, x, 0), abs=1e-3)

    def test_wrapped_drop_rotates(self, chain):
        x = ChainPoint(0.05, 0.0, 0.0)
        res = project_cross_disc(chain, 2, x)  # disc at height 2: wrap downwards
        assert res.point.u == pytest.approx(0.05 * math.cos(1.0), abs=1e-15)
        assert res.point.v == pytest.approx(0.05 * math.sin(1.0), abs=1e-15)
        assert res.point.height == 2.0
        assert res.distance == pytest.approx(1.0, abs=1e-15)
        assert res.distance == pytest.approx(self.brute_force_distance(chain, x, 2), abs=1e-3)

    def test_ambiguous_tie_rejected(self):
        chain = TwistedChain(radius=0.1, circumference=3.0, twist=1.0,
                             disc_heights=(0.0, 1.0, 2.0))
        x = ChainPoint(0.05, 0.0, 2.5)  # exactly half a loop from disc 1
        with pytest.raises(AmbiguousProjectionError):
            project_cross_disc(chain, 1, x)

    def test_projected_distance_is_metric_distance(self, chain):
        x = ChainPoint(0.02, 0.07, 2.6)
        for i in range(3):
            res = project_cross_disc(chain, i, x)
            assert res.distance == pytest.approx(chain.distance(x, res.point), abs=1e-12)


class TestDispatcher:
    def test_plane_segment_closed_form(self):
        seg = Segment(PlanePoint(-1, -1), PlanePoint(1, 1))
        res = project(PLANE, seg, PlanePoint(1.0, 0.0))
        assert res.solver == "closed_form"
        assert res.point.x == pytest.approx(0.5, abs=1e-15)
        assert res.point.y == pytest.approx(0.5, abs=1e-15)

    def test_solver_follows_space_and_set(self, tripod):
        space = tripod.space
        x = ProductPoint(StarPoint(2, 0.3), StarPoint(1, 0.3))
        for seg in tripod.sets:
            res = project(space, seg, x)
            assert res.solver == "exact_piecewise"
            assert res == project_segment_tree_exact(space, seg, x)
        crossing = Segment(  # the left coordinate runs from leg 0 through the center to leg 1
            ProductPoint(StarPoint(0, 0.5), StarPoint(0, 0.5)),
            ProductPoint(StarPoint(1, 0.5), StarPoint(0, 0.2)),
        )
        res = project(space, crossing, x)
        assert res.solver == "golden_section"
        assert res == project_segment_generic(space, crossing, x, tol=1e-12)
        tree = StarTree.unit(3)  # a segment outside the plane and tree products
        leg_seg = Segment(StarPoint(0, 0.2), StarPoint(0, 0.9))
        assert project(tree, leg_seg, StarPoint(1, 0.4)).solver == "golden_section"
        seg = Segment(PlanePoint(-1, -1), PlanePoint(1, 1))
        assert project(PLANE, seg, PlanePoint(3.0, 0.5)).solver == "closed_form"

    def test_wrong_space_pairings(self, tripod):
        with pytest.raises(TypeError):
            project(tripod.space, AxisLine(), tripod.start("endpoint"))
        with pytest.raises(TypeError):
            project(PLANE, CrossDisc(0), PlanePoint(0, 0))


class TestSetDistance:
    def test_tripod_segments_sqrt2(self, tripod):
        # oracle: minimize (p + p')^2 + (2 - p - p')^2 by brute force over a
        # thousand-by-thousand parameter grid (a million samples)
        space = tripod.space
        c1, c2 = tripod.sets[0], tripod.sets[1]
        exact = set_distance(space, c1, c2)
        assert exact == pytest.approx(math.sqrt(2.0), abs=1e-12)
        p = np.linspace(0.5 - DELTA, 0.5 + DELTA, 1000)
        q = p[:, None]
        d2 = (p + q) ** 2 + (2.0 - p - q) ** 2
        assert math.sqrt(d2.min()) >= exact - 1e-12
        assert math.sqrt(d2.min()) <= exact + 1e-3

    def test_set_with_itself(self, tripod):
        c1 = tripod.sets[0]
        assert set_distance(tripod.space, c1, c1) == 0.0

    @pytest.mark.parametrize("space, set_a, set_b", [
        pytest.param(PLANE, AxisLine(), Epigraph(1.0), id="axis-epigraph"),
        pytest.param(PLANE, AxisLine(), AxisLine(), id="equal-axes"),
        pytest.param(
            ProductSpace(StarTree.unit(3), StarTree.unit(3)),
            Segment(ProductPoint(StarPoint(0, 0.5), StarPoint(2, 0.2)),
                    ProductPoint(StarPoint(1, 0.5), StarPoint(2, 0.2))),
            Segment(ProductPoint(StarPoint(0, 0.5), StarPoint(2, 0.8)),
                    ProductPoint(StarPoint(1, 0.5), StarPoint(2, 0.8))),
            id="segments-through-center"),
    ])
    def test_unsupported_pairs_raise(self, space, set_a, set_b):
        with pytest.raises(UnsupportedShapeError):
            set_distance(space, set_a, set_b)


class TestProjectionProperties:
    """Idempotence / nonexpansiveness / optimality spot checks (the full
    randomized suites run via cycproj.verify in the acceptance tests)."""

    def test_plane_segment_nonexpansive(self):
        rng = np.random.default_rng(2)
        seg = Segment(PlanePoint(-1.0, 2.0), PlanePoint(3.0, -0.5))
        worst = 0.0
        for _ in range(2000):
            x = PlanePoint(*rng.uniform(-6, 6, 2))
            y = PlanePoint(*rng.uniform(-6, 6, 2))
            px = project(PLANE, seg, x).point
            py = project(PLANE, seg, y).point
            worst = max(worst, PLANE.distance(px, py) - PLANE.distance(x, y))
        assert worst <= 1e-12

    def test_epigraph_idempotent(self):
        rng = np.random.default_rng(4)
        eps = Epigraph(0.5)
        for _ in range(200):
            x = PlanePoint(*rng.uniform(-4, 4, 2))
            px = project(PLANE, eps, x).point
            assert project(PLANE, eps, px).distance <= 1e-9
