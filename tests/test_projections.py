"""Projection operators: exact examples, independent oracles, properties."""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    project_segment_generic,
    project_segment_tree_exact,
    set_distance,
)

DELTA = math.sqrt(2.0) / 4.0
PLANE = Plane()
AXIS = AxisLine()
# Factor points off the unit tripod's trees: a fourth leg, and past a leg's end.
OFF_TREE = [pytest.param(StarPoint(3, 0.2), id="leg-3"),
            pytest.param(StarPoint(1, 1.5), id="offset-1.5")]


def off_tree_variants(point, bad):
    """``point`` with its left, then its right factor replaced by ``bad``."""
    return ProductPoint(bad, point.right), ProductPoint(point.left, bad)


# A 4-leg and a 3-leg tree with unequal legs, each a multiple of 1/8 long.
GRID_SPACE = ProductSpace(StarTree((1.0, 0.75, 0.5, 1.25)), StarTree((1.0, 0.625, 0.875)))


def grid_factor_points(tree):
    """The center and every point of ``tree`` at a multiple of 1/8 out."""
    return [StarPoint(0, 0.0)] + [StarPoint(leg, k / 8)
                                  for leg, length in enumerate(tree.leg_lengths)
                                  for k in range(1, round(8 * length) + 1)]


def crosses(a, b):
    """Whether the tree geodesic from a to b passes through the center."""
    return a.leg != b.leg and not (a.is_center or b.is_center)


def fraction_path_point(a, b, t):
    """(leg, offset) at parameter t of the tree geodesic from a to b, in Fractions."""
    oa, ob = Fraction(a.offset), Fraction(b.offset)
    if not crosses(a, b):
        return (a.leg if b.is_center else b.leg), oa + t * (ob - oa)
    travelled = t * (oa + ob)  # arc length from a
    return (a.leg, oa - travelled) if travelled <= oa else (b.leg, travelled - oa)


def fraction_foot(seg, x):
    """The foot parameter of x on seg and its squared distance, in exact arithmetic.

    Each factor's squared distance is quadratic in t between the parameters
    where its coordinate passes the center.  On each piece the quadratic is
    recovered from its values at both ends and the middle, and its minimizer
    clamped to the piece; the foot is the best of these.
    """
    factors = [(seg.start.left, seg.end.left, x.left), (seg.start.right, seg.end.right, x.right)]

    def sq(t):
        total = Fraction(0)
        for a, b, p in factors:
            leg, off = fraction_path_point(a, b, t)
            po = Fraction(p.offset)
            d = abs(off - po) if leg == p.leg or off == 0 else off + po
            total += d * d
        return total

    cuts = sorted({Fraction(0), Fraction(1)} | {
        Fraction(a.offset) / (Fraction(a.offset) + Fraction(b.offset))
        for a, b, _ in factors if crosses(a, b)})
    best = None
    for lo, hi in zip(cuts, cuts[1:]):
        mid, h = (lo + hi) / 2, (hi - lo) / 2
        f_lo, f_mid, f_hi = sq(lo), sq(mid), sq(hi)
        curve, slope = (f_lo - 2 * f_mid + f_hi) / (2 * h * h), (f_hi - f_lo) / (2 * h)
        u = min(h, max(-h, -slope / (2 * curve))) if curve > 0 else (-h if slope > 0 else h)
        candidate = (sq(mid + u), mid + u)
        best = candidate if best is None or candidate < best else best
    value, t = best
    return t, value


def epigraph_stationarity(eps, x0, y0, u):
    """The first-order optimality residual, written out independently."""
    return (u - x0) - eps * u ** (-eps - 1.0) * (1.0 + u ** (-eps) - y0)


class TestAxis:
    def test_drops_height(self):
        res = project(PLANE, AXIS, PlanePoint(3.0, 4.0))
        assert res.point == PlanePoint(3.0, 0.0)
        assert res.distance == 4.0
        assert res.solver == "closed_form"

    def test_fixed_point(self):
        res = project(PLANE, AXIS, PlanePoint(-1.0, 0.0))
        assert res.point == PlanePoint(-1.0, 0.0)
        assert res.distance == 0.0

    def test_negative_height(self):
        res = project(PLANE, AXIS, PlanePoint(0.0, -2.0))
        assert res.point == PlanePoint(0.0, 0.0)
        assert res.distance == 2.0


class TestEpigraph:
    def test_membership(self):
        res = project(PLANE, Epigraph(1.0), PlanePoint(2.0, 10.0))
        assert res.point == PlanePoint(2.0, 10.0)
        assert res.distance == 0.0
        assert res.solver == "closed_form"
        # a boundary power past float range is a boundary at +inf: the point is outside
        assert Epigraph(2.0).boundary_height(1e-300) == math.inf
        assert not Epigraph(2.0).contains(PlanePoint(1e-300, 0.0))

    @pytest.mark.parametrize("x0, y0", [(1.0, 0.0), (-5.0, 0.0)])
    def test_boundary_solve_against_dense_oracle(self, x0, y0):
        eps = 1.0
        res = project(PLANE, Epigraph(eps), PlanePoint(x0, y0))
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
        res = project(PLANE, Epigraph(0.5), PlanePoint(3.0, -1.0))
        assert res.distance == pytest.approx(PLANE.distance(PlanePoint(3.0, -1.0), res.point),
                                             abs=1e-12)

    @pytest.mark.parametrize("eps", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_epsilon_must_be_finite_and_positive(self, eps):
        # a usage error, not a failed solve
        with pytest.raises(ValueError, match="epsilon must be positive"):
            Epigraph(eps)

    def test_bracketing_failure_reports_inputs(self):
        with pytest.raises(NumericalFailureError, match="1e\\+300"):
            project(PLANE, Epigraph(1.0), PlanePoint(1e300, 0.0))

    def test_power_overflow_in_the_solve_raises(self):
        # halving from u = 1 overflows u**(-eps) at once for so large an eps
        with pytest.raises(NumericalFailureError, match="epigraph power overflowed"):
            project(PLANE, Epigraph(1e300), PlanePoint(-3.0, 2.0))

    def test_underflowed_bracket_width_reads_zero(self):
        # h(1e300) underflows to 0.0; its negation must not print as -0.0
        with pytest.raises(NumericalFailureError) as info:
            project(PLANE, Epigraph(0.5), PlanePoint(1e300, 0.0))
        assert "width 0.0 " in str(info.value)
        assert "-0.0" not in str(info.value)

    @pytest.mark.parametrize("eps, x0, foot", [
        (0.25, 1e-300, 0.74708832998635),
        (1.0, 1e-300, 1.2207440846057596),
        (0.25, 1e-12, 0.7470883299867702),
        (1.0, 1e-12, 1.2207440846060493),
        # finite brackets [x0, x0 + h(x0)] many decades wide
        (0.1, 1e-100, 0.47319375784270223),
        (0.01, 1e-300, 0.14349899580976305),
        # x0**(-eps) itself overflows: h(x0) reads +inf, the bracket runs from u = 1
        (2.0, 1e-300, 1.3301474934151594),
    ])
    def test_tiny_x_still_projects(self, eps, x0, foot):
        res = project(PLANE, Epigraph(eps), PlanePoint(x0, 0.0))
        assert res.solver == "newton"
        assert res.point.x == pytest.approx(foot, rel=1e-13, abs=0.0)
        assert abs(epigraph_stationarity(eps, x0, 0.0, res.point.x)) <= 1e-13

    @pytest.mark.parametrize("eps, x0", [(0.25, 1e8), (0.25, 1e20), (0.5, 1e20), (1.0, 1e20)])
    def test_foot_below_float_resolution_raises(self, eps, x0):
        # the foot lies less than one ulp from x0, so the step would read 0
        with pytest.raises(NumericalFailureError, match=re.escape(f"({x0!r}, 0.0), epsilon={eps!r}")):
            project(PLANE, Epigraph(eps), PlanePoint(x0, 0.0))

    def test_random_plane_points_against_grid_oracle(self):
        rng = np.random.default_rng(2024)
        points = rng.uniform(-5.0, 5.0, size=(20_000, 2))
        grid = np.exp(np.linspace(math.log(1e-4), math.log(1e2), 4001))
        for k, eps in enumerate((0.25, 0.5, 1.0)):
            epigraph = Epigraph(eps)
            outside = []
            for x0, y0 in points[k::3].tolist():
                res = project(PLANE, epigraph, PlanePoint(x0, y0))
                if res.solver == "closed_form":
                    assert epigraph.contains(PlanePoint(x0, y0))
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
        epigraph = Epigraph(eps)
        with mpmath.workdps(50):
            e = mpmath.mpf(eps)
            for _ in range(cycles):
                u = project(PLANE, epigraph, PlanePoint(x0, 0.0)).point.x
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
        generic = project_segment_generic(space, c1, x)
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

    def test_crossing_segment_is_exact(self, tripod):
        space = tripod.space
        crossing = Segment(  # the left coordinate runs from leg 0 through the center to leg 1
            ProductPoint(StarPoint(0, 0.5), StarPoint(0, 0.5)),
            ProductPoint(StarPoint(1, 0.5), StarPoint(0, 0.2)),
        )
        x = ProductPoint(StarPoint(2, 0.3), StarPoint(1, 0.3))
        # (|t - 1/2| + 0.3)^2 + (0.8 - 0.3 t)^2 falls before t = 1/2 and rises after:
        # the foot is the kink, with the left coordinate at the center
        res = project_segment_tree_exact(space, crossing, x)
        assert res.solver == "exact_piecewise"
        assert res.point.left == StarPoint(0, 0.0)
        assert res.point.right.leg == 0
        assert res.point.right.offset == pytest.approx(0.35, abs=1e-15)
        assert res.distance == pytest.approx(math.sqrt(0.3**2 + 0.65**2), abs=1e-15)
        assert project(space, crossing, x) == res
        generic = project_segment_generic(space, crossing, x)
        assert res.distance <= generic.distance + 1e-15
        assert space.distance(res.point, generic.point) <= 1e-7

    def test_center_endpoint_supported(self, tripod):
        space = tripod.space
        seg = Segment(
            ProductPoint(StarPoint(0, 0.0), StarPoint(2, 0.1)),
            ProductPoint(StarPoint(1, 0.8), StarPoint(2, 0.9)),
        )
        x = ProductPoint(StarPoint(1, 0.4), StarPoint(0, 0.6))
        res = project_segment_tree_exact(space, seg, x)
        generic = project_segment_generic(space, seg, x)
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
            generic = project_segment_generic(space, cset, x)
            worst = max(worst, space.distance(exact.point, generic.point))
        assert worst <= 1e-7


leg_lengths = st.lists(st.floats(0.25, 1.0), min_size=3, max_size=5)


@st.composite
def crossing_cases(draw):
    """A product of two 3-5 leg trees, a segment whose left coordinate crosses
    the center, and a point.  The segment's ends may lie anywhere on their legs,
    the center included, so a kink of the squared distance may come within
    golden section's polish step of an end."""
    space = ProductSpace(StarTree(tuple(draw(leg_lengths))), StarTree(tuple(draw(leg_lengths))))

    def factor_point(tree, leg=None):
        if leg is None:
            leg = draw(st.integers(0, tree.leg_count - 1))
        return StarPoint(leg, draw(st.floats(0.0, 1.0)) * tree.leg_lengths[leg])

    k = space.left.leg_count
    a_leg = draw(st.integers(0, k - 1))
    b_leg = (a_leg + draw(st.integers(1, k - 1))) % k
    seg = Segment(ProductPoint(factor_point(space.left, a_leg), factor_point(space.right)),
                  ProductPoint(factor_point(space.left, b_leg), factor_point(space.right)))
    return space, seg, ProductPoint(factor_point(space.left), factor_point(space.right))


@st.composite
def tree_segments(draw):
    """A product of two 3-5 leg trees and a segment of it whose end coordinates
    each lie at a leg's end, at the center or anywhere on a leg."""
    space = ProductSpace(StarTree(tuple(draw(leg_lengths))), StarTree(tuple(draw(leg_lengths))))

    def factor_point(tree):
        leg = draw(st.integers(0, tree.leg_count - 1))
        length = tree.leg_lengths[leg]
        return StarPoint(leg, draw(st.sampled_from([0.0, length]) | st.floats(0.0, length)))

    return space, Segment(ProductPoint(factor_point(space.left), factor_point(space.right)),
                          ProductPoint(factor_point(space.left), factor_point(space.right)))


_TRIPOD = build_tripod_counterexample(3)


class TestCrossingSegments:
    """Segments of a product of star trees whose coordinates pass a tree center."""

    def test_foot_equals_the_rational_foot(self):
        rng = np.random.default_rng(37)
        left, right = grid_factor_points(GRID_SPACE.left), grid_factor_points(GRID_SPACE.right)

        def grid_point():
            return ProductPoint(left[rng.integers(len(left))], right[rng.integers(len(right))])

        kinds = {True: 0, False: 0}
        for _ in range(400):
            seg, x = Segment(grid_point(), grid_point()), grid_point()
            t, value = fraction_foot(seg, x)
            res = project_segment_tree_exact(GRID_SPACE, seg, x)
            assert res.solver == "exact_piecewise"
            for tree, a, b, got in ((GRID_SPACE.left, seg.start.left, seg.end.left, res.point.left),
                                    (GRID_SPACE.right, seg.start.right, seg.end.right,
                                     res.point.right)):
                leg, off = fraction_path_point(a, b, t)
                assert tree.distance(got, StarPoint(leg if off else 0, float(off))) <= 1e-15
            assert abs(res.distance - math.sqrt(value)) <= 1e-15
            kinds[crosses(seg.start.left, seg.end.left)
                  or crosses(seg.start.right, seg.end.right)] += 1
        assert min(kinds.values()) >= 50  # crossing and leg-confined segments both

    def test_segment_too_short_to_square(self):
        # ds * ds underflows to 0.0, so no piece has a finite vertex
        space = ProductSpace(StarTree.unit(3), StarTree.unit(3))
        seg = Segment(ProductPoint(StarPoint(0, 1e-170), StarPoint(1, 0.5)),
                      ProductPoint(StarPoint(1, 1e-170), StarPoint(1, 0.5)))
        x = ProductPoint(StarPoint(2, 0.3), StarPoint(0, 0.2))
        res = project_segment_tree_exact(space, seg, x)
        assert res.distance == pytest.approx(math.hypot(0.3, 0.7), abs=1e-15)
        assert set_distance(space, seg, Segment(x, x)) == pytest.approx(res.distance, abs=1e-15)
        for end in (seg.start, seg.end):  # found exactly, where every square underflows
            assert project_segment_tree_exact(space, seg, end).point == end

    def test_segment_too_short_to_square_with_two_pieces(self):
        # every square underflows; the left coordinate passes its center at t = 4/5,
        # and the right factor's term is what puts the foot on the first piece
        tiny = 1e-170
        space = ProductSpace(StarTree.unit(3), StarTree.unit(3))
        seg = Segment(ProductPoint(StarPoint(1, 4 * tiny), StarPoint(2, 3 * tiny)),
                      ProductPoint(StarPoint(2, tiny), StarPoint(2, 4 * tiny)))
        x = ProductPoint(StarPoint(1, tiny), StarPoint(0, 0.0))
        t, value = fraction_foot(seg, x)
        assert 0 < t < Fraction(4, 5)
        res = project_segment_tree_exact(space, seg, x)
        assert res.distance == pytest.approx(tiny * math.sqrt(value / Fraction(tiny) ** 2),
                                             rel=1e-15)
        for tree, a, b, got in ((space.left, seg.start.left, seg.end.left, res.point.left),
                                (space.right, seg.start.right, seg.end.right, res.point.right)):
            leg, off = fraction_path_point(a, b, t)
            assert tree.distance(got, StarPoint(leg if off else 0, float(off))) <= 1e-15 * tiny

    @pytest.mark.parametrize("short_leg, start", [
        # -0.1 + (0.1 + 0.3) rounds past the short leg's end, 0.3
        (0.3, StarPoint(0, 0.1)),
        # 0.3 + (0.9 - 0.3) rounds past it on a segment that changes no leg
        (0.9, StarPoint(1, 0.3)),
    ], ids=["crossing", "leg-confined"])
    def test_segment_ending_at_a_leg_end(self, short_leg, start):
        space = ProductSpace(StarTree((1.0, short_leg, 1.0)), StarTree.unit(3))
        seg = Segment(ProductPoint(start, StarPoint(0, 0.5)),
                      ProductPoint(StarPoint(1, short_leg), StarPoint(0, 0.5)))
        res = project_segment_tree_exact(space, seg, seg.end)
        assert res.point == seg.end
        assert res.distance == 0.0

    @given(tree_segments())
    @example((_TRIPOD.space, _TRIPOD.sets[0]))
    @example((_TRIPOD.space, _TRIPOD.sets[1]))
    @example((_TRIPOD.space, _TRIPOD.sets[2]))
    @settings(max_examples=300, deadline=None)
    def test_ends_are_their_own_feet(self, case):
        # the tripod's endpoint orbit runs through these ends every cycle
        space, seg = case
        for end in (seg.start, seg.end):
            res = project(space, seg, end)
            assert repr(res.point) == repr(end)
            assert res.distance == 0.0

    @given(crossing_cases())
    @settings(max_examples=200, deadline=None)
    def test_never_farther_than_golden_section(self, case):
        space, seg, x = case
        exact = project_segment_tree_exact(space, seg, x)
        generic = project_segment_generic(space, seg, x)
        assert exact.distance <= generic.distance + 1e-15
        assert space.distance(exact.point, generic.point) <= 1e-7

    def test_golden_section_near_an_end_kink(self):
        # one end of the segment lies within 4e-5 of the left tree's center, so
        # the kink where the path crosses it is within golden section's polish
        # step of t = 0 or t = 1, where the polish base is clamped off t_best
        rng = np.random.default_rng(53)

        def factor_point(tree, leg=None):
            if leg is None:
                leg = int(rng.integers(tree.leg_count))
            return StarPoint(leg, float(rng.uniform()) * tree.leg_lengths[leg])

        for _ in range(1000):
            space = ProductSpace(*(StarTree(tuple(rng.uniform(0.5, 2.0, size).tolist()))
                                   for size in rng.integers(3, 6, 2).tolist()))
            k = space.left.leg_count
            a_leg = int(rng.integers(k))
            b_leg = (a_leg + int(rng.integers(1, k))) % k
            far = ProductPoint(factor_point(space.left, a_leg), factor_point(space.right))
            near = ProductPoint(StarPoint(b_leg, float(rng.uniform(0.0, 4e-5))),
                                factor_point(space.right))
            seg = Segment(far, near) if rng.uniform() < 0.5 else Segment(near, far)
            x = ProductPoint(factor_point(space.left), factor_point(space.right))
            exact = project_segment_tree_exact(space, seg, x)
            generic = project_segment_generic(space, seg, x)
            assert generic.distance - exact.distance <= 1e-11
            assert space.distance(exact.point, generic.point) <= 1e-7

    def test_set_distance_against_sampled_minima(self):
        rng = np.random.default_rng(43)
        ts = np.linspace(0.0, 1.0, 41).tolist()

        def factor_point(tree, leg):
            return StarPoint(leg, float(rng.uniform(0.0, tree.leg_lengths[leg])))

        def crossing_segment(space):
            # both coordinates change leg, unless a drawn end is the center
            ends = [[factor_point(tree, leg) if rng.uniform() > 0.15 else StarPoint(0, 0.0)
                     for leg in rng.choice(tree.leg_count, 2, replace=False).tolist()]
                    for tree in (space.left, space.right)]
            return Segment(ProductPoint(ends[0][0], ends[1][0]),
                           ProductPoint(ends[0][1], ends[1][1]))

        for _ in range(60):
            space = ProductSpace(StarTree(tuple(rng.uniform(0.25, 1.5, 4).tolist())),
                                 StarTree(tuple(rng.uniform(0.25, 1.5, 3).tolist())))
            set_a, set_b = crossing_segment(space), crossing_segment(space)
            exact = set_distance(space, set_a, set_b)
            points_a = [space.geodesic(set_a.start, set_a.end, t) for t in ts]
            points_b = [space.geodesic(set_b.start, set_b.end, t) for t in ts]
            assert exact <= min(space.distance(p, q) for p in points_a for q in points_b) + 1e-15
            # the minimizing s is within half a grid step of a grid point
            by_s = min(project_segment_tree_exact(space, set_b, p).distance for p in points_a)
            reach = space.distance(set_a.start, set_a.end) / (len(ts) - 1) / 2
            assert exact >= by_s - reach - 1e-15


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
        res = project(chain, CrossDisc(1), x)
        assert res.point == x
        assert res.distance == 0.0

    def test_unwrapped_drop(self, chain):
        x = ChainPoint(0.05, 0.0, 1.0)
        res = project(chain, CrossDisc(0), x)
        assert res.point.u == pytest.approx(0.05, abs=1e-15)
        assert res.point.v == pytest.approx(0.0, abs=1e-15)
        assert res.point.height == 0.0
        assert res.distance == pytest.approx(1.0, abs=1e-15)
        assert res.distance == pytest.approx(self.brute_force_distance(chain, x, 0), abs=1e-3)

    def test_wrapped_drop_rotates(self, chain):
        x = ChainPoint(0.05, 0.0, 0.0)
        res = project(chain, CrossDisc(2), x)  # disc at height 2: wrap downwards
        assert res.point.u == pytest.approx(0.05 * math.cos(1.0), abs=1e-15)
        assert res.point.v == pytest.approx(0.05 * math.sin(1.0), abs=1e-15)
        assert res.point.height == 2.0
        assert res.distance == pytest.approx(1.0, abs=1e-15)
        assert res.distance == pytest.approx(self.brute_force_distance(chain, x, 2), abs=1e-3)

    def test_ambiguous_tie_rejected(self):
        chain = TwistedChain(radius=0.1, circumference=3.0, twist=1.0)
        x = ChainPoint(0.05, 0.0, 2.5)  # exactly half a loop from disc 1
        with pytest.raises(AmbiguousProjectionError):
            project(chain, CrossDisc(1), x)

    @pytest.mark.parametrize("index", [1.5, 3, -1, True])
    def test_bad_disc_index_rejected(self, index):
        message = re.escape(f"disc_index must be 0, 1 or 2, got {index!r}")
        with pytest.raises(ValueError, match=message):
            CrossDisc(index)

    def test_numpy_disc_index_accepted(self, chain):
        x = ChainPoint(0.02, 0.07, 2.6)
        assert project(chain, CrossDisc(np.int64(1)), x) == project(chain, CrossDisc(1), x)

    def test_projected_distance_is_metric_distance(self, chain):
        x = ChainPoint(0.02, 0.07, 2.6)
        for i in range(3):
            res = project(chain, CrossDisc(i), x)
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
        assert res.solver == "exact_piecewise"
        assert res == project_segment_tree_exact(space, crossing, x)
        tree = StarTree.unit(3)  # a segment outside the plane and tree products
        leg_seg = Segment(StarPoint(0, 0.2), StarPoint(0, 0.9))
        assert project(tree, leg_seg, StarPoint(1, 0.4)).solver == "golden_section"
        seg = Segment(PlanePoint(-1, -1), PlanePoint(1, 1))
        assert project(PLANE, seg, PlanePoint(3.0, 0.5)).solver == "closed_form"

    def test_zero_length_plane_segment_is_its_point(self):
        seg = Segment(PlanePoint(1.0, 2.0), PlanePoint(1.0, 2.0))
        res = project(PLANE, seg, PlanePoint(4.0, 6.0))
        assert (res.point, res.distance, res.solver) == (PlanePoint(1.0, 2.0), 5.0, "closed_form")

    @pytest.mark.parametrize("start, end, x", [
        (PlanePoint(0, 0), PlanePoint(1, 0), StarPoint(0, 0.5)),
        (StarPoint(0, 0.5), PlanePoint(1, 0), PlanePoint(0, 0.5)),
        (PlanePoint(0, 0), StarPoint(0, 0.5), PlanePoint(0, 0.5)),
    ], ids=["point", "start", "end"])
    def test_plane_segment_checks_every_argument(self, start, end, x):
        with pytest.raises(TypeError, match="expected PlanePoint, got StarPoint"):
            project(PLANE, Segment(start, end), x)

    def test_segment_ends_are_checked_once_per_space(self, monkeypatch):
        checked = []
        check = Plane._check

        def counted(plane, p):
            checked.append(p)
            check(plane, p)

        monkeypatch.setattr(Plane, "_check", counted)
        seg, x = Segment(PlanePoint(-1, -1), PlanePoint(1, 1)), PlanePoint(1.0, 0.0)
        counts = []
        for plane in (PLANE, PLANE, PLANE, Plane(), PLANE):  # an equal plane is another space
            checked.clear()
            project(plane, seg, x)
            counts.append(len(checked))
        assert counts == [3, 1, 1, 3, 3]
        bad = Segment(PlanePoint(0, 0), StarPoint(0, 0.5))
        for _ in range(2):  # a failed check keeps no record
            checked.clear()
            with pytest.raises(TypeError, match="expected PlanePoint, got StarPoint"):
                project(PLANE, bad, x)
            assert checked == [bad.start, bad.end]

    def test_segment_in_a_product_not_of_trees(self):
        space = ProductSpace(StarTree.unit(3), Plane())
        seg = Segment(ProductPoint(StarPoint(0, 0.5), PlanePoint(0.0, 1.0)),
                      ProductPoint(StarPoint(1, 0.5), PlanePoint(1.0, 0.0)))
        x = ProductPoint(StarPoint(2, 0.3), PlanePoint(0.5, 0.5))
        res = project(space, seg, x)
        assert res.solver == "golden_section"
        assert repr(res) == repr(project_segment_generic(space, seg, x))
        # the shape is rejected before the ends are checked
        off = Segment(ProductPoint(StarPoint(3, 0.2), PlanePoint(0.0, 1.0)), seg.end)
        for segment in (seg, off):
            with pytest.raises(UnsupportedShapeError):
                project_segment_tree_exact(space, segment, x)
            with pytest.raises(UnsupportedShapeError):
                set_distance(space, segment, seg)

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
    ])
    def test_unsupported_pairs_raise(self, space, set_a, set_b):
        with pytest.raises(UnsupportedShapeError):
            set_distance(space, set_a, set_b)

    def test_segments_through_center(self):
        # the left coordinates share one path through the center; the right
        # ones stay 0.6 apart on leg 2
        space = ProductSpace(StarTree.unit(3), StarTree.unit(3))
        set_a = Segment(ProductPoint(StarPoint(0, 0.5), StarPoint(2, 0.2)),
                        ProductPoint(StarPoint(1, 0.5), StarPoint(2, 0.2)))
        set_b = Segment(ProductPoint(StarPoint(0, 0.5), StarPoint(2, 0.8)),
                        ProductPoint(StarPoint(1, 0.5), StarPoint(2, 0.8)))
        assert set_distance(space, set_a, set_b) == pytest.approx(0.6, abs=1e-15)
        assert set_distance(space, set_b, set_a) == pytest.approx(0.6, abs=1e-15)


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
