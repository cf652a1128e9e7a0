"""Metric core: distances, geodesics, comparison angles, CN margins."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cycproj import (
    ChainPoint,
    Plane,
    PlanePoint,
    ProductPoint,
    ProductSpace,
    StarPoint,
    StarTree,
    TwistedChain,
    UndefinedAngleError,
    cn_check,
    comparison_angle,
    midpoint,
)

DELTA = math.sqrt(2.0) / 4.0


@pytest.fixture
def tree():
    return StarTree.unit(3)


@pytest.fixture
def product(tree):
    return ProductSpace(tree, StarTree.unit(3))


@pytest.fixture
def chain():
    return TwistedChain(radius=0.1, circumference=3.0, twist=1.0)


# ---------------------------------------------------------------------------
# Star tree


class TestStarTree:
    def test_same_leg_distance(self, tree):
        assert tree.distance(StarPoint(0, 0.3), StarPoint(0, 0.8)) == pytest.approx(0.5, abs=1e-15)

    def test_cross_leg_distance(self, tree):
        assert tree.distance(StarPoint(0, 0.3), StarPoint(1, 0.4)) == pytest.approx(0.7, abs=1e-15)

    def test_center_is_one_point(self, tree):
        assert tree.distance(StarPoint(0, 0.0), StarPoint(2, 0.0)) == 0.0
        assert StarPoint(2, 0.0) == StarPoint(0, 0.0)

    def test_geodesic_endpoints(self, tree):
        p, q = StarPoint(0, 0.8), StarPoint(1, 0.6)
        assert tree.geodesic(p, q, 0.0) == p
        assert tree.geodesic(p, q, 1.0) == q

    def test_geodesic_halfway(self, tree):
        p, q = StarPoint(0, 0.8), StarPoint(1, 0.6)
        mid = tree.geodesic(p, q, 0.5)
        assert mid.leg == 0
        assert mid.offset == pytest.approx(0.1, abs=1e-15)

    def test_geodesic_hits_center(self, tree):
        # 0.8 of arc along a path of length 1.4 lands exactly on the center
        p, q = StarPoint(0, 0.8), StarPoint(1, 0.6)
        at_center = tree.geodesic(p, q, 0.8 / 1.4)
        assert at_center.is_center
        assert tree.distance(at_center, p) == pytest.approx(0.8, abs=1e-12)

    def test_gluing_is_exact(self, tree):
        rng = np.random.default_rng(3)
        for _ in range(500):
            p = StarPoint(int(rng.integers(3)), float(rng.uniform(0, 1)))
            q = StarPoint(int(rng.integers(3)), float(rng.uniform(0, 1)))
            if p.leg == q.leg:
                continue
            through = tree.distance(p, tree.center) + tree.distance(tree.center, q)
            assert tree.distance(p, q) == through

    def test_validation(self, tree):
        with pytest.raises(ValueError):
            tree.distance(StarPoint(3, 0.1), StarPoint(0, 0.1))
        with pytest.raises(ValueError):
            tree.point(0, 1.5)
        with pytest.raises(ValueError):
            StarPoint(0, -0.2)
        with pytest.raises(ValueError):
            tree.geodesic(StarPoint(0, 0.1), StarPoint(1, 0.1), 1.2)
        with pytest.raises(ValueError):
            StarTree((1.0, 1.0))

    def test_point_leg_must_be_integral(self, tree):
        with pytest.raises(ValueError):
            tree.point(0.7, 0.3)  # no leg 0.7, and not leg 0 either
        assert tree.point(1.0, 0.3) == StarPoint(1, 0.3)  # as a CSV writes leg 1
        assert tree.point(0.0, 0.3) == StarPoint(0, 0.3)

    @pytest.mark.parametrize("leg", [1, np.int64(1), 1.0, np.float64(1.0)])
    def test_point_takes_an_integer_or_integral_float_leg(self, tree, leg):
        assert tree.point(leg, 0.3) == tree.from_coords((leg, 0.3)) == StarPoint(1, 0.3)

    @pytest.mark.parametrize("leg", [True, False, np.True_])
    def test_point_refuses_a_bool_leg(self, tree, leg):
        message = re.escape(f"leg index must be an integer, got {leg!r}")
        with pytest.raises(ValueError, match=message):
            tree.point(leg, 0.3)
        with pytest.raises(ValueError, match=message):
            tree.from_coords((leg, 0.3))

    @pytest.mark.parametrize("leg", [None, 1.5, "0"])
    def test_non_integer_leg_is_named(self, tree, leg):
        # StarPoint does not check its leg; the tree's check names it
        with pytest.raises(TypeError, match=r"leg index must be an int, got "):
            tree.distance(StarPoint(leg, 0.5), tree.center)
        with pytest.raises(TypeError, match=r"leg index must be an int, got "):
            tree.geodesic(tree.center, StarPoint(leg, 0.5), 0.5)

    @given(
        legs=st.tuples(*([st.floats(0.5, 2.0)] * 3)),
        picks=st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
        fracs=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )
    @settings(max_examples=200, deadline=None)
    def test_metric_axioms(self, legs, picks, fracs):
        tree = StarTree(legs)
        pts = [StarPoint(leg, frac * legs[leg]) for leg, frac in zip(picks, fracs)]
        p, q, z = pts
        assert tree.distance(p, q) == tree.distance(q, p)
        assert tree.distance(p, p) == 0.0
        assert tree.distance(p, z) <= tree.distance(p, q) + tree.distance(q, z) + 1e-12

    @given(
        picks=st.tuples(st.integers(0, 2), st.integers(0, 2)),
        fracs=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        t1=st.floats(0.0, 1.0),
        t2=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_constant_speed(self, picks, fracs, t1, t2):
        tree = StarTree.unit(3)
        p = StarPoint(picks[0], fracs[0])
        q = StarPoint(picks[1], fracs[1])
        g1, g2 = tree.geodesic(p, q, t1), tree.geodesic(p, q, t2)
        assert tree.distance(g1, g2) == pytest.approx(
            abs(t1 - t2) * tree.distance(p, q), abs=1e-12
        )


# ---------------------------------------------------------------------------
# Product space


class TestProduct:
    def test_distance(self, product):
        p = ProductPoint(StarPoint(0, 1.0), StarPoint(0, 1.0))
        q = ProductPoint(StarPoint(1, 1.0), StarPoint(1, 1.0))
        assert product.distance(p, q) == pytest.approx(math.sqrt(8.0), abs=1e-12)
        assert product.distance(p, p) == 0.0

    def test_segment_endpoint_distance_is_one(self, product):
        # endpoints of the first tripod segment are one unit apart
        e1 = ProductPoint(StarPoint(0, 0.5 + DELTA), StarPoint(0, 0.5 - DELTA))
        e2 = ProductPoint(StarPoint(0, 0.5 - DELTA), StarPoint(0, 0.5 + DELTA))
        assert product.distance(e1, e2) == pytest.approx(1.0, abs=1e-12)

    def test_midpoint(self, product):
        e1 = ProductPoint(StarPoint(0, 0.5 + DELTA), StarPoint(0, 0.5 - DELTA))
        e2 = ProductPoint(StarPoint(0, 0.5 - DELTA), StarPoint(0, 0.5 + DELTA))
        mid = midpoint(product, e1, e2)
        assert mid.left.offset == pytest.approx(0.5, abs=1e-15)
        assert mid.right.offset == pytest.approx(0.5, abs=1e-15)
        assert product.distance(mid, e1) == pytest.approx(0.5, abs=1e-12)
        assert product.distance(mid, e2) == pytest.approx(0.5, abs=1e-12)

    def test_geodesic_endpoints(self, product):
        p = ProductPoint(StarPoint(0, 0.4), StarPoint(2, 0.9))
        q = ProductPoint(StarPoint(1, 0.7), StarPoint(0, 0.2))
        assert product.geodesic(p, q, 0.0) == p
        assert product.geodesic(p, q, 1.0) == q

    def test_plane_factor_geodesic(self):
        plane = Plane()
        mid = plane.geodesic(PlanePoint(0, 0), PlanePoint(2, 2), 0.5)
        assert mid == PlanePoint(1.0, 1.0)

    def test_plane_geodesic_ends_are_exact(self):
        # 0.3 + 1.0 * (0.9 - 0.3) rounds to 0.9000000000000001, so t = 1 must return q itself
        p, q = PlanePoint(0.3, 0.2), PlanePoint(0.9, 0.9)
        assert Plane().geodesic(p, q, 0.0) == p
        assert Plane().geodesic(p, q, 1.0) == q

    def test_mismatched_point_rejected(self, product):
        with pytest.raises(TypeError):
            product.distance(PlanePoint(0, 0), ProductPoint(StarPoint(0, 0.1), StarPoint(0, 0.1)))

    @pytest.mark.parametrize("bad, message", [(StarPoint(3, 0.2), "leg index 3 out of range"),
                                              (StarPoint(1, 1.5), "offset 1.5 exceeds leg 1")])
    @pytest.mark.parametrize("factor", ["left", "right"])
    def test_factor_points_validated_in_either_argument(self, product, bad, message, factor):
        good = ProductPoint(StarPoint(0, 0.3), StarPoint(2, 0.6))
        if factor == "left":
            off = ProductPoint(bad, good.right)
        else:
            off = ProductPoint(good.left, bad)
        for p, q in ((off, good), (good, off)):
            with pytest.raises(ValueError, match=message):
                product.distance(p, q)
            with pytest.raises(ValueError, match=message):
                product.geodesic(p, q, 0.5)

    def test_constant_speed_random(self, product):
        rng = np.random.default_rng(11)
        for _ in range(300):
            p = ProductPoint(
                StarPoint(int(rng.integers(3)), float(rng.uniform(0, 1))),
                StarPoint(int(rng.integers(3)), float(rng.uniform(0, 1))),
            )
            q = ProductPoint(
                StarPoint(int(rng.integers(3)), float(rng.uniform(0, 1))),
                StarPoint(int(rng.integers(3)), float(rng.uniform(0, 1))),
            )
            t1, t2 = sorted(rng.uniform(0, 1, 2).tolist())
            g1, g2 = product.geodesic(p, q, t1), product.geodesic(p, q, t2)
            assert abs(product.distance(g1, g2) - (t2 - t1) * product.distance(p, q)) <= 1e-12


# ---------------------------------------------------------------------------
# Twisted chain


class TestTwistedChain:
    def test_coincident(self, chain):
        p = ChainPoint(0.05, 0.0, 1.0)
        assert chain.distance(p, p) == 0.0

    def test_gluing_identification(self, chain):
        # one full loop up composes with the holonomy rotation
        a = chain.twist
        u, v = 0.06, -0.02
        p = ChainPoint(u, v, 0.0)
        q = chain.point(math.cos(a) * u - math.sin(a) * v,
                        math.sin(a) * u + math.cos(a) * v,
                        3.0 - 1e-15)
        assert chain.distance(p, q) == pytest.approx(0.0, abs=1e-12)

    def test_wrapped_lift_wins(self, chain):
        p = ChainPoint(0.05, 0.0, 0.0)
        q = ChainPoint(0.05, 0.0, 2.0)
        # brute force over lifts, written out independently of the library
        best = math.inf
        for k in range(-3, 4):
            c, s = math.cos(k * chain.twist), math.sin(k * chain.twist)
            du = p.u - (c * q.u - s * q.v)
            dv = p.v - (s * q.u + c * q.v)
            dz = p.height - q.height - k * chain.circumference
            best = min(best, math.hypot(math.hypot(du, dv), dz))
        expected = math.sqrt(
            (0.05 * 2 * math.sin(0.5)) ** 2 + 1.0
        )  # k = -1: rotate by -twist, climb one loop less
        assert best == pytest.approx(expected, abs=1e-12)
        assert chain.distance(p, q) == pytest.approx(best, abs=1e-12)

    def test_symmetry_exact(self, chain):
        rng = np.random.default_rng(5)
        for _ in range(500):
            rad1, rad2 = chain.radius * np.sqrt(rng.uniform(0, 1, 2))
            a1, a2 = rng.uniform(0, 2 * math.pi, 2)
            h1, h2 = rng.uniform(0, chain.circumference, 2)
            p = ChainPoint(rad1 * math.cos(a1), rad1 * math.sin(a1), float(h1))
            q = ChainPoint(rad2 * math.cos(a2), rad2 * math.sin(a2), float(h2))
            assert chain.distance(p, q) == chain.distance(q, p)

    def test_representative_independence(self, chain):
        a = chain.twist
        p = ChainPoint(0.03, 0.04, 0.7)
        q = ChainPoint(-0.05, 0.01, 2.4)
        q2 = chain.point(math.cos(a) * q.u - math.sin(a) * q.v,
                         math.sin(a) * q.u + math.cos(a) * q.v,
                         q.height + chain.circumference)
        assert abs(chain.distance(p, q) - chain.distance(p, q2)) < 1e-12

    @pytest.mark.parametrize("twist, loops", [(0.4, 1), (2.3, -2), (-1.1, 3)])
    def test_holonomy_rotates_by_loops_times_twist(self, twist, loops):
        # climbing ``loops`` loops rotates the disc by loops * twist, which a
        # twist of 1.0 cannot tell from loops / twist
        chain = TwistedChain(radius=0.1, circumference=3.0, twist=twist)
        u, v, height = 0.03, 0.04, 0.7
        c, s = math.cos(loops * twist), math.sin(loops * twist)
        p = chain.point(c * u - s * v, s * u + c * v, height + loops * chain.circumference)
        assert (p.u, p.v, p.height) == pytest.approx((u, v, height), abs=1e-15)

    @staticmethod
    def per_k_distance(chain, p, q):
        """The lift loop with cos and sin computed afresh for every k.

        Its window is wider than the library's: the nearest of lifts 0 and
        +-1 is less than 2r + lam away, and lift k is at least (|k| - 1) lam
        away vertically.
        """
        if (p.height, p.u, p.v) > (q.height, q.u, q.v):
            p, q = q, p
        lam = chain.circumference
        dh = p.height - q.height
        window = 3 + math.ceil(2.0 * chain.radius / lam)
        best = math.inf
        for k in range(-window, window + 1):
            ang = k * chain.twist
            c, s = math.cos(ang), math.sin(ang)
            du = p.u - (c * q.u - s * q.v)
            dv = p.v - (s * q.u + c * q.v)
            dz = dh - k * lam
            d2 = du * du + dv * dv + dz * dz
            if d2 < best:
                best = d2
        return math.sqrt(best)

    def test_lift_table_matches_per_k_loop_bitwise(self, chain):
        # the library scans its lifts nearest first and skips those whose
        # vertical term alone reaches the best so far; the reference scans all
        rng = np.random.default_rng(41)
        chains = (chain,  # 5 lifts
                  TwistedChain(radius=0.5, circumference=1.0, twist=0.4),  # 7
                  TwistedChain(radius=2.0, circumference=0.7, twist=2.3),  # 15
                  TwistedChain(radius=3.8, circumference=0.6, twist=-1.1))  # 29
        assert [len(space._lifts) for space in chains] == [5, 7, 15, 29]
        for space in chains:
            lam = space.circumference
            edge = (0.0, math.nextafter(lam, 0.0), lam * (1.0 - 1e-15), lam - 1e-9)

            def random_point():
                rad = space.radius * math.sqrt(rng.uniform(0, 1))
                ang = rng.uniform(0, 2 * math.pi)
                h = edge[rng.integers(len(edge))] if rng.uniform() < 0.3 else rng.uniform(0, lam)
                return ChainPoint(rad * math.cos(ang), rad * math.sin(ang), float(h))

            for _ in range(5_000):
                p, q = random_point(), random_point()
                d = space.distance(p, q)
                assert d == self.per_k_distance(space, p, q)
                assert d == space.distance(q, p)

    @given(
        circumference=st.floats(1e-1, 1e1),
        widths=st.floats(1e-3, 4e2),
        twist=st.floats(-math.pi, math.pi),
        coords=st.lists(st.floats(0.0, 0.99), min_size=6, max_size=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_distance_is_the_nearest_lift(self, circumference, widths, twist, coords):
        # wide chains included: the disc's radius may span hundreds of loops
        radius = widths * circumference
        chain = TwistedChain(radius=radius, circumference=circumference, twist=twist)
        p, q = (ChainPoint(radius * math.sqrt(a) * math.cos(2 * math.pi * b),
                           radius * math.sqrt(a) * math.sin(2 * math.pi * b),
                           h * circumference)
                for a, b, h in (coords[:3], coords[3:]))
        assert chain.distance(p, q) == self.per_k_distance(chain, p, q)

    def test_wide_chain_finds_the_far_lift(self):
        chain = TwistedChain(radius=10.0, circumference=0.5, twist=0.3)
        d = chain.distance(ChainPoint(10.0, 0.0, 0.0), ChainPoint(-10.0, 0.0, 0.0))
        assert d == pytest.approx(5.196, abs=1e-3)

    def test_chain_too_wide_for_its_lift_window(self):
        with pytest.raises(ValueError, match="too wide"):
            TwistedChain(radius=500.0, circumference=1.0, twist=1.0)

    def test_validation(self, chain):
        with pytest.raises(ValueError):
            chain._check(ChainPoint(0.2, 0.0, 1.0))  # outside the disc
        with pytest.raises(ValueError):
            chain._check(ChainPoint(0.0, 0.0, 3.5))  # height not normalized
        with pytest.raises(ValueError):
            TwistedChain(radius=-1.0, circumference=3.0, twist=1.0)

    def test_disc_heights_are_thirds_of_a_loop(self, chain):
        assert chain.disc_heights == (0.0, 1.0, 2.0)

    def test_disc_heights_cannot_be_set(self):
        # a gap of exactly half a loop would tie nearest lifts mid-run
        with pytest.raises(TypeError):
            TwistedChain(radius=0.1, circumference=3.0, twist=1.0,
                         disc_heights=(0.0, 1.5, 2.25))

    @pytest.mark.parametrize("circumference", [5e-324, 1e-323])
    def test_subnormal_circumference_collides_the_discs(self, circumference):
        with pytest.raises(ValueError, match="disc heights"):
            TwistedChain(radius=0.1, circumference=circumference, twist=1.0)


# ---------------------------------------------------------------------------
# Comparison angle and CN margin


class TestComparisonAngle:
    def test_equilateral(self):
        assert comparison_angle(1, 1, 1) == pytest.approx(math.pi / 3, abs=1e-12)

    def test_right_angle(self):
        assert comparison_angle(3, 4, 5) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_degenerate_collinear(self):
        assert comparison_angle(1, 1, 2) == pytest.approx(math.pi, abs=1e-12)

    def test_zero_side_rejected(self):
        with pytest.raises(UndefinedAngleError):
            comparison_angle(0.0, 1.0, 1.0)

    def test_clamping_within_tolerance(self):
        assert comparison_angle(1.0, 1.0, 2.0 + 4e-10) == pytest.approx(math.pi, abs=1e-4)

    def test_violation_beyond_tolerance(self):
        with pytest.raises(ValueError):
            comparison_angle(1.0, 1.0, 2.1)


class TestCN:
    def test_plane_equality(self):
        plane = Plane()
        margin = cn_check(plane, PlanePoint(0, 0), PlanePoint(2, 0), PlanePoint(0, 2))
        assert margin == pytest.approx(0.0, abs=1e-12)

    def test_coincident_pair(self, product):
        x = ProductPoint(StarPoint(0, 0.7), StarPoint(1, 0.3))
        y = ProductPoint(StarPoint(2, 0.2), StarPoint(0, 0.9))
        assert cn_check(product, x, y, y) == pytest.approx(0.0, abs=1e-12)

    def test_product_margins_nonnegative(self, product):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(2000):
            pts = [
                ProductPoint(
                    StarPoint(int(rng.integers(3)), float(rng.uniform(0, 1))),
                    StarPoint(int(rng.integers(3)), float(rng.uniform(0, 1))),
                )
                for _ in range(3)
            ]
            worst = min(worst, cn_check(product, *pts))
        assert worst >= -1e-12

    def test_chain_has_no_midpoints(self, chain):
        p = ChainPoint(0.0, 0.0, 0.0)
        with pytest.raises(TypeError):
            cn_check(chain, p, p, p)
