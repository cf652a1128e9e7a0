"""Metric core: distances, geodesics, comparison angles, CN margins."""

from __future__ import annotations

import math

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

    @staticmethod
    def per_k_distance(chain, p, q):
        """The lift loop with cos and sin computed afresh for every k."""
        if (p.height, p.u, p.v) > (q.height, q.u, q.v):
            p, q = q, p
        lam = chain.circumference
        dh = p.height - q.height
        window = 2 + math.ceil((abs(dh) + lam) / lam)
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
        rng = np.random.default_rng(41)
        wide = TwistedChain(radius=2.0, circumference=0.7, twist=2.3)
        for space in (chain, wide):
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

    def test_validation(self, chain):
        with pytest.raises(ValueError):
            chain._check(ChainPoint(0.2, 0.0, 1.0))  # outside the disc
        with pytest.raises(ValueError):
            chain._check(ChainPoint(0.0, 0.0, 3.5))  # height not normalized
        with pytest.raises(ValueError):
            TwistedChain(radius=-1.0, circumference=3.0, twist=1.0)
        with pytest.raises(ValueError):
            TwistedChain(radius=0.1, circumference=3.0, twist=1.0,
                         disc_heights=(0.0, 0.1, 2.9))  # wrap gap too uneven


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
