"""Scenario builders: pinned coordinates and certified behavior."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from cycproj import (
    ChainPoint,
    Epigraph,
    SCENARIO_BUILDERS,
    build_plane_two_lines,
    build_plane_two_sets,
    build_scenario,
    build_tripod_counterexample,
    build_twisted_chain,
    cycle_apply,
    iterate,
    project,
    set_distance,
)


class TestTripodBuilder:
    def test_three_disjoint_segments(self):
        scenario = build_tripod_counterexample(3)
        assert scenario.k == 3
        for i in range(3):
            for j in range(i + 1, 3):
                gap = set_distance(scenario.space, scenario.sets[i], scenario.sets[j])
                assert gap == pytest.approx(math.sqrt(2.0), abs=1e-9)

    def test_extra_sets_duplicate_the_third(self):
        scenario = build_tripod_counterexample(5)
        assert scenario.k == 5
        assert scenario.sets[3] == scenario.sets[2]
        assert scenario.sets[4] == scenario.sets[2]
        # dynamics unchanged: duplicated projections are identities mid-cycle
        trace = iterate(scenario.space, scenario.sets, scenario.start("endpoint"), 50)
        assert np.abs(trace.r - 1.0).max() <= 1e-9

    def test_segments_have_unit_length(self):
        scenario = build_tripod_counterexample(3)
        for cset in scenario.sets[:3]:
            assert scenario.space.distance(cset.start, cset.end) == pytest.approx(1.0, abs=1e-12)

    def test_k_below_three_rejected(self):
        with pytest.raises(ValueError):
            build_tripod_counterexample(2)

    @pytest.mark.parametrize("k", [3.0, True, "3"])
    def test_non_integral_k_rejected_before_building(self, monkeypatch, k):
        import cycproj.scenarios

        def unbuilt(*args):
            raise AssertionError("built a tree")

        monkeypatch.setattr(cycproj.scenarios.StarTree, "unit", unbuilt)
        with pytest.raises(TypeError, match=re.escape(f"k must be an integer, got {k!r}")):
            build_tripod_counterexample(k)


class TestPlaneTwoSetsBuilder:
    def test_boundary_formula(self):
        scenario = build_plane_two_sets(0.5)
        epi = scenario.sets[1]
        assert isinstance(epi, Epigraph)
        assert epi.boundary_height(4.0) == pytest.approx(1.5, abs=1e-15)

    def test_first_step_moves_right(self):
        scenario = build_plane_two_sets(0.5)
        trace = iterate(scenario.space, scenario.sets, scenario.start(), 1)
        x1 = trace.points[1]
        assert x1.x > 1.0
        assert x1.y == 0.0

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            build_plane_two_sets(0.0)
        with pytest.raises(ValueError):
            build_plane_two_sets(-1.0)


class TestTwistedChainBuilder:
    def test_cycle_rotates_bottom_disc(self):
        scenario = build_twisted_chain(alpha=1.0, radius=0.1, circumference=3.0)
        chain = scenario.space
        rng = np.random.default_rng(9)
        for _ in range(20):
            rad = 0.1 * math.sqrt(float(rng.uniform(0, 1)))
            ang = float(rng.uniform(0, 2 * math.pi))
            x = ChainPoint(rad * math.cos(ang), rad * math.sin(ang), 0.0)
            y, _ = cycle_apply(chain, scenario.sets, x)
            assert y.height == 0.0
            assert y.u == pytest.approx(math.cos(1.0) * x.u - math.sin(1.0) * x.v, abs=1e-12)
            assert y.v == pytest.approx(math.sin(1.0) * x.u + math.cos(1.0) * x.v, abs=1e-12)

    def test_wrap_happens_exactly_once(self):
        scenario = build_twisted_chain(alpha=1.0, radius=0.1, circumference=3.0)
        chain = scenario.space
        x = ChainPoint(0.1, 0.0, 0.0)
        first = project(chain, scenario.sets[2], x).point
        second = project(chain, scenario.sets[1], first).point
        third = project(chain, scenario.sets[0], second).point
        # only the first hop (across the gluing) rotates the coordinates
        assert (first.u, first.v) != (x.u, x.v)
        assert (second.u, second.v) == (first.u, first.v)
        assert (third.u, third.v) == (second.u, second.v)

    def test_untwisted_chain_is_static(self):
        scenario = build_twisted_chain(alpha=0.0, radius=0.1, circumference=3.0)
        trace = iterate(scenario.space, scenario.sets, scenario.start("boundary"), 20)
        assert np.abs(trace.r).max() <= 1e-15

    def test_quarter_turn_has_period_four(self):
        scenario = build_twisted_chain(alpha=math.pi / 2.0, radius=0.1, circumference=3.0)
        chain = scenario.space
        x = ChainPoint(0.1, 0.0, 0.0)
        y = x
        for _ in range(4):
            y, _ = cycle_apply(chain, scenario.sets, y)
        assert math.hypot(y.u - x.u, y.v - x.v) <= 1e-12
        # a rational twist still never settles
        trace = iterate(chain, scenario.sets, scenario.start("boundary"), 100)
        assert trace.r.min() >= 0.1  # 2 * 0.1 * sin(pi/4) ~ 0.1414

    def test_core_start_is_fixed(self):
        scenario = build_twisted_chain(alpha=1.0, radius=0.1, circumference=3.0)
        trace = iterate(scenario.space, scenario.sets, scenario.start("core"), 10)
        assert np.abs(trace.r).max() <= 1e-15


class TestTwoLinesBuilder:
    def test_theta_domain(self):
        with pytest.raises(ValueError):
            build_plane_two_lines(0.0)
        with pytest.raises(ValueError):
            build_plane_two_lines(math.pi / 2.0)

    def test_origin_is_fixed(self):
        scenario = build_plane_two_lines(math.pi / 4.0)
        trace = iterate(scenario.space, scenario.sets, scenario.start("origin"), 10)
        assert np.abs(trace.r).max() == 0.0

    def test_contraction_ratio_matches_angle(self):
        for theta in (math.pi / 6.0, math.pi / 4.0, 1.2):
            scenario = build_plane_two_lines(theta)
            trace = iterate(scenario.space, scenario.sets, scenario.start(), 40)
            ratios = trace.r[1:] / trace.r[:-1]
            assert np.abs(ratios - math.cos(theta) ** 2).max() <= 1e-9


class TestCatalog:
    def test_names(self):
        assert set(SCENARIO_BUILDERS) == {"tripod", "plane-two-sets", "twisted-chain", "two-lines"}

    def test_build_by_name(self):
        scenario = build_scenario("plane-two-sets", epsilon=0.25)
        assert scenario.params["epsilon"] == 0.25

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            build_scenario("moebius")

    def test_a_parameter_the_scenario_does_not_take(self):
        message = "scenario 'twisted-chain' takes alpha, radius, circumference, not k, theta"
        with pytest.raises(TypeError, match=re.escape(message)):
            build_scenario("twisted-chain", alpha=1.0, k=3, theta=0.5)

    def test_unknown_start_label(self):
        scenario = build_scenario("tripod")
        with pytest.raises(KeyError):
            scenario.start("nowhere")
