"""The package's public names: the exact list, and each one importable."""

from __future__ import annotations

import cycproj

PUBLIC = [
    "AmbiguousProjectionError",
    "AxisLine",
    "ChainPoint",
    "ConvexSet",
    "CrossDisc",
    "Epigraph",
    "NumericalFailureError",
    "Plane",
    "PlanePoint",
    "ProductPoint",
    "ProductSpace",
    "ProjectionResult",
    "RateFit",
    "RegularityVerdict",
    "SCENARIO_BUILDERS",
    "Scenario",
    "Segment",
    "StarPoint",
    "StarTree",
    "Trace",
    "TwistedChain",
    "TwoSetReport",
    "UndefinedAngleError",
    "UnsupportedShapeError",
    "build_plane_two_lines",
    "build_plane_two_sets",
    "build_scenario",
    "build_tripod_counterexample",
    "build_twisted_chain",
    "cn_check",
    "comparison_angle",
    "cycle_apply",
    "iterate",
    "midpoint",
    "project",
    "project_segment_generic",
    "project_segment_tree_exact",
    "rate_fit",
    "set_distance",
    "two_set_diagnostics",
    "verdict",
]


def test_public_names_are_exactly_the_list():
    assert sorted(cycproj.__all__) == PUBLIC


def test_every_public_name_resolves():
    namespace = {}
    exec("from cycproj import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(cycproj, name), name
