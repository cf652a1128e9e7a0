"""Cyclic closest-point projections in CAT(0) spaces.

The library builds the spaces (plane, star trees, their products, and a
twisted disc chain), projects onto their convex subsets, iterates the
cyclic composition of projections, and classifies whether the step sizes
d(P^n x, P^{n+1} x) die out or stall at a positive level.
"""

from .engine import (
    RateFit,
    RegularityVerdict,
    Trace,
    TwoSetReport,
    cycle_apply,
    iterate,
    rate_fit,
    two_set_diagnostics,
    verdict,
)
from .projections import (
    AmbiguousProjectionError,
    AxisLine,
    ConvexSet,
    CrossDisc,
    Epigraph,
    NumericalFailureError,
    ProjectionResult,
    Segment,
    UnsupportedShapeError,
    project,
    project_segment_generic,
    project_segment_tree_exact,
    set_distance,
)
from .scenarios import (
    SCENARIO_BUILDERS,
    Scenario,
    build_plane_two_lines,
    build_plane_two_sets,
    build_scenario,
    build_tripod_counterexample,
    build_twisted_chain,
)
from .spaces import (
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

__version__ = "0.1.0"

__all__ = [
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
