"""Named builders for the benchmark configurations.

Each scenario fixes a space, an ordered list of convex sets and labelled
start points:

* ``tripod`` -- three unit segments of slope -1 inside a product of two
  3-leg unit trees.  The cycle maps the first segment onto itself
  isometrically but orientation-reversed, so from an endpoint the step
  size stays exactly 1: the iteration never settles.
* ``plane-two-sets`` -- the x-axis against the region above
  y = 1 + x**(-epsilon).  The two sets approach each other only at
  infinity; steps vanish faster than 1/sqrt(n) but slower than any
  n**(-1/2-delta).
* ``twisted-chain`` -- three cross-sectional discs of a twisted solid
  cylinder.  One full cycle rotates the first disc by the twist angle, so
  boundary starts step by a fixed chord forever (for twists that are
  irrational multiples of pi, the same holds for every power of the cycle).
* ``two-lines`` -- two lines through the origin: the intersecting sanity
  case with geometric convergence at ratio cos(theta)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping

from .projections import AxisLine, ConvexSet, CrossDisc, Epigraph, Segment
from .spaces import (Plane, PlanePoint, ProductPoint, ProductSpace, StarPoint, StarTree,
                     TwistedChain, _is_integer)

__all__ = [
    "Scenario",
    "build_tripod_counterexample",
    "build_plane_two_sets",
    "build_twisted_chain",
    "build_plane_two_lines",
    "SCENARIO_BUILDERS",
    "build_scenario",
]

HALF_WIDTH = math.sqrt(2.0) / 4.0  # half-width of the tripod segments


@dataclass(frozen=True)
class Scenario:
    name: str
    space: object
    sets: tuple[ConvexSet, ...]
    starts: Mapping[str, object]
    default_start: str
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "starts", MappingProxyType(dict(self.starts)))
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        if self.default_start not in self.starts:
            raise ValueError(f"default start {self.default_start!r} missing from starts")

    @property
    def k(self) -> int:
        return len(self.sets)

    def start(self, label: str | None = None):
        return self.starts[self.default_start if label is None else label]


def _anti_diagonal_segment(left_leg: int, right_leg: int) -> Segment:
    """Slope -1 segment of length 1 centered at offset 1/2 on both factors."""
    d = HALF_WIDTH
    lo, hi = 0.5 - d, 0.5 + d
    return Segment(
        ProductPoint(StarPoint(left_leg, hi), StarPoint(right_leg, lo)),
        ProductPoint(StarPoint(left_leg, lo), StarPoint(right_leg, hi)),
    )


def build_tripod_counterexample(k: int = 3) -> Scenario:
    """Three (or more) pairwise-disjoint unit segments in a tree product.

    Segment i couples leg i of the left tree with leg i of the right tree
    anti-diagonally; the centered placement keeps every projection interior,
    which makes each inter-segment projection an exact orientation-reversing
    isometry.  Sets beyond the third repeat the third, which leaves the
    cycle dynamics unchanged.
    """
    if not _is_integer(k):
        raise TypeError(f"k must be an integer, got {k!r}")
    if k < 3:
        raise ValueError(f"the construction needs k >= 3 sets, got {k!r}")
    space = ProductSpace(StarTree.unit(3), StarTree.unit(3))
    c1 = _anti_diagonal_segment(0, 0)
    c2 = _anti_diagonal_segment(1, 1)
    c3 = _anti_diagonal_segment(2, 2)
    sets = (c1, c2, c3) + (c3,) * (k - 3)
    d = HALF_WIDTH
    starts = {
        "endpoint": ProductPoint(StarPoint(0, 0.5 + d), StarPoint(0, 0.5 - d)),
        "midpoint": ProductPoint(StarPoint(0, 0.5), StarPoint(0, 0.5)),
        "center": ProductPoint(StarPoint(0, 0.0), StarPoint(0, 0.0)),
    }
    return Scenario(
        name="tripod",
        space=space,
        sets=sets,
        starts=starts,
        default_start="endpoint",
        params={"k": k},
    )


def build_plane_two_sets(epsilon: float = 0.5) -> Scenario:
    """The x-axis against the region above y = 1 + x**(-epsilon)."""
    return Scenario(
        name="plane-two-sets",
        space=Plane(),
        sets=(AxisLine(), Epigraph(epsilon)),
        starts={"unit": PlanePoint(1.0, 0.0), "origin": PlanePoint(0.0, 0.0)},
        default_start="unit",
        params={"epsilon": epsilon},
    )


def build_twisted_chain(alpha: float = 1.0, radius: float = 0.1,
                        circumference: float = 3.0) -> Scenario:
    """Three cross discs of a twisted chain, one third of a loop apart.

    Cycling through the discs in descending-height order transports a point
    once around the chain; the single wrap happens in the first applied
    projection, so one full cycle rotates the bottom disc by exactly the
    twist angle.  The step from a start on the bottom disc at radius rho is
    ``min(2 rho |sin(alpha/2)|, circumference)``: the chord only while it
    is at most one loop, which every start meets when
    ``2 * radius <= circumference``; past that the lift one loop down is
    nearer.
    """
    chain = TwistedChain(radius=radius, circumference=circumference, twist=alpha)
    return Scenario(
        name="twisted-chain",
        space=chain,
        sets=(CrossDisc(0), CrossDisc(1), CrossDisc(2)),
        starts={
            "boundary": chain.point(radius, 0.0, 0.0),
            "half-radius": chain.point(radius / 2.0, 0.0, 0.0),
            "core": chain.point(0.0, 0.0, 0.0),
        },
        default_start="boundary",
        params={"alpha": alpha, "radius": radius, "circumference": circumference},
    )


_LINE_REACH = 16.0


def build_plane_two_lines(theta: float = math.pi / 4.0) -> Scenario:
    """Sanity case: x-axis against a line through the origin at angle theta.

    The intersection is nonempty, so the iteration converges; successive
    steps contract by exactly cos(theta)^2.  The rotated line is modelled as
    a symmetric segment long enough that iterates never reach its ends.
    """
    if not (0.0 < theta < math.pi / 2.0):
        raise ValueError(f"theta must lie in (0, pi/2), got {theta!r}")
    c, s = math.cos(theta), math.sin(theta)
    line = Segment(
        PlanePoint(-_LINE_REACH * c, -_LINE_REACH * s),
        PlanePoint(_LINE_REACH * c, _LINE_REACH * s),
    )
    return Scenario(
        name="two-lines",
        space=Plane(),
        sets=(AxisLine(), line),
        starts={"unit": PlanePoint(1.0, 0.0), "origin": PlanePoint(0.0, 0.0)},
        default_start="unit",
        params={"theta": theta},
    )


SCENARIO_BUILDERS: Mapping[str, Callable[..., Scenario]] = MappingProxyType({
    "tripod": build_tripod_counterexample,
    "plane-two-sets": build_plane_two_sets,
    "twisted-chain": build_twisted_chain,
    "two-lines": build_plane_two_lines,
})


def build_scenario(name: str, **params) -> Scenario:
    """Instantiate a scenario by catalog name.

    Raises KeyError for unknown names and TypeError/ValueError for
    parameters the builder does not accept.
    """
    try:
        builder = SCENARIO_BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIO_BUILDERS))}"
        ) from None
    return builder(**params)
