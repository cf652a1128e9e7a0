"""Points, distances, and geodesics for the model spaces.

Four spaces are implemented:

* ``Plane`` -- the Euclidean plane.
* ``StarTree`` -- k >= 3 segments ("legs") glued at a common center,
  carrying the induced length metric.  Points are (leg, offset) pairs.
* ``ProductSpace`` -- the l2 product of two spaces: distances combine as
  sqrt(dL^2 + dR^2), geodesics run componentwise.
* ``TwistedChain`` -- a flat solid cylinder D x R glued to itself by
  (d, h) ~ (rotate(d, twist), h + circumference).  Only distances and
  cross-sectional disc data are needed; the chain has no geodesic method
  because it is flat but not simply connected.

The first three spaces are CAT(0); every space object is immutable and all
operations are pure functions, so values can be shared freely across
threads or processes.

Each space also owns its flat coordinate encoding, used by trace files and
the command line: ``coord_names`` labels the coordinates, ``to_coords(p)``
lists them and ``from_coords(values)`` rebuilds the point through the
validating ``point()``.

Validation happens where values enter.  Each point class's ``__init__``
checks that its coordinates are finite (and a star point's offset that it is
nonnegative), then writes its slots directly through the slot descriptors
rather than the frozen dataclass's per-field ``object.__setattr__``; there
is no unchecked constructor.  Whether a point lies on a given space is a
property of the space, so ``point``, ``distance`` and ``geodesic`` still
check every point they are given (``_check``) and raise ``TypeError`` or
``ValueError`` for a point that is not on it.  ``_distance`` and
``_geodesic`` are the unchecked internals behind them, for callers that have
already validated their points; a product space combines its factors'
internals, so each factor point is checked once per call.  The checked
``distance`` and ``geodesic`` are written once, below, and shared by every
space.  :mod:`cycproj.projections` checks a segment's ends once per space.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

__all__ = [
    "PlanePoint",
    "Plane",
    "StarPoint",
    "StarTree",
    "ProductPoint",
    "ProductSpace",
    "ChainPoint",
    "TwistedChain",
    "UndefinedAngleError",
    "comparison_angle",
    "cn_check",
    "midpoint",
]


class UndefinedAngleError(ValueError):
    """A comparison angle was requested at a vertex with a zero side."""


def _require_finite(name: float | str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer, a numpy one included, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _checked_distance(space, p, q) -> float:
    """``space._distance(p, q)`` for points checked to lie on the space."""
    space._check(p)
    space._check(q)
    return space._distance(p, q)


def _checked_geodesic(space, p, q, t: float):
    """``space._geodesic(p, q, t)`` for checked points and t in [0, 1]."""
    space._check(p)
    space._check(q)
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"geodesic parameter must lie in [0, 1], got {t!r}")
    return space._geodesic(p, q, t)


# ---------------------------------------------------------------------------
# Euclidean plane


@dataclass(frozen=True, slots=True, init=False)
class PlanePoint:
    x: float
    y: float

    def __init__(self, x: float, y: float) -> None:
        if not (math.isfinite(x) and math.isfinite(y)):
            _require_finite("x", x)
            _require_finite("y", y)
        _set_plane_x(self, x)
        _set_plane_y(self, y)


_set_plane_x = PlanePoint.x.__set__
_set_plane_y = PlanePoint.y.__set__


@dataclass(frozen=True, slots=True)
class Plane:
    """The Euclidean plane with its usual metric and straight-line geodesics."""

    coord_names = ("x", "y")

    def point(self, x: float, y: float) -> PlanePoint:
        return PlanePoint(float(x), float(y))

    def to_coords(self, p: PlanePoint) -> tuple[float, float]:
        return (p.x, p.y)

    def from_coords(self, values) -> PlanePoint:
        x, y = values
        return self.point(x, y)

    def _check(self, p: PlanePoint) -> None:
        if not isinstance(p, PlanePoint):
            raise TypeError(f"expected PlanePoint, got {type(p).__name__}")

    # bound in each class's own body, where per-class wrappers look them up
    distance = _checked_distance
    geodesic = _checked_geodesic

    def _distance(self, p: PlanePoint, q: PlanePoint) -> float:
        return math.hypot(p.x - q.x, p.y - q.y)

    def _geodesic(self, p: PlanePoint, q: PlanePoint, t: float) -> PlanePoint:
        if t == 0.0:
            return p
        if t == 1.0:
            return q
        return PlanePoint(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))


# ---------------------------------------------------------------------------
# Star trees


@dataclass(frozen=True, slots=True, init=False)
class StarPoint:
    """A point on a star tree: leg index plus distance from the center.

    The center itself is canonicalized to ``leg == 0`` so that structural
    equality of dataclasses coincides with equality of points; no
    tolerance-based comparison is ever needed at the branch point.
    """

    leg: int
    offset: float

    def __init__(self, leg: int, offset: float) -> None:
        # finiteness first: it is what rejects a non-number such as "a"
        if not math.isfinite(offset):
            _require_finite("offset", offset)
        if offset < 0.0:
            raise ValueError(f"offset must be >= 0, got {offset!r}")
        if offset == 0.0:
            leg, offset = 0, 0.0  # normalizes -0.0
        _set_star_leg(self, leg)
        _set_star_offset(self, offset)

    @property
    def is_center(self) -> bool:
        return self.offset == 0.0


_set_star_leg = StarPoint.leg.__set__
_set_star_offset = StarPoint.offset.__set__


@dataclass(frozen=True, slots=True)
class StarTree:
    """k >= 3 segments of given lengths glued at one common endpoint."""

    leg_lengths: tuple[float, ...]

    def __post_init__(self) -> None:
        lengths = tuple(float(v) for v in self.leg_lengths)
        object.__setattr__(self, "leg_lengths", lengths)
        if len(lengths) < 3:
            raise ValueError(f"a star tree needs at least 3 legs, got {len(lengths)}")
        for i, length in enumerate(lengths):
            _require_finite(f"leg_lengths[{i}]", length)
            if length <= 0.0:
                raise ValueError(f"leg {i} must have positive length, got {length!r}")

    @classmethod
    def unit(cls, legs: int = 3) -> "StarTree":
        return cls((1.0,) * legs)

    @property
    def leg_count(self) -> int:
        return len(self.leg_lengths)

    @property
    def center(self) -> StarPoint:
        return StarPoint(0, 0.0)

    coord_names = ("leg", "offset")

    def point(self, leg: int, offset: float) -> StarPoint:
        """The point ``offset`` out along ``leg``, which must be integral (1.0 but not 0.7)."""
        if not (_is_integer(leg) or isinstance(leg, float) and leg.is_integer()):
            raise ValueError(f"leg index must be an integer, got {leg!r}")
        p = StarPoint(int(leg), float(offset))
        self._check(p)
        return p

    def to_coords(self, p: StarPoint) -> tuple[int, float]:
        return (p.leg, p.offset)

    def from_coords(self, values) -> StarPoint:
        leg, offset = values
        return self.point(leg, offset)

    def _check(self, p: StarPoint) -> None:
        if not isinstance(p, StarPoint):
            raise TypeError(f"expected StarPoint, got {type(p).__name__}")
        lengths = self.leg_lengths
        try:
            if not (0 <= p.leg < len(lengths)):
                raise ValueError(f"leg index {p.leg} out of range for {len(lengths)}-leg tree")
            if p.offset > lengths[p.leg]:
                raise ValueError(f"offset {p.offset!r} exceeds leg {p.leg} "
                                 f"length {lengths[p.leg]!r}")
        except TypeError:  # StarPoint checks its offset but not its leg
            raise TypeError(f"leg index must be an int, got {p.leg!r}") from None

    # bound in each class's own body, where per-class wrappers look them up
    distance = _checked_distance
    geodesic = _checked_geodesic

    def _distance(self, p: StarPoint, q: StarPoint) -> float:
        """Length metric: |offsets| apart on one leg, through the center otherwise."""
        if p.leg == q.leg:
            return abs(p.offset - q.offset)
        return p.offset + q.offset

    def _geodesic(self, p: StarPoint, q: StarPoint, t: float) -> StarPoint:
        """Constant-speed parametrization of the unique arc from p to q."""
        if t == 0.0:
            return p
        if t == 1.0:
            return q
        if p.leg == q.leg:
            return StarPoint(p.leg, p.offset + t * (q.offset - p.offset))
        s = t * (p.offset + q.offset)  # arc length travelled from p
        if s <= p.offset:
            return StarPoint(p.leg, p.offset - s)
        return StarPoint(q.leg, s - p.offset)


# ---------------------------------------------------------------------------
# Products


@dataclass(frozen=True, slots=True, init=False)
class ProductPoint:
    left: object
    right: object

    def __init__(self, left: object, right: object) -> None:
        _set_product_left(self, left)
        _set_product_right(self, right)


_set_product_left = ProductPoint.left.__set__
_set_product_right = ProductPoint.right.__set__


@dataclass(frozen=True, slots=True)
class ProductSpace:
    """l2 product of two spaces; CAT(0) whenever both factors are."""

    left: object
    right: object

    def point(self, left, right) -> ProductPoint:
        p = ProductPoint(left, right)
        self._check(p)
        return p

    @property
    def coord_names(self) -> tuple[str, ...]:
        """The factors' names, prefixed ``left_`` and ``right_``."""
        return (tuple(f"left_{name}" for name in self.left.coord_names)
                + tuple(f"right_{name}" for name in self.right.coord_names))

    def to_coords(self, p: ProductPoint) -> tuple:
        return self.left.to_coords(p.left) + self.right.to_coords(p.right)

    def from_coords(self, values) -> ProductPoint:
        k = len(self.left.coord_names)
        return self.point(self.left.from_coords(values[:k]),
                          self.right.from_coords(values[k:]))

    def _check(self, p: ProductPoint) -> None:
        if not isinstance(p, ProductPoint):
            raise TypeError(f"expected ProductPoint, got {type(p).__name__}")
        self.left._check(p.left)
        self.right._check(p.right)

    # bound in each class's own body, where per-class wrappers look them up
    distance = _checked_distance
    geodesic = _checked_geodesic

    def _distance(self, p: ProductPoint, q: ProductPoint) -> float:
        return math.hypot(self.left._distance(p.left, q.left),
                          self.right._distance(p.right, q.right))

    def _geodesic(self, p: ProductPoint, q: ProductPoint, t: float) -> ProductPoint:
        # Componentwise constant-speed geodesics at the same parameter give
        # the constant-speed product geodesic.
        return ProductPoint(
            self.left._geodesic(p.left, q.left, t),
            self.right._geodesic(p.right, q.right, t),
        )


# ---------------------------------------------------------------------------
# Twisted chain


@dataclass(frozen=True, slots=True, init=False)
class ChainPoint:
    """Point of the twisted chain: disc coordinates (u, v) and a height."""

    u: float
    v: float
    height: float

    def __init__(self, u: float, v: float, height: float) -> None:
        if not (math.isfinite(u) and math.isfinite(v) and math.isfinite(height)):
            _require_finite("u", u)
            _require_finite("v", v)
            _require_finite("height", height)
        _set_chain_u(self, u)
        _set_chain_v(self, v)
        _set_chain_height(self, height)


_set_chain_u = ChainPoint.u.__set__
_set_chain_v = ChainPoint.v.__set__
_set_chain_height = ChainPoint.height.__set__


_RADIUS_SLACK = 1e-12
# Widest lift window |k| <= _MAX_LIFT of ``TwistedChain.distance``; a chain
# whose radius needs a wider one is rejected.
_MAX_LIFT = 1000


@dataclass(frozen=True, slots=True)
class TwistedChain:
    """Flat solid cylinder glued to itself with a rotation.

    The model is the quotient of ``{u^2 + v^2 <= radius^2} x R`` by the
    isometry ``(d, h) -> (R_twist d, h + circumference)``, where ``R_theta``
    is the planar rotation by theta.  Representatives are stored with
    height in ``[0, circumference)``.  Three distinguished cross-sectional
    discs sit at ``disc_heights``: 0, 1/3 and 2/3 of the circumference.

    The quotient is flat but not simply connected, so it is not globally
    CAT(0); only distances and disc projections are defined on it.  A chain
    whose disc diameter exceeds about ``_MAX_LIFT - 1`` loops is rejected.
    """

    radius: float
    circumference: float
    twist: float
    disc_heights: tuple[float, float, float] = field(init=False)
    # (cos k*twist, sin k*twist, k*circumference) for |k| <= the lift window, nearest first
    _lifts: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _require_finite("radius", self.radius)
        _require_finite("circumference", self.circumference)
        _require_finite("twist", self.twist)
        if self.radius <= 0.0:
            raise ValueError(f"radius must be positive, got {self.radius!r}")
        if self.circumference <= 0.0:
            raise ValueError(f"circumference must be positive, got {self.circumference!r}")
        lam = self.circumference
        heights = (0.0, lam / 3.0, 2.0 * lam / 3.0)
        object.__setattr__(self, "disc_heights", heights)
        # a subnormal circumference rounds the thirds together
        if not all(0.0 <= h < lam for h in heights):
            raise ValueError(f"disc heights must lie in [0, {lam!r})")
        if not (heights[0] < heights[1] < heights[2]):
            raise ValueError("disc heights must be strictly increasing")
        # Lift 0 or +-1 is within B = hypot(2 r', lam/2), r' the widest radius
        # _check accepts, and lift k is over (|k| - 1) * lam away vertically.
        reach = math.hypot(2.0 * math.sqrt(self.radius * self.radius + _RADIUS_SLACK),
                           lam / 2.0) / lam
        if not reach <= _MAX_LIFT - 1:
            raise ValueError(f"radius {self.radius!r} is too wide for circumference {lam!r}: "
                             f"the distance would scan more than {_MAX_LIFT} lifts each way")
        window = 1 + math.ceil(reach)
        object.__setattr__(self, "_lifts", tuple(
            (math.cos(k * self.twist), math.sin(k * self.twist), k * lam)
            for k in sorted(range(-window, window + 1), key=abs)
        ))

    coord_names = ("u", "v", "height")

    def point(self, u: float, v: float, height: float) -> ChainPoint:
        """Quotient representative of raw cylinder coordinates.

        Reducing the height by m full loops applies the inverse holonomy:
        the disc coordinates are rotated by -m*twist, so any representative
        of a point constructs the same stored value (up to rounding).
        """
        lam = self.circumference
        height = float(height)
        m = math.floor(height / lam)
        h = height - m * lam
        if h < 0.0:
            m -= 1
            h += lam
        elif h >= lam:
            m += 1
            h -= lam
        u, v = float(u), float(v)
        if m != 0:
            ang = -m * self.twist
            c, s = math.cos(ang), math.sin(ang)
            u, v = c * u - s * v, s * u + c * v
        p = ChainPoint(u, v, h)
        self._check(p)
        return p

    def to_coords(self, p: ChainPoint) -> tuple[float, float, float]:
        return (p.u, p.v, p.height)

    def from_coords(self, values) -> ChainPoint:
        u, v, height = values
        return self.point(u, v, height)

    def _check(self, p: ChainPoint) -> None:
        if not isinstance(p, ChainPoint):
            raise TypeError(f"expected ChainPoint, got {type(p).__name__}")
        if p.u * p.u + p.v * p.v > self.radius * self.radius + _RADIUS_SLACK:
            raise ValueError(f"point {p!r} lies outside the disc of radius {self.radius!r}")
        if not (0.0 <= p.height < self.circumference):
            raise ValueError(
                f"height {p.height!r} not normalized to [0, {self.circumference!r})"
            )

    # bound in the class's own body, where per-class wrappers look it up
    distance = _checked_distance

    def _distance(self, p: ChainPoint, q: ChainPoint) -> float:
        """Quotient metric: best match over lifts of q.

        The lift ``k`` places q at disc coordinates ``R_{k*twist}(q)`` and
        height ``q.height + k*circumference``.  The scanned lifts, fixed per
        chain from its radius and circumference, contain the nearest one.  They
        are scanned nearest first, skipping a lift whose dz**2 alone reaches the
        best so far: fl(du**2 + dv**2 + dz**2) >= dz**2, so the bits are the full scan's.
        """
        # Canonical argument order makes d(p, q) and d(q, p) bitwise equal.
        if (p.height, p.u, p.v) > (q.height, q.u, q.v):
            p, q = q, p
        dh = p.height - q.height
        best = math.inf
        for c, s, shift in self._lifts:
            dz = dh - shift
            dz2 = dz * dz
            if dz2 >= best:
                continue
            du = p.u - (c * q.u - s * q.v)
            dv = p.v - (s * q.u + c * q.v)
            d2 = du * du + dv * dv + dz2
            if d2 < best:
                best = d2
        return math.sqrt(best)


# ---------------------------------------------------------------------------
# Comparison geometry


_COS_CLAMP_TOL = 1e-9


def comparison_angle(d_ab: float, d_ac: float, d_bc: float) -> float:
    """Angle at `a` of the Euclidean triangle with these side lengths.

    Computed by the law of cosines; the cosine is clamped to [-1, 1] when it
    overshoots by at most 1e-9 (rounding near degenerate triangles), and the
    call fails when the side lengths are not a triangle beyond that slack.
    """
    for name, value in (("d_ab", d_ab), ("d_ac", d_ac), ("d_bc", d_bc)):
        _require_finite(name, value)
        if value < 0.0:
            raise ValueError(f"{name} must be >= 0, got {value!r}")
    if d_ab == 0.0 or d_ac == 0.0:
        raise UndefinedAngleError("comparison angle undefined at a vertex with a zero side")
    cos = (d_ab * d_ab + d_ac * d_ac - d_bc * d_bc) / (2.0 * d_ab * d_ac)
    if cos > 1.0 + _COS_CLAMP_TOL or cos < -1.0 - _COS_CLAMP_TOL:
        raise ValueError(
            f"side lengths ({d_ab!r}, {d_ac!r}, {d_bc!r}) violate the triangle inequality"
        )
    return math.acos(min(1.0, max(-1.0, cos)))


def midpoint(space, p, q):
    """Midpoint of the geodesic [p, q]."""
    return space.geodesic(p, q, 0.5)


def cn_check(space, x, y, z) -> float:
    """Signed margin of the CN inequality for the triple (x, y, z).

    With m the midpoint of [y, z], returns

        (d(x,y)^2 / 2 + d(x,z)^2 / 2 - d(y,z)^2 / 4) - d(x,m)^2.

    A nonnegative value (within tolerance) certifies that distances are at
    least as convex as in a Hilbert space for this triple.  Requires a space
    with geodesics (plane, star tree, product); the twisted chain has none.
    """
    if not hasattr(space, "geodesic"):
        raise TypeError(f"{type(space).__name__} does not support midpoints")
    m = midpoint(space, y, z)
    dxy = space.distance(x, y)
    dxz = space.distance(x, z)
    dyz = space.distance(y, z)
    dxm = space.distance(x, m)
    return 0.5 * dxy * dxy + 0.5 * dxz * dxz - 0.25 * dyz * dyz - dxm * dxm
