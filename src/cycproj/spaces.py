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

Validation happens at the public surface: ``point``, ``distance`` and
``geodesic`` check every point they are given (``_check``) and raise
``TypeError`` or ``ValueError`` for a point that is not on the space.
``_distance`` and ``_geodesic`` are the unchecked internals behind them, for
callers that have already validated their points; a product space combines
its factors' internals, so each factor point is checked once per call.
"""

from __future__ import annotations

import math
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


def _check_unit_interval(t: float) -> None:
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"geodesic parameter must lie in [0, 1], got {t!r}")


# ---------------------------------------------------------------------------
# Euclidean plane


@dataclass(frozen=True, slots=True)
class PlanePoint:
    x: float
    y: float

    def __post_init__(self) -> None:
        _require_finite("x", self.x)
        _require_finite("y", self.y)


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

    def distance(self, p: PlanePoint, q: PlanePoint) -> float:
        self._check(p)
        self._check(q)
        return math.hypot(p.x - q.x, p.y - q.y)

    def _distance(self, p: PlanePoint, q: PlanePoint) -> float:
        return math.hypot(p.x - q.x, p.y - q.y)

    def geodesic(self, p: PlanePoint, q: PlanePoint, t: float) -> PlanePoint:
        self._check(p)
        self._check(q)
        _check_unit_interval(t)
        return self._geodesic(p, q, t)

    def _geodesic(self, p: PlanePoint, q: PlanePoint, t: float) -> PlanePoint:
        if t == 0.0:
            return p
        if t == 1.0:
            return q
        return PlanePoint(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))


# ---------------------------------------------------------------------------
# Star trees


@dataclass(frozen=True, slots=True)
class StarPoint:
    """A point on a star tree: leg index plus distance from the center.

    The center itself is canonicalized to ``leg == 0`` so that structural
    equality of dataclasses coincides with equality of points; no
    tolerance-based comparison is ever needed at the branch point.
    """

    leg: int
    offset: float

    def __post_init__(self) -> None:
        _require_finite("offset", self.offset)
        if self.offset < 0.0:
            raise ValueError(f"offset must be >= 0, got {self.offset!r}")
        if self.offset == 0.0:
            object.__setattr__(self, "leg", 0)
            object.__setattr__(self, "offset", 0.0)  # normalizes -0.0

    @property
    def is_center(self) -> bool:
        return self.offset == 0.0


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
        if not float(leg).is_integer():
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
        if not (0 <= p.leg < len(lengths)):
            raise ValueError(f"leg index {p.leg} out of range for {len(lengths)}-leg tree")
        if p.offset > lengths[p.leg]:
            raise ValueError(
                f"offset {p.offset!r} exceeds leg {p.leg} length {lengths[p.leg]!r}"
            )

    def distance(self, p: StarPoint, q: StarPoint) -> float:
        """Length metric: |offsets| apart on one leg, through the center otherwise."""
        self._check(p)
        self._check(q)
        return self._distance(p, q)

    def _distance(self, p: StarPoint, q: StarPoint) -> float:
        if p.leg == q.leg:
            return abs(p.offset - q.offset)
        return p.offset + q.offset

    def geodesic(self, p: StarPoint, q: StarPoint, t: float) -> StarPoint:
        """Constant-speed parametrization of the unique arc from p to q."""
        self._check(p)
        self._check(q)
        _check_unit_interval(t)
        return self._geodesic(p, q, t)

    def _geodesic(self, p: StarPoint, q: StarPoint, t: float) -> StarPoint:
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


@dataclass(frozen=True, slots=True)
class ProductPoint:
    left: object
    right: object


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

    def distance(self, p: ProductPoint, q: ProductPoint) -> float:
        self._check(p)
        self._check(q)
        return self._distance(p, q)

    def _distance(self, p: ProductPoint, q: ProductPoint) -> float:
        return math.hypot(self.left._distance(p.left, q.left),
                          self.right._distance(p.right, q.right))

    def geodesic(self, p: ProductPoint, q: ProductPoint, t: float) -> ProductPoint:
        self._check(p)
        self._check(q)
        _check_unit_interval(t)
        return self._geodesic(p, q, t)

    def _geodesic(self, p: ProductPoint, q: ProductPoint, t: float) -> ProductPoint:
        # Componentwise constant-speed geodesics at the same parameter give
        # the constant-speed product geodesic.
        return ProductPoint(
            self.left._geodesic(p.left, q.left, t),
            self.right._geodesic(p.right, q.right, t),
        )


# ---------------------------------------------------------------------------
# Twisted chain


@dataclass(frozen=True, slots=True)
class ChainPoint:
    """Point of the twisted chain: disc coordinates (u, v) and a height."""

    u: float
    v: float
    height: float

    def __post_init__(self) -> None:
        _require_finite("u", self.u)
        _require_finite("v", self.v)
        _require_finite("height", self.height)

    @property
    def disc(self) -> tuple[float, float]:
        return (self.u, self.v)


_RADIUS_SLACK = 1e-12
# Heights are normalized to [0, circumference), so |dh| < circumference and
# the lift window of ``TwistedChain.distance`` never exceeds 4.
_MAX_LIFT = 4


@dataclass(frozen=True, slots=True)
class TwistedChain:
    """Flat solid cylinder glued to itself with a rotation.

    The model is the quotient of ``{u^2 + v^2 <= radius^2} x R`` by the
    isometry ``(d, h) -> (R_twist d, h + circumference)``, where ``R_theta``
    is the planar rotation by theta.  Representatives are stored with
    height in ``[0, circumference)``.  Three distinguished cross-sectional
    discs sit at ``disc_heights``.

    The quotient is flat but not simply connected, so it is not globally
    CAT(0); only distances and disc projections are defined on it.
    """

    radius: float
    circumference: float
    twist: float
    disc_heights: tuple[float, float, float] = None  # type: ignore[assignment]
    # (cos k*twist, sin k*twist, k*circumference) for k = -_MAX_LIFT .. _MAX_LIFT
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
        if self.disc_heights is None:
            heights = (0.0, lam / 3.0, 2.0 * lam / 3.0)
        else:
            heights = tuple(float(h) for h in self.disc_heights)
        object.__setattr__(self, "disc_heights", heights)
        if len(heights) != 3:
            raise ValueError("exactly three disc heights are required")
        if not all(0.0 <= h < lam for h in heights):
            raise ValueError(f"disc heights must lie in [0, {lam!r})")
        if not (heights[0] < heights[1] < heights[2]):
            raise ValueError("disc heights must be strictly increasing")
        gaps = (
            heights[1] - heights[0],
            heights[2] - heights[1],
            lam - heights[2] + heights[0],
        )
        if max(gaps) >= lam / 2.0 + min(gaps):
            raise ValueError(
                "disc-height gaps too uneven: nearest-lift selection between "
                f"consecutive discs would be ambiguous (gaps {gaps!r})"
            )
        object.__setattr__(self, "_lifts", tuple(
            (math.cos(k * self.twist), math.sin(k * self.twist), k * lam)
            for k in range(-_MAX_LIFT, _MAX_LIFT + 1)
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

    def distance(self, p: ChainPoint, q: ChainPoint) -> float:
        """Quotient metric: best match over lifts of q.

        The lift ``k`` places q at disc coordinates ``R_{k*twist}(q)`` and
        height ``q.height + k*circumference``.  Any lift beyond the scanned
        window adds at least one full circumference of vertical distance on
        top of an already-enumerated candidate, so the window provably
        contains the minimizer.
        """
        self._check(p)
        self._check(q)
        return self._distance(p, q)

    def _distance(self, p: ChainPoint, q: ChainPoint) -> float:
        # Canonical argument order makes d(p, q) and d(q, p) bitwise equal.
        if (p.height, p.u, p.v) > (q.height, q.u, q.v):
            p, q = q, p
        lam = self.circumference
        dh = p.height - q.height
        window = 2 + math.ceil((abs(dh) + lam) / lam)
        best = math.inf
        for c, s, shift in self._lifts[_MAX_LIFT - window:_MAX_LIFT + window + 1]:
            du = p.u - (c * q.u - s * q.v)
            dv = p.v - (s * q.u + c * q.v)
            dz = dh - shift
            d2 = du * du + dv * dv + dz * dz
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
