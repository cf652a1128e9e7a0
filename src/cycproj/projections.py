"""Closest-point projections onto the convex sets used by the scenarios.

Each projector returns a :class:`ProjectionResult` whose ``solver`` tag
records which code path produced the point:

* ``closed_form`` -- direct formula (axis, plane segments, cross discs,
  and membership hits).
* ``exact_piecewise`` -- the certified projector for segments in products
  of star trees whose coordinates stay on a single leg per factor.
* ``golden_section`` -- the generic 1-D search along a geodesic segment.
* ``newton`` -- the bracketed Newton solve on the epigraph boundary, for
  the increment of the foot over the projected point's x.

Projections onto closed convex subsets of a CAT(0) space are unique and
nonexpanding; a tie detected anywhere is treated as a modeling error, never
broken silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .spaces import (
    ChainPoint,
    Plane,
    PlanePoint,
    ProductPoint,
    ProductSpace,
    StarPoint,
    StarTree,
    TwistedChain,
)

__all__ = [
    "Segment",
    "AxisLine",
    "Epigraph",
    "CrossDisc",
    "ConvexSet",
    "ProjectionResult",
    "NumericalFailureError",
    "AmbiguousProjectionError",
    "UnsupportedShapeError",
    "project",
    "project_segment_generic",
    "project_segment_tree_exact",
    "project_axis",
    "project_epigraph",
    "project_cross_disc",
    "set_distance",
]


class NumericalFailureError(RuntimeError):
    """A numeric solve failed to bracket or converge."""


class AmbiguousProjectionError(RuntimeError):
    """Two candidate feet are equally close; the configuration is degenerate."""


class UnsupportedShapeError(ValueError):
    """The exact projector does not cover this segment shape."""


# ---------------------------------------------------------------------------
# Set descriptors


@dataclass(frozen=True, slots=True)
class Segment:
    """Geodesic segment between two points of the ambient space."""

    start: object
    end: object


@dataclass(frozen=True, slots=True)
class AxisLine:
    """The x-axis of the plane."""


@dataclass(frozen=True, slots=True)
class Epigraph:
    """The closed convex region {(x, y) : x > 0, y >= 1 + x**(-epsilon)}."""

    epsilon: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")

    def boundary_height(self, x: float) -> float:
        return 1.0 + x ** (-self.epsilon)

    def contains(self, p: PlanePoint) -> bool:
        return p.x > 0.0 and p.y >= self.boundary_height(p.x)


@dataclass(frozen=True, slots=True)
class CrossDisc:
    """Cross-sectional disc of a twisted chain, by index into disc_heights."""

    disc_index: int

    def __post_init__(self) -> None:
        if not (0 <= self.disc_index <= 2):
            raise ValueError(f"disc_index must be 0, 1 or 2, got {self.disc_index!r}")


ConvexSet = Segment | AxisLine | Epigraph | CrossDisc


@dataclass(frozen=True, slots=True)
class ProjectionResult:
    point: object
    distance: float
    solver: str


# ---------------------------------------------------------------------------
# Generic geodesic-segment projection

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_POLISH_STEP = 1e-5


def project_segment_generic(space, seg: Segment, x, tol: float = 1e-12) -> ProjectionResult:
    """Project x onto a geodesic segment by golden-section search.

    The squared distance t -> d(x, gamma(t))^2 is convex along geodesics of a
    CAT(0) space, so golden section is valid.  The iteration count is fixed
    from ``tol`` for determinism.  A final three-point parabolic refinement
    recovers the parameter below the comparison-noise floor of the raw
    search (function values near an interior minimum differ by less than one
    ulp once the bracket is ~1e-8 wide); it is accepted only when it stays
    near the bracket and does not increase the objective.
    """
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol!r}")
    start, end = seg.start, seg.end
    space._check(start)
    space._check(end)
    space._check(x)
    distance, geodesic = space._distance, space._geodesic

    def f(t: float) -> float:
        d = distance(x, geodesic(start, end, t))
        return d * d

    a, b = 0.0, 1.0
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(math.ceil(math.log(1.0 / tol) / math.log(1.0 / _INVPHI))):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    t_best = 0.5 * (a + b)

    h = _POLISH_STEP
    base = min(max(t_best, h), 1.0 - h)
    f0, fm, fp = f(base), f(base - h), f(base + h)
    den = fp - 2.0 * f0 + fm
    if den > 0.0:
        vertex = base - h * (fp - fm) / (2.0 * den)
        if 0.0 <= vertex <= 1.0 and abs(vertex - base) <= 2.0 * h and f(vertex) <= f0:
            t_best = vertex

    point = geodesic(start, end, t_best)
    return ProjectionResult(point, distance(x, point), "golden_section")


# ---------------------------------------------------------------------------
# Plane segments (closed form)


def _project_segment_plane(seg: Segment, x: PlanePoint) -> ProjectionResult:
    ax, ay = seg.start.x, seg.start.y
    bx, by = seg.end.x, seg.end.y
    # Anchor at the midpoint: feet near the middle of a long symmetric
    # segment then keep full relative precision (no cancellation against
    # the far endpoints).
    mx, my = 0.5 * (ax + bx), 0.5 * (ay + by)
    dx, dy = bx - ax, by - ay
    den = dx * dx + dy * dy
    if den == 0.0:
        foot = PlanePoint(ax, ay)
        return ProjectionResult(foot, math.hypot(x.x - ax, x.y - ay), "closed_form")
    t = ((x.x - mx) * dx + (x.y - my) * dy) / den
    t = min(0.5, max(-0.5, t))
    foot = PlanePoint(mx + t * dx, my + t * dy)
    return ProjectionResult(foot, math.hypot(x.x - foot.x, x.y - foot.y), "closed_form")


# ---------------------------------------------------------------------------
# Segments in products of star trees (exact)


def _leg_path(tree: StarTree, a: StarPoint, b: StarPoint) -> tuple[int, float, float]:
    """Leg carrying the segment [a, b] plus its affine offset coefficients.

    Returns (leg, o0, do) with offset(t) = o0 + do * t.  A center endpoint
    lies on every leg, so it never forces a leg of its own; two off-center
    endpoints on different legs make the offset non-affine (the path crosses
    the center) and are rejected.
    """
    if a.is_center and b.is_center:
        return 0, 0.0, 0.0
    if a.is_center:
        return b.leg, 0.0, b.offset
    if b.is_center:
        return a.leg, a.offset, -a.offset
    if a.leg != b.leg:
        raise UnsupportedShapeError(
            "segment coordinate crosses the tree center "
            f"(legs {a.leg} and {b.leg}); use the generic projector"
        )
    return a.leg, a.offset, b.offset - a.offset


_SEGMENT_TABLE_CAP = 256
# (id(space), id(seg)) -> (space, seg, left leg path, right leg path).  An
# entry holds its space and segment, so neither id can be reused while it
# stands; it is still used only when both match by identity.
_segment_paths: dict[tuple[int, int], tuple] = {}


def _tree_segment_paths(space: ProductSpace, seg: Segment) -> tuple[tuple, tuple]:
    """Both factors' leg paths of ``seg``, validated once per (space, seg) pair.

    The projector is called with the same few segments every cycle, so the
    space's shape, the segment's endpoints and their leg paths are worked out
    on the first call and looked up by identity afterwards.  The table is
    cleared when it reaches ``_SEGMENT_TABLE_CAP`` entries.  An entry depends
    only on its immutable space and segment, so callers racing on the table
    at worst work one out twice.
    """
    entry = _segment_paths.get((id(space), id(seg)))
    if entry is not None and entry[0] is space and entry[1] is seg:
        return entry[2], entry[3]
    if not (isinstance(space, ProductSpace)
            and isinstance(space.left, StarTree)
            and isinstance(space.right, StarTree)):
        raise UnsupportedShapeError("exact segment projector requires a product of star trees")
    space._check(seg.start)
    space._check(seg.end)
    left = _leg_path(space.left, seg.start.left, seg.end.left)
    right = _leg_path(space.right, seg.start.right, seg.end.right)
    if len(_segment_paths) >= _SEGMENT_TABLE_CAP:
        _segment_paths.clear()
    _segment_paths[(id(space), id(seg))] = (space, seg, left, right)
    return left, right


def project_segment_tree_exact(space: ProductSpace, seg: Segment, x: ProductPoint) -> ProjectionResult:
    """Certified projector for leg-confined segments in a product of trees.

    Per factor the distance from x to the moving point is |l(t) - c| on a
    shared leg and l(t) + c across legs.  Squaring removes the kinks, so the
    squared distance is a single quadratic in t; its minimizer clamped to
    [0, 1] is the exact foot.
    """
    (leg_l, o0_l, do_l), (leg_r, o0_r, do_r) = _tree_segment_paths(space, seg)
    # x is validated by the one space.distance call that measures the foot;
    # a point of the wrong type fails here first and gets _check's error.
    # Same leg: (l(t) - offset)^2; through the center: (l(t) + offset)^2.  A
    # center x has offset 0, where both forms agree.
    try:
        xl, xr = x.left, x.right
        c_l = o0_l - xl.offset if xl.leg == leg_l else o0_l + xl.offset
        c_r = o0_r - xr.offset if xr.leg == leg_r else o0_r + xr.offset
    except AttributeError:
        space._check(x)
        raise
    qa = do_l * do_l + do_r * do_r  # t^2 coefficient
    qb = 2.0 * do_l * c_l + 2.0 * do_r * c_r  # t coefficient

    if qa == 0.0:
        t = 0.0  # degenerate segment
    else:
        t = min(1.0, max(0.0, -qb / (2.0 * qa)))

    foot = ProductPoint(
        StarPoint(leg_l, o0_l + do_l * t),
        StarPoint(leg_r, o0_r + do_r * t),
    )
    return ProjectionResult(foot, space.distance(x, foot), "exact_piecewise")


# ---------------------------------------------------------------------------
# Axis


def project_axis(x: PlanePoint) -> ProjectionResult:
    if not isinstance(x, PlanePoint):
        raise TypeError(f"expected PlanePoint, got {type(x).__name__}")
    return ProjectionResult(PlanePoint(x.x, 0.0), abs(x.y), "closed_form")


# ---------------------------------------------------------------------------
# Epigraph


def _epigraph_stationarity(epsilon: float, x0: float, y0: float, base: float,
                           d: float) -> tuple[float, float]:
    """g and dg/dd at the boundary point u = base + d.

    g(u) = (u - x0) - h(u), with h(u) = epsilon * u**(-epsilon-1) *
    (1 + u**(-epsilon) - y0), is half the derivative of the squared distance
    from (x0, y0) to the boundary point (u, 1 + u**(-epsilon)).  With
    base = x0 the term u - x0 is the increment d itself, not a difference
    of two nearby numbers.
    """
    u = base + d
    e = u ** (-epsilon)
    k = epsilon * e / u
    tail = 1.0 + e - y0
    g = (d - (x0 - base)) - k * tail
    gp = 1.0 + (epsilon + 1.0) * (k / u) * tail + k * k
    return g, gp


_MAX_DOUBLINGS = 200
_MAX_NEWTON = 200


def _geometric_bracket(epsilon: float, x0: float, y0: float) -> tuple[float, float]:
    """[lo, hi] with g(lo) <= 0 <= g(hi), by doubling or halving from u = 1."""
    g1, _ = _epigraph_stationarity(epsilon, x0, y0, 0.0, 1.0)
    lo = hi = 1.0
    if g1 < 0.0:
        for _ in range(_MAX_DOUBLINGS):
            lo = hi
            hi *= 2.0
            g, _ = _epigraph_stationarity(epsilon, x0, y0, 0.0, hi)
            if g >= 0.0:
                break
        else:
            raise NumericalFailureError(
                f"failed to bracket the epigraph foot from ({x0!r}, {y0!r}), "
                f"epsilon={epsilon!r}: no sign change within {_MAX_DOUBLINGS} doublings"
            )
    elif g1 > 0.0:
        for _ in range(_MAX_DOUBLINGS):
            hi = lo
            lo *= 0.5
            g, _ = _epigraph_stationarity(epsilon, x0, y0, 0.0, lo)
            if g <= 0.0:
                break
        else:
            raise NumericalFailureError(
                f"failed to bracket the epigraph foot from ({x0!r}, {y0!r}), "
                f"epsilon={epsilon!r}: no sign change within {_MAX_DOUBLINGS} halvings"
            )
    return lo, hi


def _check_epigraph_args(epsilon: float, tol: float) -> None:
    if not (epsilon > 0.0):
        raise ValueError(f"epsilon must be positive, got {epsilon!r}")
    if not (tol > 0.0):
        raise ValueError(f"tol must be positive, got {tol!r}")


def _epigraph_foot(epsilon: float, x0: float, y0: float, tol: float) -> tuple[float, float, str]:
    """Float core of :func:`project_epigraph` for a validated point (x0, y0).

    Returns the foot's coordinates ``(u, height)`` and the solver tag: a
    point already in the set is its own foot (``closed_form``), any other is
    solved by Newton (``newton``).
    """
    if x0 > 0.0 and y0 >= 1.0 + x0 ** (-epsilon):
        return x0, y0, "closed_form"

    h0 = math.inf
    if x0 > 0.0:
        g, gp = _epigraph_stationarity(epsilon, x0, y0, x0, 0.0)
        # 0.0 - g rather than -g: an h(x0) that underflows reads 0.0, not -0.0
        h0 = 0.0 - g
    if h0 <= x0:
        if x0 + h0 == x0:
            raise NumericalFailureError(
                f"epigraph foot from ({x0!r}, {y0!r}), epsilon={epsilon!r}, lies within "
                f"one ulp of x0: the bracket width {h0!r} does not move x0"
            )
        base, lo, hi, d = x0, 0.0, h0, 0.0
    else:
        base = 0.0
        lo, hi = _geometric_bracket(epsilon, x0, y0)
        d = 0.5 * (lo + hi)
        g, gp = _epigraph_stationarity(epsilon, x0, y0, base, d)

    scale = max(1.0, abs(x0), abs(y0))
    for _ in range(_MAX_NEWTON):
        if abs(g) <= tol * scale:
            break
        if g > 0.0:
            hi = d
        else:
            lo = d
        d_next = d - g / gp
        if not (lo < d_next < hi):
            d_next = 0.5 * (lo + hi)
        d = d_next
        g, gp = _epigraph_stationarity(epsilon, x0, y0, base, d)
    else:
        raise NumericalFailureError(
            f"epigraph Newton failed to converge from ({x0!r}, {y0!r}), epsilon={epsilon!r}"
        )

    # One unguarded Newton step from the converged residual pushes the foot
    # to machine precision; the two-set step-size chains are checked with
    # 1e-12 slack downstream.
    d -= g / gp

    u = base + d
    return u, 1.0 + u ** (-epsilon), "newton"


def project_epigraph(epsilon: float, x: PlanePoint, tol: float = 1e-13) -> ProjectionResult:
    """Project onto {(x, y) : x > 0, y >= 1 + x**(-epsilon)}.

    Points already in the set are returned unchanged.  Otherwise the foot is
    the unique root of the stationarity function g(u) = (u - x0) - h(u)
    along the boundary (see :func:`_epigraph_stationarity`): outside points
    sit on the convex side of the boundary curve.  The solve itself is the
    float core :func:`_epigraph_foot`, which the two-set kernel in
    :mod:`cycproj.engine` calls directly.

    For x0 > 0 the root is solved for the increment d = u - x0 on the
    closed-form bracket [0, h(x0)]: g(x0) = -h(x0) < 0, and h decreases
    wherever it is positive, so g(x0 + h(x0)) >= 0.  Along a two-set trace
    the foot moves by about one step, so Newton from d = 0 converges in one
    step, and the foot u = x0 + d carries a single rounding.  If
    x0 + h(x0) == x0 the foot cannot move x0 by one ulp and a trace would
    record a zero step where the true one is positive, so
    :class:`NumericalFailureError` is raised.

    For x0 <= 0, or when that bracket is wider than x0 itself
    (h(x0) > x0, including an overflowing h), Newton from d = 0 would crawl
    across many decades; the root is instead bracketed by geometric
    expansion from u = 1 and solved for u itself.  Both brackets feed one
    safeguarded Newton loop that bisects whenever a step leaves the bracket.
    """
    _check_epigraph_args(epsilon, tol)
    if not isinstance(x, PlanePoint):
        raise TypeError(f"expected PlanePoint, got {type(x).__name__}")
    u, height, solver = _epigraph_foot(epsilon, x.x, x.y, tol)
    if solver == "closed_form":
        return ProjectionResult(x, 0.0, solver)
    foot = PlanePoint(u, height)
    return ProjectionResult(foot, math.hypot(u - x.x, height - x.y), solver)


# ---------------------------------------------------------------------------
# Cross discs

_TIE_TOL = 1e-12


def project_cross_disc(chain: TwistedChain, disc_index: int, x: ChainPoint) -> ProjectionResult:
    """Exact projection onto a cross-sectional disc of the chain.

    The nearest lift of the disc is the plane at height h_i + k*Lambda with
    k minimizing |x.height - h_i - k*Lambda|; transporting the disc
    coordinates back through k loops rotates them by -k*twist.  Horizontal
    transport is a rigid motion of discs, so this vertical drop is the exact
    closest point.
    """
    if not (0 <= disc_index < len(chain.disc_heights)):
        raise ValueError(f"disc_index {disc_index!r} out of range")
    chain._check(x)
    lam = chain.circumference
    delta = x.height - chain.disc_heights[disc_index]
    k = math.floor(delta / lam + 0.5)
    m = delta - k * lam  # residual in [-lam/2, lam/2]
    if abs(lam - 2.0 * abs(m)) < _TIE_TOL and m != 0.0:
        raise AmbiguousProjectionError(
            f"two lifts of disc {disc_index} are equally close to {x!r}"
        )
    ang = -k * chain.twist
    c, s = math.cos(ang), math.sin(ang)
    foot = ChainPoint(c * x.u - s * x.v, s * x.u + c * x.v, chain.disc_heights[disc_index])
    return ProjectionResult(foot, abs(m), "closed_form")


# ---------------------------------------------------------------------------
# Dispatch


def project(space, cset: ConvexSet, x, tol: float = 1e-12) -> ProjectionResult:
    """Project x onto cset within space, by the solver the space and the set select.

    A plane segment takes the closed form, a tree-product segment the exact
    projector (golden section when a coordinate crosses a tree center), any
    other segment golden section, and every other set its exact projector.
    To force a segment solver, call :func:`project_segment_generic` or
    :func:`project_segment_tree_exact` directly.
    """
    if isinstance(cset, Segment):
        if isinstance(space, Plane):
            return _project_segment_plane(cset, x)
        if isinstance(space, ProductSpace):
            try:
                return project_segment_tree_exact(space, cset, x)
            except UnsupportedShapeError:
                pass
        return project_segment_generic(space, cset, x, tol)
    if isinstance(cset, AxisLine):
        if not isinstance(space, Plane):
            raise TypeError("AxisLine lives in the plane")
        return project_axis(x)
    if isinstance(cset, Epigraph):
        if not isinstance(space, Plane):
            raise TypeError("Epigraph lives in the plane")
        return project_epigraph(cset.epsilon, x, tol)
    if isinstance(cset, CrossDisc):
        if not isinstance(space, TwistedChain):
            raise TypeError("CrossDisc lives in a twisted chain")
        return project_cross_disc(space, cset.disc_index, x)
    raise TypeError(f"unknown convex set {type(cset).__name__}")


# ---------------------------------------------------------------------------
# Distance between sets


def set_distance(space, set_a: ConvexSet, set_b: ConvexSet) -> float:
    """Exact distance between two leg-confined segments in a product of star trees.

    The squared distance is a single quadratic in the two parameters
    (squares absorb the |.| kinks factorwise), minimized over the unit
    square by checking the interior stationary point and the four edges.
    Every other pair raises :class:`UnsupportedShapeError`, two equal sets
    included: a set that is not a segment, a space that is not a product of
    star trees, or a segment whose coordinate crosses a tree center.
    """
    if not (isinstance(set_a, Segment) and isinstance(set_b, Segment)):
        raise UnsupportedShapeError(
            f"set_distance covers only pairs of segments, got {type(set_a).__name__} "
            f"and {type(set_b).__name__}"
        )
    coeffs = []
    for (leg_a, a0, da), (leg_b, b0, db) in zip(_tree_segment_paths(space, set_a),
                                                _tree_segment_paths(space, set_b)):
        same = leg_a == leg_b or (da == 0.0 and a0 == 0.0) or (db == 0.0 and b0 == 0.0)
        sign = -1.0 if same else 1.0
        # factor term: (a0 + da*s + sign*(b0 + db*t))^2
        coeffs.append((a0 + sign * b0, da, sign * db))

    def value(s: float, t: float) -> float:
        total = 0.0
        for c0, cs, ct in coeffs:
            v = c0 + cs * s + ct * t
            total += v * v
        return total

    # Quadratic form: f(s,t) = A s^2 + B t^2 + 2C st + 2D s + 2E t + F
    A = sum(cs * cs for _, cs, _ in coeffs)
    B = sum(ct * ct for _, _, ct in coeffs)
    C = sum(cs * ct for _, cs, ct in coeffs)
    D = sum(c0 * cs for c0, cs, _ in coeffs)
    E = sum(c0 * ct for c0, _, ct in coeffs)

    candidates: list[tuple[float, float]] = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    det = A * B - C * C
    if det > 0.0:
        s = (-D * B + E * C) / det
        t = (-E * A + D * C) / det
        if 0.0 <= s <= 1.0 and 0.0 <= t <= 1.0:
            candidates.append((s, t))

    def edge_minimum(fix_s: float | None, fix_t: float | None) -> tuple[float, float]:
        if fix_s is not None:
            # minimize over t: B t^2 + 2(C*fix_s + E) t + ...
            t = -(C * fix_s + E) / B if B > 0.0 else 0.0
            return fix_s, min(1.0, max(0.0, t))
        s = -(C * fix_t + D) / A if A > 0.0 else 0.0
        return min(1.0, max(0.0, s)), fix_t

    for fs in (0.0, 1.0):
        candidates.append(edge_minimum(fs, None))
    for ft in (0.0, 1.0):
        candidates.append(edge_minimum(None, ft))

    best = min(value(s, t) for s, t in candidates)
    return math.sqrt(max(0.0, best))
