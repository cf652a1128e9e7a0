"""Closest-point projections onto the convex sets used by the scenarios.

Each projector returns a :class:`ProjectionResult` whose ``solver`` tag
records which code path produced the point:

* ``closed_form`` -- direct formula (axis, plane segments, cross discs,
  and membership hits).
* ``exact_piecewise`` -- the exact projector for every segment in a
  product of star trees, center-crossing ones included.
* ``golden_section`` -- the generic 1-D search along a geodesic segment.
* ``newton`` -- the bracketed Newton solve on the epigraph boundary, for
  the increment of the foot over the projected point's x: ``_epigraph_foot``
  for :func:`project`, and its axis-only copy ``_epigraph_feet``, with the
  same bits, for the two-set kernel in :mod:`cycproj.engine`.

Projections onto closed convex subsets of a CAT(0) space are unique and
nonexpanding; a tie detected anywhere is treated as a modeling error, never
broken silently.  A segment's ends are checked once per space, by
:func:`_checked_segment`; the projected point is checked on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .spaces import (
    ChainPoint,
    Plane,
    PlanePoint,
    ProductPoint,
    ProductSpace,
    StarPoint,
    StarTree,
    TwistedChain,
    _is_integer,
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
    "set_distance",
]


class NumericalFailureError(RuntimeError):
    """A numeric solve failed to bracket or converge."""


class AmbiguousProjectionError(RuntimeError):
    """Two candidate feet are equally close; the configuration is degenerate."""


class UnsupportedShapeError(ValueError):
    """No exact solver covers the input: a space that is not a product of star
    trees, or a set pair that is not two segments."""


# ---------------------------------------------------------------------------
# Set descriptors


@dataclass(frozen=True, slots=True)
class Segment:
    """Geodesic segment between two points of the ambient space."""

    start: object
    end: object
    # (space, tree) for the last space whose _check both ends passed: see _checked_segment
    _checked: tuple | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class AxisLine:
    """The x-axis of the plane."""


@dataclass(frozen=True, slots=True)
class Epigraph:
    """The closed convex region {(x, y) : x > 0, y >= 1 + x**(-epsilon)}."""

    epsilon: float

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon < math.inf):
            raise ValueError(f"epsilon must be positive, got {self.epsilon!r}")

    def boundary_height(self, x: float) -> float:
        return _boundary_height(self.epsilon, x)

    def contains(self, p: PlanePoint) -> bool:
        return p.x > 0.0 and p.y >= self.boundary_height(p.x)


def _boundary_height(epsilon: float, x: float) -> float:
    """1 + x**(-epsilon), or +inf where the power overflows."""
    try:
        return 1.0 + x ** (-epsilon)
    except OverflowError:
        return math.inf


@dataclass(frozen=True, slots=True)
class CrossDisc:
    """Cross-sectional disc of a twisted chain, by index into disc_heights."""

    disc_index: int

    def __post_init__(self) -> None:
        if not (_is_integer(self.disc_index) and 0 <= self.disc_index <= 2):
            raise ValueError(f"disc_index must be 0, 1 or 2, got {self.disc_index!r}")


ConvexSet = Segment | AxisLine | Epigraph | CrossDisc


@dataclass(frozen=True, slots=True, init=False)
class ProjectionResult:
    """A projector's foot, its distance from the projected point, and the solver tag.

    Built by every projection, so ``__init__`` writes the three slots directly.
    """

    point: object
    distance: float
    solver: str

    def __init__(self, point: object, distance: float, solver: str) -> None:
        _set_result_point(self, point)
        _set_result_distance(self, distance)
        _set_result_solver(self, solver)


_set_result_point = ProjectionResult.point.__set__
_set_result_distance = ProjectionResult.distance.__set__
_set_result_solver = ProjectionResult.solver.__set__


# ---------------------------------------------------------------------------
# Generic geodesic-segment projection

_TOL = 1e-12
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = math.ceil(math.log(1.0 / _TOL) / math.log(1.0 / _INVPHI))
_POLISH_STEP = 1e-5


def project_segment_generic(space, seg: Segment, x) -> ProjectionResult:
    """Project x onto a geodesic segment by golden-section search.

    The squared distance t -> d(x, gamma(t))^2 is convex along geodesics of a
    CAT(0) space, so golden section is valid.  It takes a fixed 58 steps,
    which shrink the bracket below ``_TOL``.  A final three-point parabolic
    refinement recovers the parameter below the comparison-noise floor of the
    raw search (function values near an interior minimum differ by less than
    one ulp once the bracket is ~1e-8 wide); it is accepted only when it
    stays near the bracket and does not increase the objective.  The
    segment's ends are checked once per space, x on every call.
    """
    _checked_segment(space, seg)
    space._check(x)
    start, end = seg.start, seg.end
    distance, geodesic = space._distance, space._geodesic

    def f(t: float) -> float:
        d = distance(x, geodesic(start, end, t))
        return d * d

    a, b = 0.0, 1.0
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(_GOLDEN_STEPS):
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
        if 0.0 <= vertex <= 1.0 and abs(vertex - base) <= 2.0 * h:
            f_vertex = f(vertex)
            # a base clamped off t_best may sit across a kink from it
            if f_vertex <= f0 and (base == t_best or f_vertex <= f(t_best)):
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


def _leg_path(a: StarPoint, b: StarPoint) -> tuple[int, int, float, float]:
    """The path from a to b in one tree as (negative leg, positive leg, s0, ds).

    The point at t has signed offset s = s0 + ds * t: it lies on the positive
    leg at offset s where s >= 0, and on the negative leg at offset -s where
    s < 0.  A path that stays on one leg (a center endpoint lies on every leg)
    names that leg twice and never goes negative.
    """
    if a.leg != b.leg and not (a.is_center or b.is_center):  # through the center
        return a.leg, b.leg, -a.offset, a.offset + b.offset
    leg = b.leg if a.is_center else a.leg  # the center sits at offset 0.0 on leg 0
    return leg, leg, a.offset, b.offset - a.offset


def _segment_pieces(paths: tuple[tuple, tuple]) -> tuple[tuple, ...]:
    """[0, 1] cut where a path crosses its center, as (lo, hi, (leg, sign) per factor)
    per piece: on the piece, the factor's path point at t is ``sign * s`` out along
    ``leg``."""
    cuts = sorted({0.0, 1.0, *(-s0 / ds for neg, pos, s0, ds in paths if neg != pos)})
    return tuple((lo, hi, *[(pos, 1.0) if neg == pos or 0.5 * (lo + hi) > -s0 / ds else (neg, -1.0)
                            for neg, pos, s0, ds in paths])
                 for lo, hi in zip(cuts, cuts[1:]))


def _is_tree_product(space) -> bool:
    return (isinstance(space, ProductSpace)
            and isinstance(space.left, StarTree) and isinstance(space.right, StarTree))


def _require_tree_product(space) -> None:
    if not _is_tree_product(space):
        raise UnsupportedShapeError("exact segment projector requires a product of star trees")


def _checked_segment(space, seg: Segment) -> tuple | None:
    """Check ``start``, then ``end``, once per space: the one place a segment is checked.

    Returns both factors' leg paths, their pieces, the t^2 coefficient sum(ds^2)
    and each factor's positive-leg length in a product of star trees, else None,
    and keeps (space, that) on the segment; a failed check keeps nothing.
    """
    checked = seg._checked
    if checked is not None and checked[0] is space:
        return checked[1]
    space._check(seg.start)
    space._check(seg.end)
    tree = None
    if _is_tree_product(space):
        paths = _leg_path(seg.start.left, seg.end.left), _leg_path(seg.start.right, seg.end.right)
        (_, pos_l, _, ds_l), (_, pos_r, _, ds_r) = paths
        tree = (paths, _segment_pieces(paths), ds_l * ds_l + ds_r * ds_r,
                (space.left.leg_lengths[pos_l], space.right.leg_lengths[pos_r]))
    object.__setattr__(seg, "_checked", (space, tree))
    return tree


def project_segment_tree_exact(space: ProductSpace, seg: Segment, x: ProductPoint) -> ProjectionResult:
    """Exact projector onto any segment of a product of star trees.

    Per factor, the distance from x's coordinate (leg, offset) to the path's
    point at signed offset s is |s - offset| when x is on the positive leg,
    |s + offset| on the negative leg, and |s| + offset on a third leg, with a
    kink where the path passes the center.  Between kinks every factor is
    |c + ds * t|, so [0, 1] splits into at most three pieces, each with one
    quadratic in t; the foot is the best of the pieces' clamped minimizers.
    Another space raises :class:`UnsupportedShapeError` before any check; the
    segment's ends are checked once per space, x on every call.
    """
    _require_tree_product(space)
    return _project_tree_segment(space, seg, _checked_segment(space, seg), x)


def _project_tree_segment(space: ProductSpace, seg: Segment, tree, x: ProductPoint) -> ProjectionResult:
    """:func:`project_segment_tree_exact` on ``seg``'s checked tree data."""
    (((neg_l, pos_l, s0_l, ds_l), (neg_r, pos_r, s0_r, ds_r)), pieces, qa,
     (len_l, len_r)) = tree
    # x is validated by the one space.distance call that measures the foot;
    # a point of the wrong type fails here first and gets _check's error.
    try:
        leg_xl, off_l, leg_xr, off_r = x.left.leg, x.left.offset, x.right.leg, x.right.offset
    except AttributeError:
        space._check(x)
        raise
    best_v, t = math.inf, 0.0
    for lo, hi, (leg_l, sign_l), (leg_r, sign_r) in pieces:
        # x's factor is |s - sign * offset| away on the piece's leg, |s + sign * offset|
        # off it; a center x has offset 0, where both forms agree
        c_l = s0_l - sign_l * off_l if leg_xl == leg_l else s0_l + sign_l * off_l
        c_r = s0_r - sign_r * off_r if leg_xr == leg_r else s0_r + sign_r * off_r
        if qa:
            t_piece = -(ds_l * c_l + ds_r * c_r) / qa
            # min(hi, max(lo, t_piece)) without the calls, as lo < hi
            t_piece = (t_piece if t_piece < hi else hi) if t_piece > lo else lo
            v_l, v_r = c_l + ds_l * t_piece, c_r + ds_r * t_piece
            v = v_l * v_l + v_r * v_r
        else:  # qa underflows to 0.0 when every |ds| is below about 1e-162: use rationals
            from fractions import Fraction  # imported here: start-up never needs it
            f_l, f_r, e_l, e_r = map(Fraction, (c_l, c_r, ds_l, ds_r))
            q = e_l * e_l + e_r * e_r
            t_piece = Fraction(min(hi, max(lo, -(e_l * f_l + e_r * f_r) / q)) if q else lo)
            v = (f_l + e_l * t_piece) ** 2 + (f_r + e_r * t_piece) ** 2
        if v < best_v:
            best_v, t = v, t_piece
    if t == 0.0 or t == 1.0:  # s0 + ds * 1.0 = a + (b - a) can round off the end b
        foot = seg.end if t else seg.start
    else:  # rounding can carry s0 + ds * t past a leg's end where the segment ends there
        s_l, s_r = s0_l + ds_l * t, s0_r + ds_r * t
        foot = ProductPoint(StarPoint(pos_l, s_l if s_l <= len_l else len_l) if s_l >= 0.0
                            else StarPoint(neg_l, -s_l),
                            StarPoint(pos_r, s_r if s_r <= len_r else len_r) if s_r >= 0.0
                            else StarPoint(neg_r, -s_r))
    return ProjectionResult(foot, space.distance(x, foot), "exact_piecewise")


# ---------------------------------------------------------------------------
# Axis


def _project_axis(x: PlanePoint) -> ProjectionResult:
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


def _geometric_bracket(epsilon: float, x0: float, y0: float) -> tuple[float, ...]:
    """[lo, hi] with g(lo) <= 0 <= g(hi) from u = 1, then its midpoint d and g, g' there."""
    g, _ = _epigraph_stationarity(epsilon, x0, y0, 0.0, 1.0)
    doubling = g < 0.0  # the root lies above u = 1; halve u while it lies below
    prev = u = 1.0
    steps = 0
    while not (g >= 0.0 if doubling else g <= 0.0):  # a g(1) of 0 skips the search
        if steps == _MAX_DOUBLINGS:
            raise NumericalFailureError(
                f"failed to bracket the epigraph foot from ({x0!r}, {y0!r}), "
                f"epsilon={epsilon!r}: no sign change within {_MAX_DOUBLINGS} "
                f"{'doublings' if doubling else 'halvings'}"
            )
        steps += 1
        prev, u = u, (u * 2.0 if doubling else u * 0.5)
        g, _ = _epigraph_stationarity(epsilon, x0, y0, 0.0, u)
    lo, hi = (prev, u) if doubling else (u, prev)
    d = 0.5 * (lo + hi)
    return (lo, hi, d) + _epigraph_stationarity(epsilon, x0, y0, 0.0, d)


def _epigraph_foot(epsilon: float, x0: float, y0: float) -> tuple[float, float]:
    """The one-point solve: the epigraph foot (u, height) of (x0, y0) outside the set.

    :func:`project` runs it, and :func:`_epigraph_feet` where it has no local
    bracket.  The foot is the unique root of :func:`_epigraph_stationarity`'s g.

    For x0 > 0 the root is solved for the increment d = u - x0 on the
    closed-form bracket [0, h(x0)]: g(x0) = -h(x0) < 0, and h decreases
    wherever it is positive, so g(x0 + h(x0)) >= 0.  Along a two-set trace
    the foot moves by about one step, so Newton from d = 0 converges in one
    step, and the foot u = x0 + d carries a single rounding.  If
    x0 + h(x0) == x0 the foot cannot move x0 by one ulp and a trace would
    record a zero step where the true one is positive, so
    :class:`NumericalFailureError` is raised.

    For x0 <= 0, or when that bracket is wider than x0 itself (h(x0) > x0,
    an overflowing h or x0**(-epsilon) included), Newton from d = 0 would
    crawl across many decades; the root is instead bracketed by geometric
    expansion from u = 1 and solved for u itself.  Both brackets feed one
    safeguarded Newton loop that bisects whenever a step leaves the bracket
    and stops once |g| <= ``_TOL`` * max(1, |x0|, |y0|).  A power past
    float range in the solve raises :class:`NumericalFailureError`.
    """
    try:
        e = x0 ** -epsilon if x0 > 0.0 else 0.0
    except OverflowError:  # +inf, as in _boundary_height: h(x0) is +inf too
        e = math.inf
    try:
        h0 = math.inf
        if x0 > 0.0:  # g and g' at d = 0, where u is x0 itself
            k = epsilon * e / x0
            tail = 1.0 + e - y0
            g = 0.0 - k * tail
            gp = 1.0 + (epsilon + 1.0) * (k / x0) * tail + k * k
            # 0.0 - g rather than -g: an h(x0) that underflows reads 0.0, not -0.0
            h0 = 0.0 - g
        if not h0 <= x0:
            base = 0.0
            lo, hi, d, g, gp = _geometric_bracket(epsilon, x0, y0)
        elif x0 + h0 == x0:
            raise NumericalFailureError(
                f"epigraph foot from ({x0!r}, {y0!r}), epsilon={epsilon!r}, lies within "
                f"one ulp of x0: the bracket width {h0!r} does not move x0"
            )
        else:
            base, lo, hi, d = x0, 0.0, h0, 0.0

        ax, ay = abs(x0), abs(y0)  # the limit is _TOL * max(1.0, ax, ay), without a call
        scale = ax if ax >= ay else ay
        limit = _TOL * scale if scale > 1.0 else _TOL
        steps = _MAX_NEWTON
        while not abs(g) <= limit:
            if g > 0.0:
                hi = d
            else:
                lo = d
            d_next = d - g / gp  # bisect where the step leaves the bracket
            d = d_next if lo < d_next < hi else 0.5 * (lo + hi)
            g, gp = _epigraph_stationarity(epsilon, x0, y0, base, d)
            steps -= 1
            if not steps:  # the residual after the last allowed step is not tested
                raise NumericalFailureError(
                    f"epigraph Newton failed to converge from ({x0!r}, {y0!r}), "
                    f"epsilon={epsilon!r}"
                )

        # One unguarded Newton step from the converged residual pushes the foot
        # to machine precision; the two-set step-size chains are checked with
        # 1e-12 slack downstream.
        u = base + (d - g / gp)
        return u, 1.0 + u ** -epsilon
    except OverflowError:  # a power u**(-epsilon) past float range in a solve
        raise NumericalFailureError(
            f"epigraph power overflowed projecting ({x0!r}, {y0!r}), epsilon={epsilon!r}"
        ) from None


def _epigraph_feet(epsilon: float, x0: float, cycles: int, us: list, heights: list) -> None:
    """Append the feet (u, height) of ``cycles`` two-set kernel cycles from the axis point (x0, 0).

    A cycle with a usable local bracket (x0 > 0, h(x0) <= x0, x0 + h(x0) != x0)
    runs :func:`_epigraph_foot`'s solve inline with y0 = 0 and base = x0, which
    drop out of its arithmetic exactly; any other calls :func:`_epigraph_foot`,
    so the feet and errors are its own.  Earlier feet stay in the lists on a failure.
    """
    neg_eps, eps1 = -epsilon, epsilon + 1.0
    u_append, height_append = us.append, heights.append
    try:
        e = x0 ** neg_eps if x0 > 0.0 else 0.0
    except OverflowError:  # +inf, as in _boundary_height: h(x0) is +inf too
        e = math.inf
    try:
        for _ in range(cycles):
            h0 = math.inf
            if x0 > 0.0:  # g at d = 0; 1.0 + e - 0.0 is 1.0 + e
                k = epsilon * e / x0
                tail = 1.0 + e
                g = 0.0 - k * tail
                h0 = 0.0 - g
            if not h0 <= x0 or x0 + h0 == x0:  # no local bracket (near the y-axis) or a one-ulp foot
                u, height = _epigraph_foot(epsilon, x0, 0.0)
                e = u ** neg_eps
            else:
                gp = 1.0 + eps1 * (k / x0) * tail + k * k
                lo, hi, d = 0.0, h0, 0.0
                limit = _TOL * x0 if x0 > 1.0 else _TOL  # _TOL * max(1, |x0|, |0.0|)
                steps = _MAX_NEWTON
                while not -limit <= g <= limit:
                    if g > 0.0:
                        hi = d
                    else:
                        lo = d
                    d_next = d - g / gp  # bisect where the step leaves the bracket
                    d = d_next if lo < d_next < hi else 0.5 * (lo + hi)
                    u = x0 + d
                    e = u ** neg_eps
                    k = epsilon * e / u
                    tail = 1.0 + e
                    g = d - k * tail  # d - (x0 - x0) is d
                    gp = 1.0 + eps1 * (k / u) * tail + k * k
                    steps -= 1
                    if not steps:
                        raise NumericalFailureError(
                            f"epigraph Newton failed to converge from ({x0!r}, {0.0!r}), "
                            f"epsilon={epsilon!r}"
                        )
                u = x0 + (d - g / gp)
                e = u ** neg_eps
                height = 1.0 + e
            u_append(u)
            height_append(height)
            x0 = u
    except OverflowError:
        raise NumericalFailureError(
            f"epigraph power overflowed projecting ({x0!r}, {0.0!r}), epsilon={epsilon!r}"
        ) from None


def _project_epigraph(epsilon: float, x: PlanePoint) -> ProjectionResult:
    """Project onto {(x, y) : x > 0, y >= 1 + x**(-epsilon)} by :func:`_epigraph_foot`."""
    x0, y0 = x.x, x.y
    if x0 > 0.0 and y0 >= _boundary_height(epsilon, x0):
        return ProjectionResult(x, 0.0, "closed_form")
    u, height = _epigraph_foot(epsilon, x0, y0)
    return ProjectionResult(PlanePoint(u, height), math.hypot(u - x0, height - y0), "newton")


# ---------------------------------------------------------------------------
# Cross discs

_TIE_TOL = 1e-12


def _project_cross_disc(chain: TwistedChain, disc_index: int, x: ChainPoint) -> ProjectionResult:
    """Exact projection onto a cross-sectional disc of the chain.

    The nearest lift of the disc is the plane at height h_i + k*Lambda with
    k minimizing |x.height - h_i - k*Lambda|; transporting the disc
    coordinates back through k loops rotates them by -k*twist.  Horizontal
    transport is a rigid motion of discs, so this vertical drop is the exact
    closest point.
    """
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


def project(space, cset: ConvexSet, x) -> ProjectionResult:
    """Project x onto cset within space, by the solver the space and the set select.

    A plane segment takes the closed form, a segment of a product of star
    trees the exact projector, any other segment golden section, and every
    other set its exact projector.  Those projectors trust their inputs: x is
    checked on every call, a segment's ends once per space, and a set's
    parameters by the set's constructor.
    To force a segment solver, call :func:`project_segment_generic` or
    :func:`project_segment_tree_exact` directly.
    """
    if isinstance(cset, Segment):
        tree = _checked_segment(space, cset)
        if isinstance(space, Plane):
            space._check(x)
            return _project_segment_plane(cset, x)
        if tree is not None:
            return _project_tree_segment(space, cset, tree, x)
        return project_segment_generic(space, cset, x)
    if isinstance(cset, AxisLine):
        if not isinstance(space, Plane):
            raise TypeError("AxisLine lives in the plane")
        space._check(x)
        return _project_axis(x)
    if isinstance(cset, Epigraph):
        if not isinstance(space, Plane):
            raise TypeError("Epigraph lives in the plane")
        space._check(x)
        return _project_epigraph(cset.epsilon, x)
    if isinstance(cset, CrossDisc):
        if not isinstance(space, TwistedChain):
            raise TypeError("CrossDisc lives in a twisted chain")
        space._check(x)
        return _project_cross_disc(space, cset.disc_index, x)
    raise TypeError(f"unknown convex set {type(cset).__name__}")


# ---------------------------------------------------------------------------
# Distance between sets


def set_distance(space, set_a: ConvexSet, set_b: ConvexSet) -> float:
    """Exact distance between two segments in a product of star trees.

    The segments' pieces split the square of their parameters into at most
    3 x 3 rectangles.  On each, the squared distance is a single quadratic in
    the two parameters (squares absorb the |.| kinks factorwise), minimized
    by checking the interior stationary point and the four edges.  Every
    other pair raises :class:`UnsupportedShapeError`, two equal sets included,
    as does any other space, before any check; the ends are checked once per space.
    """
    if not (isinstance(set_a, Segment) and isinstance(set_b, Segment)):
        raise UnsupportedShapeError(
            f"set_distance covers only pairs of segments, got {type(set_a).__name__} "
            f"and {type(set_b).__name__}"
        )
    _require_tree_product(space)
    paths_a, pieces_a, _, _ = _checked_segment(space, set_a)
    paths_b, pieces_b, _, _ = _checked_segment(space, set_b)
    best = math.inf
    for s_lo, s_hi, *legs_a in pieces_a:
        for t_lo, t_hi, *legs_b in pieces_b:
            coeffs = []
            for (_, _, a0, da), (leg_a, e_a), (_, _, b0, db), (leg_b, e_b) in zip(
                    paths_a, legs_a, paths_b, legs_b):
                sign = -e_b if leg_a == leg_b else e_b
                # factor term: (e_a*(a0 + da*s) + sign*(b0 + db*t))^2
                coeffs.append((e_a * a0 + sign * b0, e_a * da, sign * db))
            best = min(best, _rectangle_minimum(coeffs, s_lo, s_hi, t_lo, t_hi))
    return math.sqrt(max(0.0, best))


def _rectangle_minimum(coeffs: list, s_lo: float, s_hi: float, t_lo: float, t_hi: float) -> float:
    """Minimum over [s_lo, s_hi] x [t_lo, t_hi] of the sum of (c0 + cs*s + ct*t)^2."""
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

    candidates: list[tuple[float, float]] = [(s_lo, t_lo), (s_lo, t_hi), (s_hi, t_lo), (s_hi, t_hi)]
    det = A * B - C * C
    if det > 0.0:
        s = (-D * B + E * C) / det
        t = (-E * A + D * C) / det
        if s_lo <= s <= s_hi and t_lo <= t <= t_hi:
            candidates.append((s, t))

    for fs in (s_lo, s_hi):
        # minimize over t: B t^2 + 2(C*fs + E) t + ...
        t = -(C * fs + E) / B if B > 0.0 else t_lo
        candidates.append((fs, min(t_hi, max(t_lo, t))))
    for ft in (t_lo, t_hi):
        s = -(C * ft + D) / A if A > 0.0 else s_lo
        candidates.append((min(s_hi, max(s_lo, s)), ft))

    return min(value(s, t) for s, t in candidates)
