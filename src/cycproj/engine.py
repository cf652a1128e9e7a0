"""Cyclic projection iteration, diagnostics, and regularity classification.

The cycle map applies the projections rightmost-first:

    P(x) = P_1(P_2(... P_k(x)))

so a point of the first set travels "backwards" through the list and
returns to the first set once per cycle.  A trace records the cycle
outputs x_n = P^n(x), the step sizes r_n = d(x_n, x_{n+1}) computed from
one full cycle apart (never from intermediates), and for k = 2 the
auxiliary sequence y_{n+1} = P_2(x_n) with its distance diagnostics.

``iterate`` builds the trace before any cycle runs, the loop its input
types pick fills it in place, and ``iterate`` stores the last point.  A
trace stores points as the space's coordinates (``to_coords``), and
``Trace.points`` decodes them through ``from_coords`` on first use.  A
``Plane`` with the sets ``(AxisLine(), Epigraph(eps))`` runs cycle 0 through
the generic loop and cycles 1..n on a float kernel: x_n stays on the axis
from n = 1 on, one call to the epigraph solve for axis points (``project``
keeps the one-point solve) gives the feet of a block of cycles, and the
kernel fills the trace's columns, the stored coordinates (u, 0.0)
included, for the whole block at once, with no point built.  Its output
is bitwise the generic loop's: r and a are distances along one axis, where
``math.hypot`` is exactly ``abs``, so they are numpy ``abs`` columns, while
b and s keep ``math.hypot`` per cycle, since ``np.hypot`` can differ from
it in the last bit.  Every other space or set tuple,
including the reversed pair ``(Epigraph(eps), AxisLine())``, runs the
generic loop through ``project`` and ``space.distance``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import repeat
from typing import Sequence

import numpy as np

from .projections import (
    AxisLine,
    ConvexSet,
    Epigraph,
    NumericalFailureError,
    _epigraph_feet,
    project,
)
from .spaces import Plane, PlanePoint, _is_integer

__all__ = [
    "Trace",
    "TwoSetReport",
    "RateFit",
    "RegularityVerdict",
    "cycle_apply",
    "iterate",
    "two_set_diagnostics",
    "rate_fit",
    "verdict",
]

_DECIMATION_THRESHOLD = 100_000
_POINTS_KEPT = 10_000
_BLOCK = 256  # cycles the two-set kernel solves per call of the epigraph solver
_FIT_CHUNK = 1 << 16  # indices rate_fit and two_set_diagnostics read at a time


@dataclass(eq=False)
class Trace:
    """Record of an iteration run; ``==`` is identity, so it never compares arrays.

    Scalar diagnostics are kept for every cycle; iterate points are stored
    at every ``stride``-th cycle (in adjacent pairs, so step sizes stay
    recomputable from stored points) plus the start, as ``coords[0]``, and
    the final point.  ``coords`` holds each stored point as the tuple
    ``space.to_coords(p)``, aligned with ``point_indices``; the read-only
    ``points`` decodes them through ``space.from_coords`` once per trace.
    Arrays follow the indexing x_n = P^n(x):

    * ``r[n] = d(x_n, x_{n+1})`` for ``0 <= n < completed``.
    * For two sets only, with ``y_{n+1} = P_2(x_n)``:
      ``a[n] = d(x_n, y_n)`` (defined for n >= 1, NaN at 0),
      ``b[n] = d(y_{n+1}, x_n)`` for n >= 0,
      ``s[n] = d(y_n, y_{n+1})`` (defined for n >= 1, NaN at 0).
    """

    space: object
    sets: tuple[ConvexSet, ...]
    stride: int
    r: np.ndarray
    point_indices: np.ndarray
    coords: list
    s: np.ndarray | None = None
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    failure: str | None = None
    _points: list | None = field(default=None, init=False, repr=False)

    @property
    def points(self) -> list:
        """The stored points, decoded from ``coords`` on first use."""
        if self._points is None:
            self._points = list(map(self.space.from_coords, self.coords))
        return self._points

    @property
    def failed(self) -> bool:
        return self.failure is not None

    @property
    def k(self) -> int:
        return len(self.sets)

    @property
    def completed(self) -> int:
        """Number of cycles actually run."""
        return len(self.r)


def cycle_apply(space, sets: Sequence[ConvexSet], x):
    """Apply one full cycle of :func:`project` calls, rightmost set first.

    Returns ``(P(x), intermediates)`` where intermediates lists the k points
    in application order; the last one is P(x) itself.
    """
    if not sets:
        raise ValueError("at least one convex set is required")
    intermediates = []
    for cset in reversed(sets):
        x = project(space, cset, x).point
        intermediates.append(x)
    return x, tuple(intermediates)


def iterate(space, sets: Sequence[ConvexSet], start, cycles: int, *,
            stride: int | None = None) -> Trace:
    """Run ``cycles`` cycles of the projection iteration from ``start``.

    Deterministic: identical inputs produce bit-identical traces, with each
    solver picked from the space and the set as in :func:`project` and
    stopping at its one fixed tolerance of 1e-12.  On a numerical failure
    inside a projection the trace is returned truncated with ``failure``
    set; domain and usage errors propagate.  The trace is built first and
    filled in place by :func:`_generic_cycles`, or for the x-axis against an
    epigraph by it in cycle 0 and by the float kernel
    :func:`_axis_epigraph_cycles` after, with the same bits.  The loops store
    cycles k with ``k % stride <= 1``; the last point is stored here.
    """
    for name, value in (("cycles", cycles), ("stride", 1 if stride is None else stride)):
        if not _is_integer(value):
            raise TypeError(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value!r}")
    sets = tuple(sets)
    if not sets:
        raise ValueError("at least one convex set is required")
    if stride is None:
        stride = 1 if cycles <= _DECIMATION_THRESHOLD else math.ceil(cycles / _POINTS_KEPT)

    space._check(start)  # the error the first projection would raise
    two_sets = len(sets) == 2
    trace = Trace(space=space, sets=sets, stride=stride, r=np.empty(cycles), point_indices=[0],
                  coords=[space.to_coords(start)],
                  s=np.full(cycles, np.nan) if two_sets else None,
                  a=np.full(cycles + 1, np.nan) if two_sets else None,
                  b=np.full(cycles, np.nan) if two_sets else None)

    # Only the Plane itself takes the kernel, as a subclass may measure
    # differently; the kernel's cycle 0, whose start may lie anywhere, runs here.
    kernel = (type(space) is Plane and two_sets and isinstance(sets[0], AxisLine)
              and isinstance(sets[1], Epigraph))
    completed, x = _generic_cycles(trace, start, 1 if kernel else cycles)
    if kernel and trace.failure is None:
        completed, x = _axis_epigraph_cycles(trace, x)

    trace.r = trace.r[:completed]  # fewer than ``cycles`` only after a failure
    if two_sets:
        trace.s, trace.a, trace.b = trace.s[:completed], trace.a[:completed + 1], trace.b[:completed]
    if trace.point_indices[-1] != completed:
        trace.point_indices.append(completed)
        trace.coords.append(space.to_coords(x))
    trace.point_indices = np.asarray(trace.point_indices, dtype=np.int64)
    return trace


def _generic_cycles(trace: Trace, x, n: int):
    """Run cycles 0..n-1 from ``x`` through ``project``, filling ``trace`` in place.

    Stores the points of cycles k with ``k % stride <= 1``.  Returns
    ``(completed, x)``, the cycles run and the last point reached; a
    numerical failure stops the run and is recorded as ``trace.failure``.
    """
    space, sets, stride, coords = trace.space, trace.sets, trace.stride, trace.coords
    r, s_arr, a_arr, b_arr, point_indices = trace.r, trace.s, trace.a, trace.b, trace.point_indices
    distance, to_coords = space.distance, space.to_coords
    y_prev = None
    for i in range(n):
        try:
            x_next, mids = cycle_apply(space, sets, x)
        except NumericalFailureError as exc:
            trace.failure = str(exc)
            return i, x
        r[i] = distance(x, x_next)
        if s_arr is not None:  # two sets
            y = mids[0]
            b_arr[i] = distance(y, x)
            a_arr[i + 1] = distance(x_next, y)
            if y_prev is not None:
                s_arr[i] = distance(y_prev, y)
            y_prev = y
        if (i + 1) % stride <= 1:
            point_indices.append(i + 1)
            coords.append(to_coords(x_next))
        x = x_next
    return n, x


def _axis_epigraph_cycles(trace: Trace, x: PlanePoint):
    """Cycles 1..n of :func:`_generic_cycles` for the x-axis against an epigraph, on floats.

    ``x`` is x_1, on the axis, and cycle 0 is already in ``trace``.  A cycle
    projects x = (x_x, 0) onto the epigraph, giving the foot y = (u, height),
    and y onto the axis, giving (u, 0).  The previous foot is (x_1.x, a_1),
    since a_1 = d(x_1, y_1) is its height.  :func:`_epigraph_feet`, the solve
    for axis points only, gives the feet ``_BLOCK`` cycles per call, and each
    column is then written for the block in one slice.  ``Plane.distance``'s
    ``hypot(x_x - u, 0.0)`` for r and ``hypot(0.0, -height)`` for a are exactly
    ``abs(x_x - u)`` and ``abs(height)``; they are numpy ``abs`` over the block.  b and s
    keep ``math.hypot`` on the same operands, mapped over the block, because
    ``np.hypot`` differs from it in the last bit for a few pairs in a
    thousand.  So the trace is bitwise the generic loop's.  No point is
    built: each foot is checked to be finite, with the generic loop's error,
    before the next solver call, and the trace stores the kept feet's
    coordinates (u, 0.0).  Returns ``(completed, x)``.
    """
    r, s_arr, a_arr, b_arr, n = trace.r, trace.s, trace.a, trace.b, len(trace.r)
    point_indices, coords, stride = trace.point_indices, trace.coords, trace.stride
    epsilon = trace.sets[1].epsilon
    hypot = math.hypot
    x_x, y_y = x.x, a_arr[1]  # the previous foot is (x_x, y_y)
    i = 1
    while i < n and trace.failure is None:
        us, heights = [], []
        try:
            _epigraph_feet(epsilon, x_x, min(_BLOCK, n - i), us, heights)
        except NumericalFailureError as exc:
            trace.failure = str(exc)
        if m := len(us):
            u, height = np.array([x_x, *us]), np.array([y_y, *heights])
            du = u[:-1] - u[1:]
            np.abs(du, out=r[i:i + m])  # d(x, x_next) = hypot(x_x - u, 0.0)
            np.abs(height[1:], out=a_arr[i + 1:i + m + 1])  # d(x_next, y) = hypot(0.0, -height)
            du, dh = du.tolist(), (height[:-1] - height[1:]).tolist()
            b = list(map(hypot, du, heights))  # d(y, x)
            # b_k is finite unless foot k or k - 1 is not (or b_k overflows)
            if not math.isfinite(sum(b)):
                list(map(PlanePoint, us, heights))  # the generic loop's error on such a foot
            b_arr[i:i + m] = b
            s_arr[i:i + m] = list(map(hypot, du, dh))  # d(y_prev, y)
            if stride == 1:
                point_indices.extend(range(i + 1, i + m + 1))
                coords.extend(zip(us, repeat(0.0, m)))
            else:  # the block's cycles k with k % stride <= 1
                kept = [k for j in range(i + 1 - (i + 1) % stride, i + m + 1, stride)
                        for k in (j, j + 1) if i < k <= i + m]
                point_indices += kept
                coords += [(us[k - i - 1], 0.0) for k in kept]
            i += m
            x_x, y_y = us[-1], heights[-1]
    return i, PlanePoint(x_x, 0.0)


# ---------------------------------------------------------------------------
# Two-set diagnostics


@dataclass(frozen=True)
class TwoSetReport:
    """Worst residuals of the two-set step-size inequalities.

    Margins are the minimal slack of each inequality family; a margin of
    ``-eps`` means the worst case overshoots by ``eps``.  All inequalities
    hold exactly for exact projections, so margins should sit at rounding
    level.
    """

    cycles: int
    step_chain_margin: float      # s_n >= r_n >= s_{n+1} interleaving
    gap_chain_margin: float       # a_n >= b_n >= a_{n+1} interleaving
    energy_margin: float          # r_n^2 <= b_n^2 - a_{n+1}^2
    monotone_margin: float        # r_{n+1} <= r_n
    sum_r_sq: float
    b1_sq: float
    step_chain_ok: bool
    gap_chain_ok: bool
    energy_ok: bool
    monotone_ok: bool
    sum_ok: bool

    @property
    def passed(self) -> bool:
        return (self.step_chain_ok and self.gap_chain_ok and self.energy_ok
                and self.monotone_ok and self.sum_ok)


# Rounding allowances of the two-set inequalities: CHAIN_SLACK for both
# chains and the monotonicity of r, ENERGY_SLACK for the energy bound and
# SUM_SLACK for the summed bound.
CHAIN_SLACK = 1e-12
ENERGY_SLACK = 1e-12
SUM_SLACK = 1e-9


def _sum_r_sq(trace: Trace) -> float:
    """sum_{n>=1} r_n^2, the left side of the summed bound; 0.0 below two steps."""
    return float(np.sum(trace.r[1:] ** 2)) if trace.completed >= 2 else 0.0


def _margin(*parts) -> float:
    """Least term of the parts ``(terms, lo, hi)``, ``terms(i, j)`` giving terms i..j-1:
    per part, ``np.min`` over ``_FIT_CHUNK``-index chunks (+inf if empty), then across
    parts Python's ``min`` in order, keeping the first of equal zeros; NaN if any part is."""
    least = [float(np.min([np.min(terms(i, min(i + _FIT_CHUNK, hi)))
                           for i in range(lo, hi, _FIT_CHUNK)])) if lo < hi else math.inf
             for terms, lo, hi in parts]
    return math.nan if any(map(math.isnan, least)) else min(least)


def two_set_diagnostics(trace: Trace) -> TwoSetReport:
    """Verify the interleaved step-size inequalities of a two-set trace.

    Checks, for n >= 1: the nonexpansiveness chain s_n >= r_n >= s_{n+1},
    the set-gap chain a_n >= b_n >= a_{n+1}, the energy bound
    r_n^2 <= b_n^2 - a_{n+1}^2, monotonicity of r, and the summed bound
    sum_{n>=1} r_n^2 <= b_1^2, each within its slack above.  A margin over
    no terms is +inf; a NaN term makes its margin NaN, which fails.
    """
    if trace.k != 2:
        raise ValueError(f"two-set diagnostics need a 2-set trace, got k={trace.k}")
    n, r, s, a, b = trace.completed, trace.r, trace.s, trace.a, trace.b
    # valid ranges: s[1..n-1], a[1..n], b[0..n-1], r[0..n-1]
    step_margin = _margin((lambda i, j: s[i:j] - r[i:j], 1, n),
                          (lambda i, j: r[i:j] - s[i + 1:j + 1], 1, n - 1))
    gap_margin = _margin((lambda i, j: a[i:j] - b[i:j], 1, n),
                         (lambda i, j: b[i:j] - a[i + 1:j + 1], 1, n))
    energy_margin = _margin((lambda i, j: b[i:j] ** 2 - a[i + 1:j + 1] ** 2 - r[i:j] ** 2, 1, n))
    mono_margin = _margin((lambda i, j: r[i:j] - r[i + 1:j + 1], 0, n - 1))

    sum_r_sq = _sum_r_sq(trace)
    b1_sq = float(b[1] ** 2) if n >= 2 else math.inf

    return TwoSetReport(
        cycles=n,
        step_chain_margin=step_margin,
        gap_chain_margin=gap_margin,
        energy_margin=energy_margin,
        monotone_margin=mono_margin,
        sum_r_sq=sum_r_sq,
        b1_sq=b1_sq,
        step_chain_ok=step_margin >= -CHAIN_SLACK,
        gap_chain_ok=gap_margin >= -CHAIN_SLACK,
        energy_ok=energy_margin >= -ENERGY_SLACK,
        monotone_ok=mono_margin >= -CHAIN_SLACK,
        sum_ok=b1_sq + SUM_SLACK - sum_r_sq >= 0.0,
    )


# ---------------------------------------------------------------------------
# Rate fitting


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    count: int
    zeros_excluded: int


def rate_fit(trace: Trace, window: tuple[int, int]) -> RateFit:
    """Least-squares line of y = log r_n against x = log n over the window [lo, hi].

    The window is clipped to ``completed - 1`` and zero steps are left out,
    with a warning.  The line is the closed form: slope Sxy / Sxx, from the
    centred sums Σ(x - x̄)² and Σ(x - x̄)(y - ȳ), and intercept ȳ - slope · x̄.
    The window is walked ``_FIT_CHUNK`` indices at a time, so no temporary
    is longer than a chunk and no LAPACK routine runs.  A chunk's sums,
    pairwise summed about its own means, are folded into exact rational
    totals: Chan, Golub and LeVeque's pairwise update with no rounding.
    """
    lo, hi = window
    if not (_is_integer(lo) and _is_integer(hi)):
        raise TypeError(f"window bounds must be integers, got {window!r}")
    if lo < 1 or hi <= lo:
        raise ValueError(f"window must satisfy 1 <= lo < hi, got {window!r}")
    hi = min(hi, trace.completed - 1)
    if hi <= lo:
        raise ValueError(f"window {window!r} lies outside the trace (n={trace.completed})")
    from fractions import Fraction  # loaded on the first fit, as it imports decimal
    count = zeros = 0
    sx = sy = sxx = sxy = Fraction(0)  # the window's sums of x, y, x² and xy
    r = trace.r[:hi + 1]
    for start in range(lo, hi + 1, _FIT_CHUNK):
        values = r[start:start + _FIT_CHUNK]
        positive = values > 0.0
        x, y = np.log(np.arange(start, start + len(values))[positive]), np.log(values[positive])
        zeros += len(values) - len(x)
        if k := len(x):
            mx, my = float(x.mean()), float(y.mean())
            x -= mx
            y -= my
            dx, dy, dxx, dxy = (Fraction(float(np.sum(v))) for v in (x, y, x * x, x * y))
            mx, my, count = Fraction(mx), Fraction(my), count + k
            sx, sy = sx + k * mx + dx, sy + k * my + dy
            sxx += dxx + (2 * dx + k * mx) * mx
            sxy += dxy + dy * mx + (dx + k * mx) * my
    if zeros:
        warnings.warn(f"rate_fit: excluded {zeros} zero step(s) from the window")
    if count < 2:
        raise ValueError("not enough positive steps in the window to fit a rate")
    slope = (sxy - sx * sy / count) / (sxx - sx * sx / count)
    return RateFit(float(slope), float((sy - slope * sx) / count), count, zeros)


# ---------------------------------------------------------------------------
# Verdict


@dataclass(frozen=True)
class RegularityVerdict:
    """Classification of a trace's step-size behavior.

    ``NotRegular`` is only declared when the inspected tail is flat at a
    positive level, which is then reported as ``liminf_r``; a merely slow
    decay stays ``Inconclusive``.
    """

    classification: str  # "Regular" | "NotRegular" | "Inconclusive"
    final_r: float
    liminf_r: float


_R_TOL = 1e-6
_TAIL_FRACTION = 0.2
_MONO_SLACK = 1e-12
_FLAT_REL_TOL = 1e-6


def _tail_start(trace: Trace) -> int:
    """Index of the first step of the tail :func:`verdict` inspects."""
    return trace.completed - max(1, math.ceil(_TAIL_FRACTION * (trace.completed - 1)))


def verdict(trace: Trace) -> RegularityVerdict:
    """Classify a trace as Regular, NotRegular, or Inconclusive.

    The tail is the last ``_TAIL_FRACTION`` of the steps r_1, r_2, ...,
    rounded up, or r_0 alone after one cycle.  Regular: the final step is
    below ``_R_TOL`` and the tail is non-increasing (within ``_MONO_SLACK``).
    NotRegular: the tail holds two steps or more (one is trivially flat),
    every one exceeds ``10 * _R_TOL``, and it is flat to relative
    ``_FLAT_REL_TOL`` -- evidence of a positive liminf, whose estimate is the
    tail minimum.
    """
    if trace.completed == 0:
        raise ValueError("cannot classify an empty trace")
    tail = trace.r[_tail_start(trace):]
    tail_min, tail_max, final_r = float(np.min(tail)), float(np.max(tail)), float(tail[-1])
    if final_r < _R_TOL and np.all(np.diff(tail) <= _MONO_SLACK):
        cls = "Regular"
    elif (len(tail) >= 2 and tail_min >= 10.0 * _R_TOL
          and tail_max - tail_min <= _FLAT_REL_TOL * tail_max):
        cls = "NotRegular"
    else:
        cls = "Inconclusive"
    return RegularityVerdict(cls, final_r, tail_min)


def _tail_slope(trace: Trace) -> float | None:
    """:func:`rate_fit`'s slope over the tail :func:`verdict` inspects, or None
    unless that tail holds at least 10 steps, all positive."""
    lo = _tail_start(trace)
    if trace.completed - lo < 10 or not trace.r[lo:].min() > 0.0:
        return None
    return rate_fit(trace, (lo, trace.completed - 1)).slope
