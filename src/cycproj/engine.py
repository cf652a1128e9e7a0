"""Cyclic projection iteration, diagnostics, and regularity classification.

The cycle map applies the projections rightmost-first:

    P(x) = P_1(P_2(... P_k(x)))

so a point of the first set travels "backwards" through the list and
returns to the first set once per cycle.  A trace records the cycle
outputs x_n = P^n(x), the step sizes r_n = d(x_n, x_{n+1}) computed from
one full cycle apart (never from intermediates), and for k = 2 the
auxiliary sequence y_{n+1} = P_2(x_n) with its distance diagnostics.

``iterate`` picks its loop from the types of its inputs.  A ``Plane`` with
the sets ``(AxisLine(), Epigraph(eps))`` runs a float kernel: x_n stays on
the axis, one call to the epigraph projector's float core gives each
cycle's foot, and points are built only where the trace stores them.  Its
output is bitwise the generic loop's.  Every other space or set tuple,
including the reversed pair ``(Epigraph(eps), AxisLine())``, runs the
generic loop through ``project`` and ``space.distance``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .projections import (
    AxisLine,
    ConvexSet,
    Epigraph,
    NumericalFailureError,
    _check_epigraph_args,
    _epigraph_foot,
    project,
)
from .spaces import Plane, PlanePoint

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


@dataclass
class Trace:
    """Record of an iteration run.

    Scalar diagnostics are kept for every cycle; iterate points are stored
    at every ``stride``-th cycle (in adjacent pairs, so step sizes stay
    recomputable from stored points) plus the start, as ``points[0]``, and
    the final point.  Arrays follow the indexing x_n = P^n(x):

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
    points: list
    s: np.ndarray | None = None
    a: np.ndarray | None = None
    b: np.ndarray | None = None
    failed: bool = False
    failure: str | None = None

    @property
    def k(self) -> int:
        return len(self.sets)

    @property
    def completed(self) -> int:
        """Number of cycles actually run."""
        return len(self.r)


def cycle_apply(space, sets: Sequence[ConvexSet], x, *, tol: float = 1e-12):
    """Apply one full cycle of :func:`project` calls, rightmost set first.

    Returns ``(P(x), intermediates)`` where intermediates lists the k points
    in application order; the last one is P(x) itself.
    """
    if not sets:
        raise ValueError("at least one convex set is required")
    intermediates = []
    for cset in reversed(sets):
        x = project(space, cset, x, tol=tol).point
        intermediates.append(x)
    return x, tuple(intermediates)


def iterate(space, sets: Sequence[ConvexSet], start, cycles: int, *,
            tol: float = 1e-12, stride: int | None = None) -> Trace:
    """Run ``cycles`` cycles of the projection iteration from ``start``.

    Deterministic: identical inputs produce bit-identical traces, with each
    solver picked from the space and the set as in :func:`project`.  On a
    numerical failure inside a projection the trace is returned truncated
    with ``failed`` set; domain and usage errors propagate.  The x-axis
    against an epigraph runs on the float kernel
    :func:`_axis_epigraph_cycles`, every other input on
    :func:`_generic_cycles`; both fill the trace with the same bits.
    """
    sets = tuple(sets)
    if not sets:
        raise ValueError("at least one convex set is required")
    if cycles < 1:
        raise ValueError(f"cycles must be >= 1, got {cycles!r}")
    if stride is None:
        stride = 1 if cycles <= _DECIMATION_THRESHOLD else math.ceil(cycles / _POINTS_KEPT)
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride!r}")

    two_sets = len(sets) == 2
    r = np.empty(cycles)
    s_arr = np.full(cycles, np.nan) if two_sets else None
    a_arr = np.full(cycles + 1, np.nan) if two_sets else None
    b_arr = np.full(cycles, np.nan) if two_sets else None
    point_indices: list[int] = [0]
    points: list = [start]

    # A Plane subclass may measure differently, so only the Plane itself
    # takes the kernel.
    if (type(space) is Plane and two_sets and isinstance(sets[0], AxisLine)
            and isinstance(sets[1], Epigraph)):
        cycles_of = _axis_epigraph_cycles
    else:
        cycles_of = _generic_cycles
    completed, x, failure = cycles_of(space, sets, start, tol, stride, r, s_arr, a_arr,
                                      b_arr, point_indices, points)

    if failure is not None:
        r = r[:completed]
        if two_sets:
            s_arr = s_arr[:completed]
            a_arr = a_arr[: completed + 1]
            b_arr = b_arr[:completed]
        if point_indices[-1] != completed:
            point_indices.append(completed)
            points.append(x)

    return Trace(
        space=space,
        sets=sets,
        stride=stride,
        r=r,
        point_indices=np.asarray(point_indices, dtype=np.int64),
        points=points,
        s=s_arr,
        a=a_arr,
        b=b_arr,
        failed=failure is not None,
        failure=failure,
    )


def _generic_cycles(space, sets, start, tol, stride, r, s_arr, a_arr, b_arr,
                    point_indices, points):
    """Fill a trace's arrays and point lists cycle by cycle through ``project``.

    Returns ``(completed, x, failure)``: the cycles run, the last point
    reached and the text of the numerical failure that stopped the run, or
    None when all ``len(r)`` cycles ran.
    """
    two_sets = s_arr is not None
    n = len(r)
    distance = space.distance
    x = start
    y_prev = None
    for i in range(n):
        try:
            x_next, mids = cycle_apply(space, sets, x, tol=tol)
        except NumericalFailureError as exc:
            return i, x, str(exc)
        r[i] = distance(x, x_next)
        if two_sets:
            y = mids[0]
            b_arr[i] = distance(y, x)
            a_arr[i + 1] = distance(x_next, y)
            if y_prev is not None:
                s_arr[i] = distance(y_prev, y)
            y_prev = y
        if (i + 1) % stride <= 1 or i + 1 == n:
            point_indices.append(i + 1)
            points.append(x_next)
        x = x_next
    return n, x, None


def _axis_epigraph_cycles(space, sets, start, tol, stride, r, s_arr, a_arr, b_arr,
                          point_indices, points):
    """The cycles of :func:`_generic_cycles` for the x-axis against an epigraph, on floats.

    A cycle projects x onto the epigraph, giving the foot y = (u, height),
    and y onto the axis, giving (u, 0).  The foot comes from the epigraph
    projector's float core and every distance is the ``math.hypot`` that
    ``Plane.distance`` evaluates, with the same operands in the same order,
    so the trace is bitwise the generic loop's.  Points are built only where
    the trace stores them, and ``start`` is validated once, here.
    """
    epsilon = sets[1].epsilon
    _check_epigraph_args(epsilon, tol)
    space._check(start)
    foot, hypot, isfinite = _epigraph_foot, math.hypot, math.isfinite
    n = len(r)
    x_x, x_y = start.x, start.y
    y_x = y_y = 0.0
    for i in range(n):
        try:
            u, height, _ = foot(epsilon, x_x, x_y, tol)
        except NumericalFailureError as exc:
            return i, PlanePoint(x_x, x_y), str(exc)
        if not (isfinite(u) and isfinite(height)):
            PlanePoint(u, height)  # raises the error the generic loop raises here
        r[i] = hypot(x_x - u, x_y - 0.0)  # d(x, x_next)
        b_arr[i] = hypot(u - x_x, height - x_y)  # d(y, x)
        a_arr[i + 1] = hypot(u - u, 0.0 - height)  # d(x_next, y)
        if i:
            s_arr[i] = hypot(y_x - u, y_y - height)  # d(y_prev, y)
        y_x, y_y = u, height
        if (i + 1) % stride <= 1 or i + 1 == n:
            point_indices.append(i + 1)
            points.append(PlanePoint(u, 0.0))
        x_x, x_y = u, 0.0
    return n, None, None


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


def two_set_diagnostics(trace: Trace) -> TwoSetReport:
    """Verify the interleaved step-size inequalities of a two-set trace.

    Checks, for n >= 1: the nonexpansiveness chain s_n >= r_n >= s_{n+1},
    the set-gap chain a_n >= b_n >= a_{n+1}, the energy bound
    r_n^2 <= b_n^2 - a_{n+1}^2, monotonicity of r, and the summed bound
    sum_{n>=1} r_n^2 <= b_1^2, each within its slack above.
    """
    if trace.k != 2:
        raise ValueError(f"two-set diagnostics need a 2-set trace, got k={trace.k}")
    n = trace.completed
    r, s, a, b = trace.r, trace.s, trace.a, trace.b
    inf = math.inf

    margins_step = [inf]
    margins_gap = [inf]
    margins_energy = [inf]
    if n >= 2:
        # valid ranges: s[1..n-1], a[1..n], b[0..n-1], r[0..n-1]
        margins_step.append(float(np.min(s[1:n] - r[1:n])))
        margins_gap.append(float(np.min(a[1:n] - b[1:n])))
        margins_gap.append(float(np.min(b[1:n] - a[2 : n + 1])))
        margins_energy.append(float(np.min(b[1:n] ** 2 - a[2 : n + 1] ** 2 - r[1:n] ** 2)))
    if n >= 3:
        margins_step.append(float(np.min(r[1 : n - 1] - s[2:n])))

    step_margin = min(margins_step)
    gap_margin = min(margins_gap)
    energy_margin = min(margins_energy)
    mono_margin = float(np.min(r[:-1] - r[1:])) if n >= 2 else inf

    sum_r_sq = float(np.sum(r[1:n] ** 2)) if n >= 2 else 0.0
    b1_sq = float(b[1] ** 2) if n >= 2 else inf
    sum_margin = b1_sq + SUM_SLACK - sum_r_sq

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
        sum_ok=sum_margin >= 0.0,
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
    """Least-squares slope of log r_n against log n over an index window."""
    lo, hi = window
    if lo < 1 or hi <= lo:
        raise ValueError(f"window must satisfy 1 <= lo < hi, got {window!r}")
    hi = min(hi, trace.completed - 1)
    if hi <= lo:
        raise ValueError(f"window {window!r} lies outside the trace (n={trace.completed})")
    idx = np.arange(lo, hi + 1)
    values = trace.r[lo : hi + 1]
    positive = values > 0.0
    zeros = int(np.count_nonzero(~positive))
    if zeros:
        warnings.warn(f"rate_fit: excluded {zeros} zero step(s) from the window")
    idx, values = idx[positive], values[positive]
    if len(idx) < 2:
        raise ValueError("not enough positive steps in the window to fit a rate")
    slope, intercept = np.polyfit(np.log(idx), np.log(values), 1)
    return RateFit(float(slope), float(intercept), int(len(idx)), zeros)


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
    rate_slope: float | None = None


_R_TOL = 1e-6
_TAIL_FRACTION = 0.2
_MONO_SLACK = 1e-12
_FLAT_REL_TOL = 1e-6


def verdict(trace: Trace) -> RegularityVerdict:
    """Classify a trace as Regular, NotRegular, or Inconclusive.

    The tail is the last ``_TAIL_FRACTION`` of the steps r_1, r_2, ....
    Regular: the final step is below ``_R_TOL`` and the tail is
    non-increasing (within ``_MONO_SLACK``).  NotRegular: every tail step
    exceeds ``10 * _R_TOL`` and the tail is flat to relative
    ``_FLAT_REL_TOL`` -- evidence of a positive liminf, whose estimate is
    the tail minimum.
    """
    if trace.completed == 0:
        raise ValueError("cannot classify an empty trace")
    rs = trace.r[1:] if trace.completed >= 2 else trace.r
    tail_len = max(1, math.ceil(_TAIL_FRACTION * len(rs)))
    tail = rs[-tail_len:]
    tail_min = float(np.min(tail))
    tail_max = float(np.max(tail))
    final_r = float(rs[-1])

    slope: float | None = None
    if len(tail) >= 10 and tail_min > 0.0:
        first_idx = trace.completed - len(tail)
        idx = np.arange(first_idx, trace.completed, dtype=float)
        slope = float(np.polyfit(np.log(idx), np.log(tail), 1)[0])

    non_increasing = bool(np.all(np.diff(tail) <= _MONO_SLACK)) if len(tail) >= 2 else True
    if final_r < _R_TOL and non_increasing:
        cls = "Regular"
    elif tail_min >= 10.0 * _R_TOL and tail_max - tail_min <= _FLAT_REL_TOL * tail_max:
        cls = "NotRegular"
    else:
        cls = "Inconclusive"
    return RegularityVerdict(cls, final_r, tail_min, slope)
