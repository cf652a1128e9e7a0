"""Parity of ``project`` onto an ``Epigraph`` with a frozen copy of its one-foot solver.

The functions below are the epigraph solve as it stood when each call solved
a single foot: the stationarity function, the geometric bracket and the
float core ``_epigraph_foot``, with their constants written in.  One rule is
newer than that solver and is written into ``epigraph_foot``: a start whose
own power x0**(-epsilon) overflows reads it as +inf, as ``Epigraph`` does, so
the start lies outside the set and its foot is bracketed from u = 1.  Over a grid
of epsilons and points, the projection must give the same repr of the
foot and the distance and the same solver tag, or raise the same exception
type with the same message.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from cycproj import Epigraph, NumericalFailureError, Plane, PlanePoint, project
from test_engine import KERNEL_STARTS

TOL = 1e-12
MAX_DOUBLINGS = 200
MAX_NEWTON = 200
EPSILONS = [0.01, 0.25, 0.5, 1.0, 2.0]


def stationarity(epsilon, x0, y0, base, d):
    u = base + d
    e = u ** (-epsilon)
    k = epsilon * e / u
    tail = 1.0 + e - y0
    g = (d - (x0 - base)) - k * tail
    gp = 1.0 + (epsilon + 1.0) * (k / u) * tail + k * k
    return g, gp


def geometric_bracket(epsilon, x0, y0):
    g1, _ = stationarity(epsilon, x0, y0, 0.0, 1.0)
    lo = hi = 1.0
    if g1 < 0.0:
        for _ in range(MAX_DOUBLINGS):
            lo = hi
            hi *= 2.0
            g, _ = stationarity(epsilon, x0, y0, 0.0, hi)
            if g >= 0.0:
                break
        else:
            raise NumericalFailureError(
                f"failed to bracket the epigraph foot from ({x0!r}, {y0!r}), "
                f"epsilon={epsilon!r}: no sign change within {MAX_DOUBLINGS} doublings"
            )
    elif g1 > 0.0:
        for _ in range(MAX_DOUBLINGS):
            hi = lo
            lo *= 0.5
            g, _ = stationarity(epsilon, x0, y0, 0.0, lo)
            if g <= 0.0:
                break
        else:
            raise NumericalFailureError(
                f"failed to bracket the epigraph foot from ({x0!r}, {y0!r}), "
                f"epsilon={epsilon!r}: no sign change within {MAX_DOUBLINGS} halvings"
            )
    return lo, hi


def epigraph_foot(epsilon, x0, y0):
    try:  # the newer rule: an overflowing power reads +inf
        power = x0 ** (-epsilon) if x0 > 0.0 else 0.0
    except OverflowError:
        power = math.inf
    if x0 > 0.0 and y0 >= 1.0 + power:
        return x0, y0, "closed_form"

    h0 = math.inf
    if x0 > 0.0 and power < math.inf:
        g, gp = stationarity(epsilon, x0, y0, x0, 0.0)
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
        lo, hi = geometric_bracket(epsilon, x0, y0)
        d = 0.5 * (lo + hi)
        g, gp = stationarity(epsilon, x0, y0, base, d)

    scale = max(1.0, abs(x0), abs(y0))
    for _ in range(MAX_NEWTON):
        if abs(g) <= TOL * scale:
            break
        if g > 0.0:
            hi = d
        else:
            lo = d
        d_next = d - g / gp
        if not (lo < d_next < hi):
            d_next = 0.5 * (lo + hi)
        d = d_next
        g, gp = stationarity(epsilon, x0, y0, base, d)
    else:
        raise NumericalFailureError(
            f"epigraph Newton failed to converge from ({x0!r}, {y0!r}), epsilon={epsilon!r}"
        )
    d -= g / gp
    u = base + d
    return u, 1.0 + u ** (-epsilon), "newton"


def reference_projection(epsilon, x):
    """(repr of the foot, repr of the distance, solver tag), as the one-foot solver gave them."""
    u, height, solver = epigraph_foot(epsilon, x.x, x.y)
    if solver == "closed_form":
        return repr(x), repr(0.0), solver
    foot = PlanePoint(u, height)
    return repr(foot), repr(math.hypot(u - x.x, height - x.y)), solver


def shipped_projection(epsilon, x):
    result = project(Plane(), Epigraph(epsilon), x)
    return repr(result.point), repr(result.distance), result.solver


def outcome(solve, epsilon, x):
    try:
        return solve(epsilon, x)
    except Exception as exc:  # the two solvers must raise alike, too
        return ("raised", type(exc), str(exc))


def grid_points():
    rng = np.random.default_rng(20211)
    scattered = [(float(x), float(y)) for x, y in rng.uniform(-5.0, 5.0, size=(2000, 2))]
    on_axis = [(float(x), 0.0) for x in np.logspace(-3.0, 6.0, 181)]
    return scattered + on_axis + list(KERNEL_STARTS)


@pytest.mark.parametrize("eps", EPSILONS)
def test_project_epigraph_matches_the_one_foot_solver(eps):
    raised = set()
    for xy in grid_points():
        x = PlanePoint(*xy)
        expected = outcome(reference_projection, eps, x)
        assert outcome(shipped_projection, eps, x) == expected, xy
        if expected[0] == "raised":
            raised.add(expected[1])
    # the grid reaches the failure paths, not only converged feet
    assert NumericalFailureError in raised
