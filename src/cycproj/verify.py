"""Randomized invariant suites, shared by the CLI and the test suite.

Each check measures a worst-case error over seeded random samples and
compares it against a fixed tolerance; results carry the seed so any
failure is reproducible from the printed line alone.

Suites:

* ``metric`` -- metric axioms, constant-speed geodesics, tree gluing,
  CN-inequality margins, chain representative independence.
* ``projections`` -- idempotence, nonexpansiveness, optimality against
  in-set samples, the obtuse-angle condition at the foot, and agreement
  of the exact and generic segment projectors.
* ``two-set`` -- the interleaved step-size inequalities on the two-set
  scenarios; the two lines contract by 1/2 and end Regular.
* ``counterexamples`` -- the tripod's isometry, orientation, end-swap and
  involution certificates; the twisted chain's rotation, power-step and
  NotRegular-power certificates.

Each check seeds its own ``_Stream`` and draws its samples in a fixed order.
The stream gives ``numpy.random.default_rng(seed)``'s values bit for bit but
reads the PCG64 words 1024 at a time; no check hands its stream on, so the
words read ahead are never drawn by another.  Scalar uniforms come from
``_uniform``, which is bitwise ``rng.uniform(lo, hi)`` computed from
``rng.random()``.  The samplers take a numpy ``Generator`` as well.

The ``metric`` and ``projections`` suites run as parts: a part is one check
on one space, or one property on one projection target, a function of the
seed alone.  ``_run_parts`` runs them in a pool of one worker per CPU this
process may use (``os.sched_getaffinity``) and returns their results in
order; a labelled worst then takes the earliest of equal targets, so every
result is bitwise that of one pass.  Workers are forked: they see the module
as the caller has it, patched sample counts included, and import nothing
again (the parts call no BLAS, whose threads are the process's only others).
``two-set`` and ``counterexamples`` are too short to gain and run in-process.
"""

from __future__ import annotations

import itertools
import math
import os
import signal
from dataclasses import dataclass
from functools import partial

import numpy as np

from .engine import (CHAIN_SLACK, ENERGY_SLACK, SUM_SLACK, cycle_apply, iterate,
                     two_set_diagnostics, verdict)
from .projections import (
    AxisLine,
    CrossDisc,
    Epigraph,
    Segment,
    project,
    project_segment_generic,
    project_segment_tree_exact,
    set_distance,
)
from .scenarios import (
    build_plane_two_lines,
    build_plane_two_sets,
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
    cn_check,
    comparison_angle,
)

__all__ = ["CheckResult", "SUITES", "run_suite", "suite_names"]

_METRIC_SAMPLES = 10_000     # random tuples per metric check
_PROJECTION_PAIRS = 10_000   # random pairs per projection target
_PROJECTION_INPUTS = 1_000   # random points per projection target
_TRIPOD_SAMPLES = 50         # points along each segment
_CHAIN_SAMPLES = 20          # random points of the bottom disc
_CHAIN_POWERS = 20           # cycle powers P^m checked, m = 1.._CHAIN_POWERS


@dataclass(frozen=True)
class CheckResult:
    """One invariant check: worst measured error against its tolerance."""

    name: str
    passed: bool
    worst: float
    tol: float
    seed: int | None = None
    detail: str = ""

    def line(self) -> str:
        status = "ok  " if self.passed else "FAIL"
        seed = f" seed={self.seed}" if self.seed is not None else ""
        detail = f" ({self.detail})" if self.detail else ""
        return f"{status} {self.name}: worst={self.worst:.3e} tol={self.tol:.1e}{seed}{detail}"


# ---------------------------------------------------------------------------
# Random samplers


class _Stream:
    """``np.random.default_rng(seed)``'s ``random()`` and ``integers(k)``, bit for bit.

    The PCG64 words are read 1024 at a time as Python ints, which spares the
    numpy call of each draw.  A double is ``next_double``: the word's top 53
    bits times 2**-53.  ``integers(k)`` is numpy's Lemire draw on 32-bit
    halves: a word gives its low half and keeps the high half for the next
    integer draw (a double never takes it), and a product whose low 32 bits
    fall below ``(2**32 - k) % k`` is rejected.  Its ``k`` lies in [1, 2**32].
    """

    __slots__ = ("_word", "_half")

    def __init__(self, seed: int):
        bits = np.random.PCG64(seed)
        blocks = iter(lambda: bits.random_raw(1024).tolist(), None)
        self._word = itertools.chain.from_iterable(blocks).__next__
        self._half = None

    def random(self) -> float:
        return (self._word() >> 11) * 2.0**-53

    def integers(self, k: int) -> int:
        if not 1 <= k <= 1 << 32:
            raise ValueError(f"integers(k) needs 1 <= k <= 2**32, got {k}")
        if k == 1:
            return 0  # numpy draws nothing for a single value
        threshold = ((1 << 32) - k) % k
        while True:
            if self._half is None:
                word = self._word()
                self._half, m = word >> 32, (word & 0xFFFFFFFF) * k
            else:
                self._half, m = None, self._half * k
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32


def _uniform(rng, lo: float, hi: float) -> float:
    """``rng.uniform(lo, hi)`` bit for bit: numpy computes that as ``lo + (hi - lo) * d``
    with d the stream's next double, the value ``rng.random()`` returns."""
    return lo + (hi - lo) * rng.random()


def _disc_coords(rng, radius: float) -> tuple[float, float]:
    """Disc coordinates (u, v) of a uniform point: the radius draw, then the angle."""
    rad = radius * math.sqrt(_uniform(rng, 0.0, 1.0))
    ang = _uniform(rng, 0.0, 2.0 * math.pi)
    return rad * math.cos(ang), rad * math.sin(ang)


def _plane_point(rng, space=None) -> PlanePoint:
    return PlanePoint(_uniform(rng, -5.0, 5.0), _uniform(rng, -5.0, 5.0))


def _star_point(rng, tree: StarTree) -> StarPoint:
    leg = int(rng.integers(tree.leg_count))
    return StarPoint(leg, _uniform(rng, 0.0, tree.leg_lengths[leg]))


def _product_point(rng, space: ProductSpace) -> ProductPoint:
    return ProductPoint(_star_point(rng, space.left), _star_point(rng, space.right))


def _chain_point(rng, chain: TwistedChain) -> ChainPoint:
    return ChainPoint(*_disc_coords(rng, chain.radius), _uniform(rng, 0.0, chain.circumference))


def _spaces_with_samplers():
    tree_product = ProductSpace(StarTree.unit(3), StarTree.unit(3))
    chain = TwistedChain(radius=0.1, circumference=3.0, twist=1.0)
    return [
        ("plane", Plane(), _plane_point),
        ("star-tree", StarTree.unit(3), _star_point),
        ("tree-product", tree_product, _product_point),
        ("chain", chain, _chain_point),
    ]


# ---------------------------------------------------------------------------
# Metric suite


def _metric_axioms(seed: int, index: int) -> list[CheckResult]:
    label, space, sampler = _spaces_with_samplers()[index]
    rng = _Stream(seed)
    worst_sym = 0.0
    worst_tri = 0.0
    for _ in range(_METRIC_SAMPLES):
        p, q, z = sampler(rng, space), sampler(rng, space), sampler(rng, space)
        dpq, dqp = space.distance(p, q), space.distance(q, p)
        worst_sym = max(worst_sym, abs(dpq - dqp))
        worst_tri = max(worst_tri, space.distance(p, z) - dpq - space.distance(q, z))
    return [CheckResult(f"metric-symmetry[{label}]", worst_sym == 0.0, worst_sym, 0.0, seed),
            CheckResult(f"metric-triangle[{label}]", worst_tri <= 1e-12,
                        worst_tri, 1e-12, seed)]


def _constant_speed(seed: int, index: int) -> list[CheckResult]:
    label, space, sampler = _spaces_with_samplers()[index]
    rng = _Stream(seed + 1)
    worst = 0.0
    for _ in range(_METRIC_SAMPLES):
        p, q = sampler(rng, space), sampler(rng, space)
        t1, t2 = sorted((rng.random(), rng.random()))
        g1, g2 = space.geodesic(p, q, t1), space.geodesic(p, q, t2)
        worst = max(worst, abs(space.distance(g1, g2) - (t2 - t1) * space.distance(p, q)))
    return [CheckResult(f"constant-speed[{label}]", worst <= 1e-12, worst, 1e-12, seed + 1)]


def _star_gluing(seed: int) -> list[CheckResult]:
    tree = StarTree.unit(3)
    rng = _Stream(seed + 2)
    worst = 0.0
    for _ in range(_METRIC_SAMPLES):
        p, q = _star_point(rng, tree), _star_point(rng, tree)
        if p.leg == q.leg:
            continue
        direct = tree.distance(p, q)
        through = tree.distance(p, tree.center) + tree.distance(tree.center, q)
        worst = max(worst, abs(direct - through))
    return [CheckResult("star-gluing", worst == 0.0, worst, 0.0, seed + 2)]


def _cn_margin(seed: int, index: int) -> list[CheckResult]:
    label, space, sampler = _spaces_with_samplers()[index]
    rng = _Stream(seed + 3)
    worst = 0.0
    for _ in range(_METRIC_SAMPLES):
        x, y, z = sampler(rng, space), sampler(rng, space), sampler(rng, space)
        worst = min(worst, cn_check(space, x, y, z))
    return [CheckResult(f"cn-margin[{label}]", worst >= -1e-12, -worst, 1e-12, seed + 3,
                        detail="worst negative CN margin")]


def _chain_representatives(seed: int) -> list[CheckResult]:
    chain = TwistedChain(radius=0.1, circumference=3.0, twist=1.0)
    rng = _Stream(seed + 4)
    worst = 0.0
    c, s = math.cos(chain.twist), math.sin(chain.twist)
    for _ in range(_METRIC_SAMPLES):
        p, q = _chain_point(rng, chain), _chain_point(rng, chain)
        # Another representative of q: one loop up, disc carried by the holonomy.
        q2 = chain.point(c * q.u - s * q.v, s * q.u + c * q.v,
                         q.height + chain.circumference)
        worst = max(worst, abs(chain.distance(p, q) - chain.distance(p, q2)))
    return [CheckResult("chain-representative-independence", worst < 1e-12,
                        worst, 1e-12, seed + 4)]


def suite_metric(seed: int = 0) -> list[CheckResult]:
    spaces = _spaces_with_samplers()
    parts = [
        *(partial(_metric_axioms, index=i) for i in range(len(spaces))),
        *(partial(_constant_speed, index=i)
          for i, (_, space, _) in enumerate(spaces) if hasattr(space, "geodesic")),
        _star_gluing,
        # the CN suites of record are the plane and the product
        *(partial(_cn_margin, index=i)
          for i, (label, _, _) in enumerate(spaces) if label not in ("star-tree", "chain")),
        _chain_representatives,
    ]
    return [check for checks in _run_parts(parts, seed) for check in checks]


# ---------------------------------------------------------------------------
# Projection suite


def _in_set_sample(rng, space, cset):
    if isinstance(cset, Segment):
        return space.geodesic(cset.start, cset.end, _uniform(rng, 0.0, 1.0))
    if isinstance(cset, AxisLine):
        return PlanePoint(_uniform(rng, -8.0, 8.0), 0.0)
    if isinstance(cset, Epigraph):
        u = math.exp(_uniform(rng, math.log(0.05), math.log(20.0)))
        lift = _uniform(rng, 0.0, 3.0) if rng.random() < 0.5 else 0.0
        return PlanePoint(u, cset.boundary_height(u) + lift)
    if isinstance(cset, CrossDisc):
        return ChainPoint(*_disc_coords(rng, space.radius), space.disc_heights[cset.disc_index])
    raise TypeError(type(cset).__name__)


def _chain_band_sampler(disc_height: float):
    """Sampler of chain points within half a loop of one disc, minus a margin.

    The chain quotient is only locally CAT(0): at heights half a loop away
    from a disc the two nearest lifts tie and the disc projection map is
    discontinuous (the full construction resolves this outside this model).
    Inside the band the projection is the single-chart orthogonal drop, so
    the CAT(0) projection properties hold there.
    """

    def sample(rng, chain: TwistedChain) -> ChainPoint:
        band = chain.circumference / 2.0 - 3.0 * chain.radius
        return chain.point(*_disc_coords(rng, chain.radius),
                           disc_height + _uniform(rng, -band, band))

    return sample


def _projection_targets(rng):
    """(label, space, set, ambient sampler) tuples for the property checks."""
    plane = Plane()
    tripod = build_tripod_counterexample(3)
    product = tripod.space
    chain = TwistedChain(radius=0.1, circumference=3.0, twist=1.0)

    plane_seg = Segment(_plane_point(rng), _plane_point(rng))
    random_tree_seg = Segment(
        ProductPoint(StarPoint(0, 0.15), StarPoint(2, 0.2)),
        ProductPoint(StarPoint(0, 0.9), StarPoint(2, 0.75)),
    )
    targets = [
        ("plane-segment", plane, plane_seg, _plane_point),
        ("axis", plane, AxisLine(), _plane_point),
        ("tripod-segment", product, tripod.sets[0], _product_point),
        ("tree-segment", product, random_tree_seg, _product_point),
    ]
    for eps in (0.25, 0.5, 1.0):
        targets.append((f"epigraph[{eps}]", plane, Epigraph(eps), _plane_point))
    for i in range(3):
        targets.append((f"cross-disc[{i}]", chain, CrossDisc(i),
                        _chain_band_sampler(chain.disc_heights[i])))
    return targets


def _idempotence(seed: int, index: int) -> float:
    _, space, cset, sampler = _projection_targets(_Stream(seed + 100))[index]
    rng = _Stream(seed)
    worst = 0.0
    for _ in range(_PROJECTION_INPUTS):
        x = sampler(rng, space)
        px = project(space, cset, x).point
        worst = max(worst, space.distance(project(space, cset, px).point, px))
    return worst


def _nonexpansion(seed: int, index: int) -> float:
    _, space, cset, sampler = _projection_targets(_Stream(seed + 100))[index]
    rng = _Stream(seed + 1)
    worst = 0.0
    for _ in range(_PROJECTION_PAIRS):
        x, y = sampler(rng, space), sampler(rng, space)
        worst = max(worst, space.distance(project(space, cset, x).point,
                                          project(space, cset, y).point)
                    - space.distance(x, y))
    return worst


def _optimality(seed: int, index: int) -> tuple[float, float]:
    """Worst optimality gap and worst angle defect at the foot, for one target."""
    _, space, cset, sampler = _projection_targets(_Stream(seed + 100))[index]
    rng = _Stream(seed + 2)
    worst_opt = 0.0
    worst_angle_defect = 0.0
    for _ in range(20):
        x = sampler(rng, space)
        res = project(space, cset, x)
        for _ in range(100):
            c = _in_set_sample(rng, space, cset)
            worst_opt = max(worst_opt, res.distance - space.distance(x, c))
            if res.distance > 1e-9:
                d_pc = space.distance(res.point, c)
                if d_pc > 1e-9:
                    ang = comparison_angle(res.distance, d_pc, space.distance(x, c))
                    worst_angle_defect = max(worst_angle_defect, math.pi / 2.0 - ang)
    return worst_opt, worst_angle_defect


def _exact_vs_generic(seed: int) -> float:
    # one part: the three segments draw from one generator in turn
    tripod = build_tripod_counterexample(3)
    product = tripod.space
    worst = 0.0
    rng = _Stream(seed + 3)
    for cset in tripod.sets[:3]:
        for _ in range(_PROJECTION_INPUTS // 2):
            x = _product_point(rng, product)
            exact = project_segment_tree_exact(product, cset, x)
            generic = project_segment_generic(product, cset, x)
            worst = max(worst, product.distance(exact.point, generic.point))
    return worst


def _labelled_worst(worsts: list[float], labels: list[str]) -> tuple[float, str]:
    """The largest positive worst and its label; the earliest label wins a tie."""
    worst, at = 0.0, ""
    for value, label in zip(worsts, labels):
        if value > worst:
            worst, at = value, label
    return worst, at


def suite_projections(seed: int = 0) -> list[CheckResult]:
    labels = [label for label, *_ in _projection_targets(_Stream(seed + 100))]
    n = len(labels)
    # the longest part first, so no worker is left with it at the end
    worst_agree, *results = _run_parts([_exact_vs_generic] + [
        partial(check, index=i)
        for check in (_idempotence, _nonexpansion, _optimality) for i in range(n)], seed)
    worst_idem, worst_idem_at = _labelled_worst(results[:n], labels)
    worst_lip, worst_lip_at = _labelled_worst(results[n:2 * n], labels)
    worst_opt = max(0.0, *(opt for opt, _ in results[2 * n:]))
    worst_angle_defect = max(0.0, *(defect for _, defect in results[2 * n:]))
    return [
        CheckResult("projection-idempotence", worst_idem <= 1e-9,
                    worst_idem, 1e-9, seed, detail=worst_idem_at),
        CheckResult("projection-nonexpansive", worst_lip <= 1e-9,
                    worst_lip, 1e-9, seed + 1, detail=worst_lip_at),
        CheckResult("projection-optimality", worst_opt <= 1e-9, worst_opt, 1e-9, seed + 2),
        CheckResult("projection-obtuse-angle", worst_angle_defect <= 1e-6,
                    worst_angle_defect, 1e-6, seed + 2, detail="max(pi/2 - angle at foot)"),
        CheckResult("exact-vs-generic-agreement", worst_agree <= 1e-7,
                    worst_agree, 1e-7, seed + 3),
    ]


# ---------------------------------------------------------------------------
# Two-set suite


def _two_set_checks(prefix: str, trace, label: str) -> list[CheckResult]:
    """The five two-set inequality checks of ``trace``, named ``prefix-*``."""
    report = two_set_diagnostics(trace)
    return [
        CheckResult(f"{prefix}-step-chain", report.step_chain_ok, -report.step_chain_margin,
                    CHAIN_SLACK, detail=f"s/r interleaving, {label}"),
        CheckResult(f"{prefix}-gap-chain", report.gap_chain_ok, -report.gap_chain_margin,
                    CHAIN_SLACK, detail="a/b interleaving"),
        CheckResult(f"{prefix}-energy", report.energy_ok, -report.energy_margin,
                    ENERGY_SLACK, detail="r_n^2 <= b_n^2 - a_{n+1}^2"),
        CheckResult(f"{prefix}-monotone", report.monotone_ok, -report.monotone_margin,
                    CHAIN_SLACK),
        CheckResult(f"{prefix}-energy-sum", report.sum_ok, report.sum_r_sq - report.b1_sq,
                    SUM_SLACK, detail="sum r_n^2 - b_1^2"),
    ]


def suite_two_set(seed: int = 0) -> list[CheckResult]:
    scenario = build_plane_two_sets(0.5)
    trace = iterate(scenario.space, scenario.sets, scenario.start(), 10_000)
    checks = _two_set_checks("two-set", trace, "plane-two-sets(0.5)")

    lines = build_plane_two_lines(math.pi / 4.0)
    trace = iterate(lines.space, lines.sets, lines.start(), 50)
    checks += _two_set_checks("two-lines", trace, "two-lines(pi/4)")
    ratios = trace.r[1:] / trace.r[:-1]
    worst_ratio = float(np.max(np.abs(ratios - 0.5)))
    checks.append(CheckResult("two-lines-geometric-ratio", worst_ratio <= 1e-9,
                              worst_ratio, 1e-9, detail="|r_{n+1}/r_n - 1/2|"))
    regular = verdict(trace).classification == "Regular"
    checks.append(CheckResult("two-lines-regular", regular, 0.0 if regular else 1.0, 0.0,
                              detail="1 if the verdict is not Regular"))
    return checks


# ---------------------------------------------------------------------------
# Counterexample suite


def tripod_certificates() -> list[CheckResult]:
    """Isometry, orientation, involution, and disjointness certificates."""
    scenario = build_tripod_counterexample(3)
    space = scenario.space
    c1, c2, c3 = scenario.sets[:3]
    checks: list[CheckResult] = []

    # P_i maps C_{i+1} onto C_i (cyclically); parameters map with slope -1.
    worst_iso = 0.0
    worst_slope = 0.0
    pairs = [(c2, c1), (c3, c2), (c1, c3)]
    for source, target in pairs:
        params = np.linspace(0.0, 1.0, _TRIPOD_SAMPLES)
        for i in range(_TRIPOD_SAMPLES - 1):
            t0, t1 = float(params[i]), float(params[i + 1])
            x0 = space.geodesic(source.start, source.end, t0)
            x1 = space.geodesic(source.start, source.end, t1)
            p0 = project(space, target, x0)
            p1 = project(space, target, x1)
            worst_iso = max(worst_iso, abs(space.distance(p0.point, p1.point)
                                           - space.distance(x0, x1)))
            # parameter of the image on the target segment
            u0 = space.distance(target.start, p0.point)
            u1 = space.distance(target.start, p1.point)
            slope = (u1 - u0) / (t1 - t0)
            worst_slope = max(worst_slope, abs(slope + 1.0))
    checks.append(CheckResult("tripod-projection-isometry", worst_iso <= 1e-9,
                              worst_iso, 1e-9))
    checks.append(CheckResult("tripod-orientation-reversal", worst_slope <= 1e-9,
                              worst_slope, 1e-9, detail="parameter slope vs -1"))

    def cycle(x):
        return cycle_apply(space, scenario.sets, x)[0]

    # The full cycle swaps the ends of the first segment, so r_n = 1 forever.
    mid = space.geodesic(c1.start, c1.end, 0.5)
    worst_swap = max(space.distance(cycle(c1.start), c1.end),
                     space.distance(cycle(c1.end), c1.start),
                     space.distance(cycle(mid), mid))
    checks.append(CheckResult("tripod-cycle-swaps-ends", worst_swap <= 1e-9,
                              worst_swap, 1e-9, detail="P swaps the ends and fixes the midpoint"))

    # The full cycle is an involution on the first segment.
    worst_invol = 0.0
    for t in np.linspace(0.0, 1.0, 20):
        x = space.geodesic(c1.start, c1.end, float(t))
        worst_invol = max(worst_invol, space.distance(x, cycle(cycle(x))))
    checks.append(CheckResult("tripod-cycle-involution", worst_invol <= 1e-9,
                              worst_invol, 1e-9, detail="P(P(x)) = x on the first segment"))

    worst_gap = 0.0
    for a, b in ((c1, c2), (c2, c3), (c1, c3)):
        worst_gap = max(worst_gap, abs(set_distance(space, a, b) - math.sqrt(2.0)))
    checks.append(CheckResult("tripod-pairwise-distance", worst_gap <= 1e-6,
                              worst_gap, 1e-6, detail="|set gap - sqrt(2)|"))
    return checks


def chain_certificates() -> list[CheckResult]:
    """Rotation certificates for the twisted-chain cycle."""
    scenario = build_twisted_chain(alpha=1.0, radius=0.1, circumference=3.0)
    chain = scenario.space
    alpha = scenario.params["alpha"]
    checks: list[CheckResult] = []

    worst_rot = 0.0
    rng = _Stream(7)
    c, s = math.cos(alpha), math.sin(alpha)
    for _ in range(_CHAIN_SAMPLES):
        u, v = _disc_coords(rng, chain.radius)
        y, _ = cycle_apply(chain, scenario.sets, ChainPoint(u, v, 0.0))
        # the expected image is (u, v) rotated by alpha, at height 0
        worst_rot = max(worst_rot, math.hypot(y.u - (c * u - s * v), y.v - (s * u + c * v)),
                        abs(y.height))
    checks.append(CheckResult("chain-cycle-rotation", worst_rot <= 1e-12,
                              worst_rot, 1e-12,
                              detail="one cycle = rotation by alpha on the bottom disc"))

    worst_step = 0.0
    not_stalled = 0
    start = scenario.start("boundary")
    for m in range(1, _CHAIN_POWERS + 1):
        sets_m = scenario.sets * m
        trace = iterate(chain, sets_m, start, 40)
        target = 2.0 * chain.radius * abs(math.sin(m * alpha / 2.0))
        worst_step = max(worst_step, float(np.max(np.abs(trace.r - target))))
        not_stalled += verdict(trace).classification != "NotRegular"
    checks.append(CheckResult("chain-power-steps", worst_step <= 1e-9,
                              worst_step, 1e-9,
                              detail="P^m steps vs 2 r |sin(m alpha / 2)|, m <= 20"))
    checks.append(CheckResult("chain-power-not-regular", not_stalled == 0,
                              float(not_stalled), 0.0,
                              detail="powers P^m, m <= 20, whose verdict is not NotRegular"))
    return checks


def suite_counterexamples(seed: int = 0) -> list[CheckResult]:
    return tripod_certificates() + chain_certificates()


# ---------------------------------------------------------------------------
# Entry points

def fork_map(workers: int, fn, *iterables) -> list:
    """``list(map(fn, *iterables))`` in ``workers`` forked processes, joined before it ends.

    A worker dies on an interrupt and breaks the pool, so the caller never waits on the rest."""
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    with ProcessPoolExecutor(workers, mp_context=get_context("fork"), initializer=signal.signal,
                             initargs=(signal.SIGINT, signal.SIG_DFL)) as pool:
        return list(pool.map(fn, *iterables))


def _call(part, seed: int):
    return part(seed)


def _run_parts(parts: list, seed: int) -> list:
    """``[part(seed) for part in parts]``, one worker per CPU this process may use."""
    workers = min(len(parts), len(os.sched_getaffinity(0)))
    return fork_map(workers, _call, parts, [seed] * len(parts))


SUITES = {
    "metric": suite_metric,
    "projections": suite_projections,
    "two-set": suite_two_set,
    "counterexamples": suite_counterexamples,
}


def suite_names() -> list[str]:
    return [*SUITES, "all"]


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    if name == "all":
        results: list[CheckResult] = []
        for suite in SUITES.values():
            results.extend(suite(seed))
        return results
    try:
        suite = SUITES[name]
    except KeyError:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(suite_names())}") from None
    return suite(seed)
