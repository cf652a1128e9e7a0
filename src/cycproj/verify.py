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
  scenarios.
* ``counterexamples`` -- the isometry/orientation certificates of the
  tripod configuration and the rotation certificates of the twisted chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import CHAIN_SLACK, ENERGY_SLACK, SUM_SLACK, cycle_apply, iterate, two_set_diagnostics
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


def _plane_point(rng, space=None) -> PlanePoint:
    return PlanePoint(float(rng.uniform(-5.0, 5.0)), float(rng.uniform(-5.0, 5.0)))


def _star_point(rng, tree: StarTree) -> StarPoint:
    leg = int(rng.integers(tree.leg_count))
    return StarPoint(leg, float(rng.uniform(0.0, tree.leg_lengths[leg])))


def _product_point(rng, space: ProductSpace) -> ProductPoint:
    return ProductPoint(_star_point(rng, space.left), _star_point(rng, space.right))


def _chain_point(rng, chain: TwistedChain) -> ChainPoint:
    rad = chain.radius * math.sqrt(float(rng.uniform(0.0, 1.0)))
    ang = float(rng.uniform(0.0, 2.0 * math.pi))
    return ChainPoint(rad * math.cos(ang), rad * math.sin(ang),
                      float(rng.uniform(0.0, chain.circumference)))


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


def suite_metric(seed: int = 0) -> list[CheckResult]:
    checks: list[CheckResult] = []

    for label, space, sampler in _spaces_with_samplers():
        rng = np.random.default_rng(seed)
        worst_sym = 0.0
        worst_tri = 0.0
        for _ in range(_METRIC_SAMPLES):
            p, q, z = sampler(rng, space), sampler(rng, space), sampler(rng, space)
            dpq, dqp = space.distance(p, q), space.distance(q, p)
            worst_sym = max(worst_sym, abs(dpq - dqp))
            worst_tri = max(worst_tri, space.distance(p, z) - dpq - space.distance(q, z))
        checks.append(CheckResult(f"metric-symmetry[{label}]", worst_sym == 0.0,
                                  worst_sym, 0.0, seed))
        checks.append(CheckResult(f"metric-triangle[{label}]", worst_tri <= 1e-12,
                                  worst_tri, 1e-12, seed))

    for label, space, sampler in _spaces_with_samplers():
        if not hasattr(space, "geodesic"):
            continue
        rng = np.random.default_rng(seed + 1)
        worst = 0.0
        for _ in range(_METRIC_SAMPLES):
            p, q = sampler(rng, space), sampler(rng, space)
            t1, t2 = sorted(rng.uniform(0.0, 1.0, size=2).tolist())
            g1, g2 = space.geodesic(p, q, t1), space.geodesic(p, q, t2)
            worst = max(worst, abs(space.distance(g1, g2) - (t2 - t1) * space.distance(p, q)))
        checks.append(CheckResult(f"constant-speed[{label}]", worst <= 1e-12,
                                  worst, 1e-12, seed + 1))

    tree = StarTree.unit(3)
    rng = np.random.default_rng(seed + 2)
    worst = 0.0
    for _ in range(_METRIC_SAMPLES):
        p, q = _star_point(rng, tree), _star_point(rng, tree)
        if p.leg == q.leg:
            continue
        direct = tree.distance(p, q)
        through = tree.distance(p, tree.center) + tree.distance(tree.center, q)
        worst = max(worst, abs(direct - through))
    checks.append(CheckResult("star-gluing", worst == 0.0, worst, 0.0, seed + 2))

    for label, space, sampler in _spaces_with_samplers():
        if label in ("star-tree", "chain"):
            continue  # the CN suites of record are the plane and the product
        rng = np.random.default_rng(seed + 3)
        worst = 0.0
        for _ in range(_METRIC_SAMPLES):
            x, y, z = sampler(rng, space), sampler(rng, space), sampler(rng, space)
            worst = min(worst, cn_check(space, x, y, z))
        checks.append(CheckResult(f"cn-margin[{label}]", worst >= -1e-12,
                                  -worst, 1e-12, seed + 3,
                                  detail="worst negative CN margin"))

    chain = TwistedChain(radius=0.1, circumference=3.0, twist=1.0)
    rng = np.random.default_rng(seed + 4)
    worst = 0.0
    c, s = math.cos(chain.twist), math.sin(chain.twist)
    for _ in range(_METRIC_SAMPLES):
        p, q = _chain_point(rng, chain), _chain_point(rng, chain)
        # Another representative of q: one loop up, disc carried by the holonomy.
        q2 = chain.point(c * q.u - s * q.v, s * q.u + c * q.v,
                         q.height + chain.circumference)
        worst = max(worst, abs(chain.distance(p, q) - chain.distance(p, q2)))
    checks.append(CheckResult("chain-representative-independence", worst < 1e-12,
                              worst, 1e-12, seed + 4))

    return checks


# ---------------------------------------------------------------------------
# Projection suite


def _in_set_sample(rng, space, cset):
    if isinstance(cset, Segment):
        return space.geodesic(cset.start, cset.end, float(rng.uniform(0.0, 1.0)))
    if isinstance(cset, AxisLine):
        return PlanePoint(float(rng.uniform(-8.0, 8.0)), 0.0)
    if isinstance(cset, Epigraph):
        u = math.exp(float(rng.uniform(math.log(0.05), math.log(20.0))))
        lift = float(rng.uniform(0.0, 3.0)) if rng.uniform() < 0.5 else 0.0
        return PlanePoint(u, cset.boundary_height(u) + lift)
    if isinstance(cset, CrossDisc):
        rad = space.radius * math.sqrt(float(rng.uniform(0.0, 1.0)))
        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        return ChainPoint(rad * math.cos(ang), rad * math.sin(ang),
                          space.disc_heights[cset.disc_index])
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
        rad = chain.radius * math.sqrt(float(rng.uniform(0.0, 1.0)))
        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        return chain.point(rad * math.cos(ang), rad * math.sin(ang),
                           disc_height + float(rng.uniform(-band, band)))

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


def suite_projections(seed: int = 0) -> list[CheckResult]:
    checks: list[CheckResult] = []
    rng_sets = np.random.default_rng(seed + 100)
    targets = _projection_targets(rng_sets)

    worst_idem = 0.0
    worst_idem_at = ""
    for label, space, cset, sampler in targets:
        rng = np.random.default_rng(seed)
        for _ in range(_PROJECTION_INPUTS):
            x = sampler(rng, space)
            px = project(space, cset, x).point
            err = space.distance(project(space, cset, px).point, px)
            if err > worst_idem:
                worst_idem, worst_idem_at = err, label
    checks.append(CheckResult("projection-idempotence", worst_idem <= 1e-9,
                              worst_idem, 1e-9, seed, detail=worst_idem_at))

    worst_lip = 0.0
    worst_lip_at = ""
    for label, space, cset, sampler in targets:
        rng = np.random.default_rng(seed + 1)
        for _ in range(_PROJECTION_PAIRS):
            x, y = sampler(rng, space), sampler(rng, space)
            expansion = (space.distance(project(space, cset, x).point,
                                        project(space, cset, y).point)
                         - space.distance(x, y))
            if expansion > worst_lip:
                worst_lip, worst_lip_at = expansion, label
    checks.append(CheckResult("projection-nonexpansive", worst_lip <= 1e-9,
                              worst_lip, 1e-9, seed + 1, detail=worst_lip_at))

    worst_opt = 0.0
    worst_angle_defect = 0.0
    for label, space, cset, sampler in targets:
        rng = np.random.default_rng(seed + 2)
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
    checks.append(CheckResult("projection-optimality", worst_opt <= 1e-9,
                              worst_opt, 1e-9, seed + 2))
    checks.append(CheckResult("projection-obtuse-angle", worst_angle_defect <= 1e-6,
                              worst_angle_defect, 1e-6, seed + 2,
                              detail="max(pi/2 - angle at foot)"))

    tripod = build_tripod_counterexample(3)
    product = tripod.space
    worst_agree = 0.0
    rng = np.random.default_rng(seed + 3)
    for cset in tripod.sets[:3]:
        for _ in range(_PROJECTION_INPUTS // 2):
            x = _product_point(rng, product)
            exact = project_segment_tree_exact(product, cset, x)
            generic = project_segment_generic(product, cset, x, tol=1e-12)
            worst_agree = max(worst_agree, product.distance(exact.point, generic.point))
    checks.append(CheckResult("exact-vs-generic-agreement", worst_agree <= 1e-7,
                              worst_agree, 1e-7, seed + 3))

    return checks


# ---------------------------------------------------------------------------
# Two-set suite


def suite_two_set(seed: int = 0) -> list[CheckResult]:
    checks: list[CheckResult] = []

    scenario = build_plane_two_sets(0.5)
    trace = iterate(scenario.space, scenario.sets, scenario.start(), 10_000)
    report = two_set_diagnostics(trace)
    checks.append(CheckResult("two-set-step-chain", report.step_chain_ok,
                              -report.step_chain_margin, CHAIN_SLACK,
                              detail="s/r interleaving, plane-two-sets(0.5)"))
    checks.append(CheckResult("two-set-gap-chain", report.gap_chain_ok,
                              -report.gap_chain_margin, CHAIN_SLACK,
                              detail="a/b interleaving"))
    checks.append(CheckResult("two-set-energy", report.energy_ok,
                              -report.energy_margin, ENERGY_SLACK,
                              detail="r_n^2 <= b_n^2 - a_{n+1}^2"))
    checks.append(CheckResult("two-set-monotone", report.monotone_ok,
                              -report.monotone_margin, CHAIN_SLACK))
    checks.append(CheckResult("two-set-energy-sum", report.sum_ok,
                              report.sum_r_sq - report.b1_sq, SUM_SLACK,
                              detail="sum r_n^2 - b_1^2"))

    lines = build_plane_two_lines(math.pi / 4.0)
    trace = iterate(lines.space, lines.sets, lines.start(), 50)
    report = two_set_diagnostics(trace)
    checks.append(CheckResult("two-lines-chains", report.passed,
                              -min(report.step_chain_margin, report.gap_chain_margin,
                                   report.energy_margin), max(CHAIN_SLACK, ENERGY_SLACK)))
    ratios = trace.r[1:] / trace.r[:-1]
    worst_ratio = float(np.max(np.abs(ratios - 0.5)))
    checks.append(CheckResult("two-lines-geometric-ratio", worst_ratio <= 1e-9,
                              worst_ratio, 1e-9, detail="|r_{n+1}/r_n - 1/2|"))
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

    # The full cycle is an involution on the first segment.
    worst_invol = 0.0
    for t in np.linspace(0.0, 1.0, 20):
        x = space.geodesic(c1.start, c1.end, float(t))
        y = x
        for _ in range(2):
            y, _ = cycle_apply(space, scenario.sets, y)
        worst_invol = max(worst_invol, space.distance(x, y))
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
    rng = np.random.default_rng(7)
    for _ in range(_CHAIN_SAMPLES):
        rad = chain.radius * math.sqrt(float(rng.uniform(0.0, 1.0)))
        ang = float(rng.uniform(0.0, 2.0 * math.pi))
        x = ChainPoint(rad * math.cos(ang), rad * math.sin(ang), 0.0)
        y, _ = cycle_apply(chain, scenario.sets, x)
        expected = ChainPoint(
            math.cos(alpha) * x.u - math.sin(alpha) * x.v,
            math.sin(alpha) * x.u + math.cos(alpha) * x.v,
            0.0,
        )
        worst_rot = max(worst_rot, math.hypot(y.u - expected.u, y.v - expected.v),
                        abs(y.height - expected.height))
    checks.append(CheckResult("chain-cycle-rotation", worst_rot <= 1e-12,
                              worst_rot, 1e-12,
                              detail="one cycle = rotation by alpha on the bottom disc"))

    worst_step = 0.0
    start = scenario.start("boundary")
    for m in range(1, _CHAIN_POWERS + 1):
        sets_m = scenario.sets * m
        trace = iterate(chain, sets_m, start, 40)
        target = 2.0 * chain.radius * abs(math.sin(m * alpha / 2.0))
        worst_step = max(worst_step, float(np.max(np.abs(trace.r - target))))
    checks.append(CheckResult("chain-power-steps", worst_step <= 1e-9,
                              worst_step, 1e-9,
                              detail="P^m steps vs 2 r |sin(m alpha / 2)|, m <= 20"))
    return checks


def suite_counterexamples(seed: int = 0) -> list[CheckResult]:
    return tripod_certificates() + chain_certificates()


# ---------------------------------------------------------------------------
# Entry points

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
