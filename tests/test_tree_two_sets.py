"""The paper's k = 2 inequalities off the plane: two segments in a product of star trees.

A product of star trees is a branching CAT(0) space, so the interleaving
chains s_n >= r_n >= s_{n+1} and a_n >= b_n >= a_{n+1}, the energy bound and
the summed bound hold for alternating projections onto any two of its
segments.  The traces here are checked by ``two_set_diagnostics`` at its own
slacks, on seeded random trees of 3-5 unequal legs and segments that cross
tree centers or end at one.
"""

from __future__ import annotations

import numpy as np
import pytest

from cycproj import (
    ProductPoint,
    ProductSpace,
    Segment,
    StarPoint,
    StarTree,
    iterate,
    project,
    two_set_diagnostics,
)

PAIRS = 60
CYCLES = 60


def random_tree(rng):
    return StarTree(tuple(rng.uniform(0.25, 2.0, int(rng.integers(3, 6))).tolist()))


def random_factor_point(rng, tree):
    """The center one time in five, else a uniform offset on a uniform leg."""
    if rng.uniform() < 0.2:
        return StarPoint(0, 0.0)
    leg = int(rng.integers(tree.leg_count))
    return StarPoint(leg, float(rng.uniform(0.0, tree.leg_lengths[leg])))


def random_point(rng, space):
    return ProductPoint(random_factor_point(rng, space.left), random_factor_point(rng, space.right))


def crosses(a, b):
    """Whether the tree geodesic from a to b passes through the center."""
    return a.leg != b.leg and not (a.is_center or b.is_center)


def random_cases(seed):
    """PAIRS (space, sets, start) triples from one seeded generator."""
    rng = np.random.default_rng(seed)
    for _ in range(PAIRS):
        space = ProductSpace(random_tree(rng), random_tree(rng))
        sets = tuple(Segment(random_point(rng, space), random_point(rng, space)) for _ in range(2))
        yield space, sets, random_point(rng, space)


@pytest.mark.parametrize("seed", range(4))
def test_inequalities_hold_on_random_segment_pairs(seed):
    failed = []
    for space, sets, start in random_cases(seed):
        report = two_set_diagnostics(iterate(space, sets, start, CYCLES))
        if not report.passed:
            failed.append((sets, start, report))
    assert not failed, f"{len(failed)} of {PAIRS} traces fail, first {failed[0]}"


def test_every_segment_takes_the_exact_projector():
    ends = []
    for seed in range(4):
        for space, sets, start in random_cases(seed):
            for seg in sets:
                assert project(space, seg, start).solver == "exact_piecewise"
                ends += [(seg.start.left, seg.end.left), (seg.start.right, seg.end.right)]
    # the cases cross tree centers and end at them
    assert sum(crosses(a, b) for a, b in ends) >= len(ends) // 3
    assert sum(a.is_center or b.is_center for a, b in ends) >= len(ends) // 5


def test_fixed_crossing_pair():
    # both right coordinates run through the center; a golden-section foot
    # broke the chains here by about 1e-8
    space = ProductSpace(StarTree((1.0, 0.6, 1.4)), StarTree((0.8, 1.2, 1.0, 0.5)))
    sets = (Segment(ProductPoint(StarPoint(1, 0.3), StarPoint(3, 0.4)),
                    ProductPoint(StarPoint(1, 0.3), StarPoint(2, 0.4))),
            Segment(ProductPoint(StarPoint(2, 0.9), StarPoint(0, 0.3)),
                    ProductPoint(StarPoint(2, 0.4), StarPoint(1, 0.7))))
    trace = iterate(space, sets, ProductPoint(StarPoint(1, 0.2), StarPoint(0, 0.5)), 200)
    report = two_set_diagnostics(trace)
    assert report.passed, report
