"""The verify samplers draw numpy's uniform stream bit for bit, and the suites'
parts give the same bits in a pool of workers as one after another."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math
import multiprocessing
import os
import random
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from cycproj import verify
from cycproj.projections import AxisLine, CrossDisc, Epigraph, Segment
from cycproj.scenarios import build_tripod_counterexample
from cycproj.spaces import (
    ChainPoint,
    Plane,
    PlanePoint,
    ProductPoint,
    ProductSpace,
    StarPoint,
    StarTree,
    TwistedChain,
)


def numpy_uniform(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def reduce_samples(monkeypatch):
    monkeypatch.setattr(verify, "_METRIC_SAMPLES", 300)
    monkeypatch.setattr(verify, "_PROJECTION_PAIRS", 300)
    monkeypatch.setattr(verify, "_PROJECTION_INPUTS", 200)


# Reference samplers: each draw through ``Generator.uniform``, in the order
# the verify samplers make them.

def ref_plane_point(rng):
    return PlanePoint(float(rng.uniform(-5.0, 5.0)), float(rng.uniform(-5.0, 5.0)))


def ref_star_point(rng, tree):
    leg = int(rng.integers(tree.leg_count))
    return StarPoint(leg, float(rng.uniform(0.0, tree.leg_lengths[leg])))


def ref_disc(rng, radius):
    rad = radius * math.sqrt(float(rng.uniform(0.0, 1.0)))
    ang = float(rng.uniform(0.0, 2.0 * math.pi))
    return rad * math.cos(ang), rad * math.sin(ang)


def ref_in_set_sample(rng, space, cset):
    if isinstance(cset, Segment):
        return space.geodesic(cset.start, cset.end, float(rng.uniform(0.0, 1.0)))
    if isinstance(cset, AxisLine):
        return PlanePoint(float(rng.uniform(-8.0, 8.0)), 0.0)
    if isinstance(cset, Epigraph):
        u = math.exp(float(rng.uniform(math.log(0.05), math.log(20.0))))
        lift = float(rng.uniform(0.0, 3.0)) if rng.uniform() < 0.5 else 0.0
        return PlanePoint(u, cset.boundary_height(u) + lift)
    return ChainPoint(*ref_disc(rng, space.radius), space.disc_heights[cset.disc_index])


def sampler_pairs():
    """(shipped sampler, reference sampler) params, each a function of the generator."""
    plane = Plane()
    tree = StarTree.unit(3)
    product = ProductSpace(tree, StarTree.unit(3))
    chain = TwistedChain(radius=0.1, circumference=3.0, twist=1.0)
    band = chain.circumference / 2.0 - 3.0 * chain.radius
    tripod = build_tripod_counterexample(3)
    pairs = [
        ("plane", lambda rng: verify._plane_point(rng, plane), ref_plane_point),
        ("star", lambda rng: verify._star_point(rng, tree),
         lambda rng: ref_star_point(rng, tree)),
        ("product", lambda rng: verify._product_point(rng, product),
         lambda rng: ProductPoint(ref_star_point(rng, tree), ref_star_point(rng, tree))),
        ("chain", lambda rng: verify._chain_point(rng, chain),
         lambda rng: ChainPoint(*ref_disc(rng, chain.radius),
                                float(rng.uniform(0.0, chain.circumference)))),
        ("chain-band", lambda rng: verify._chain_band_sampler(1.0)(rng, chain),
         lambda rng: chain.point(*ref_disc(rng, chain.radius),
                                 1.0 + float(rng.uniform(-band, band)))),
        ("disc", lambda rng: verify._disc_coords(rng, chain.radius),
         lambda rng: ref_disc(rng, chain.radius)),
    ]
    in_set = [
        ("plane-segment", plane, Segment(PlanePoint(-1.0, 2.0), PlanePoint(3.0, 0.5))),
        ("tripod-segment", tripod.space, tripod.sets[0]),
        ("axis", plane, AxisLine()),
        ("epigraph", plane, Epigraph(0.5)),
        ("cross-disc", chain, CrossDisc(1)),
    ]
    for label, space, cset in in_set:
        pairs.append((f"in-set[{label}]",
                      lambda rng, space=space, cset=cset: verify._in_set_sample(rng, space, cset),
                      lambda rng, space=space, cset=cset: ref_in_set_sample(rng, space, cset)))
    return [pytest.param(shipped, reference, id=label) for label, shipped, reference in pairs]


STREAM_KS = (1, 2, 3, 2**31 + 5, 2**32)


@pytest.mark.parametrize("seed", [0, 1, 2, 7, 12345, 2**64 - 1])
def test_stream_draws_equal_numpy_generator(seed):
    # random interleavings of doubles and integers, long enough to cross
    # several 1024-word refills; 2**31 + 5 rejects about half its draws
    stream, rng = verify._Stream(seed), np.random.default_rng(seed)
    pattern = random.Random(seed)
    halves = 0
    for _ in range(8000):
        k = pattern.choice((None, None, *STREAM_KS))
        if k is None:
            assert stream.random() == rng.random()
            halves += 2
        else:
            assert stream.integers(k) == int(rng.integers(k))
            halves += k > 1
    assert halves // 2 > 3 * 1024


@pytest.mark.parametrize("k", [0, 2**32 + 1])
def test_stream_rejects_k_outside_32_bits(k):
    stream, rng = verify._Stream(5), np.random.default_rng(5)
    assert stream.integers(3) == int(rng.integers(3))
    with pytest.raises(ValueError, match="1 <= k <= 2[*][*]32"):
        stream.integers(k)
    # a rejected call draws nothing: the buffered half and the words go on as numpy's
    assert [stream.integers(3), stream.random(), stream.integers(2**32)] == [
        int(rng.integers(3)), rng.random(), int(rng.integers(2**32))]


@pytest.mark.parametrize("shipped, reference", sampler_pairs())
def test_sampler_draws_numpy_uniform_in_order(shipped, reference):
    rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(300):
        assert repr(shipped(rng)) == repr(reference(ref_rng))
    # no draw more or fewer than the reference makes
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("suite", [verify.suite_metric, verify.suite_projections])
def test_suite_results_equal_with_numpy_uniform(monkeypatch, suite):
    reduce_samples(monkeypatch)
    shipped = suite(3)
    # every reference draw through numpy's own Generator
    monkeypatch.setattr(verify, "_Stream", np.random.default_rng)
    monkeypatch.setattr(verify, "_uniform", numpy_uniform)
    reference = suite(3)
    assert shipped == reference
    assert [repr(r.worst) for r in shipped] == [repr(r.worst) for r in reference]


# ``repr(worst)`` of each check at the reduced sample counts below, as the
# suites gave it when every draw went through ``Generator.uniform`` and the
# rotation check built its expected point from ``math.cos(alpha)`` and
# ``math.sin(alpha)`` per sample.  Unlike the swap above, these also guard
# the sorted geodesic parameters, which bypass ``_uniform``, and the rotation
# check.  The epigraph's coin is guarded by the in-set sampler test.
UNIFORM_WORST = {
    "metric-symmetry[plane]": "0.0",
    "metric-triangle[plane]": "0.0",
    "metric-symmetry[star-tree]": "0.0",
    "metric-triangle[star-tree]": "2.220446049250313e-16",
    "metric-symmetry[tree-product]": "0.0",
    "metric-triangle[tree-product]": "0.0",
    "metric-symmetry[chain]": "0.0",
    "metric-triangle[chain]": "0.0",
    "constant-speed[plane]": "1.7763568394002505e-15",
    "constant-speed[star-tree]": "2.220446049250313e-16",
    "constant-speed[tree-product]": "2.220446049250313e-16",
    "star-gluing": "0.0",
    "cn-margin[plane]": "4.263256414560601e-14",
    "cn-margin[tree-product]": "8.881784197001252e-16",
    "projection-idempotence": "4.965068306494546e-16",
    "projection-nonexpansive": "0.0",
    "projection-optimality": "0.0",
    "projection-obtuse-angle": "2.3092638912203256e-13",
    "exact-vs-generic-agreement": "2.2322830118226628e-08",
    "chain-representative-independence": "8.881784197001252e-16",
    "chain-cycle-rotation": "0.0",
    "chain-power-steps": "2.9976021664879227e-15",
    "chain-power-not-regular": "0.0",
}


def test_worst_values_equal_the_uniform_draws(monkeypatch):
    reduce_samples(monkeypatch)
    results = verify.suite_metric(3) + verify.suite_projections(3) + verify.chain_certificates()
    assert {r.name: repr(r.worst) for r in results} == UNIFORM_WORST


def test_in_process_suites_make_the_pinned_iterate_calls(monkeypatch):
    # the benchmark's cycles_per_s counts these calls' cycles: a call more or
    # fewer would move it with no change in speed
    counted = []
    iterate = verify.iterate

    def counting_iterate(*args, **kwargs):
        trace = iterate(*args, **kwargs)
        counted.append(trace.completed)
        return trace

    monkeypatch.setattr(verify, "iterate", counting_iterate)
    for seed in (0, 12345):
        counted.clear()
        for name in ("two-set", "counterexamples"):
            verify.run_suite(name, seed)
        assert (len(counted), sum(counted)) == (22, 10_850)


def field_reprs(results):
    return [[repr(getattr(r, f.name)) for f in dataclasses.fields(r)] for r in results]


@pytest.mark.parametrize("cpus", [1, 4])
@pytest.mark.parametrize("suite", ["metric", "projections"])
def test_pooled_parts_equal_the_parts_in_order(monkeypatch, suite, cpus):
    reduce_samples(monkeypatch)
    run_parts = verify._run_parts
    monkeypatch.setattr(verify, "_run_parts", lambda parts, seed: [part(seed) for part in parts])
    in_order = verify.run_suite(suite, 3)
    monkeypatch.setattr(verify, "_run_parts", run_parts)

    workers = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            workers.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    # four workers on this machine's cores, or one
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    pooled = verify.run_suite(suite, 3)
    assert workers == [cpus]
    assert field_reprs(pooled) == field_reprs(in_order)
    assert multiprocessing.active_children() == []


def test_part_error_reaches_the_caller(monkeypatch):
    reduce_samples(monkeypatch)

    def failing_sampler(rng, space=None):
        raise ValueError("no plane point today")

    monkeypatch.setattr(verify, "_plane_point", failing_sampler)
    with pytest.raises(ValueError) as raised:
        verify.run_suite("metric", 3)
    assert raised.type is ValueError
    assert str(raised.value) == "no plane point today"
    assert multiprocessing.active_children() == []


def interrupt_own_worker(seed):
    os.kill(os.getpid(), signal.SIGINT)


def test_interrupted_worker_ends_at_once():
    # a worker that caught the interrupt would take the next part, and an
    # interrupted caller would then wait on, or hang at exit behind, the rest
    with pytest.raises(BrokenProcessPool):
        verify._run_parts([interrupt_own_worker], 0)
    assert multiprocessing.active_children() == []
