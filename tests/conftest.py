"""Shared fixtures: scenario builders, cached long runs, seed-0 verify suites
and a strict JSON parser."""

from __future__ import annotations

import functools
import json
import time

import pytest

from cycproj import build_plane_two_sets, build_tripod_counterexample, iterate
from cycproj.verify import SUITES


@pytest.fixture(scope="session")
def tripod():
    return build_tripod_counterexample(3)


@pytest.fixture(scope="session")
def long_two_set_runs():
    """Million-cycle two-set traces per epsilon, with wall-clock durations.

    Computed once per session; the epsilon = 1/2 run is shared between the
    inequality checks and the rate fits.
    """
    runs = {}
    for eps in (0.25, 0.5, 1.0):
        scenario = build_plane_two_sets(eps)
        t0 = time.perf_counter()
        # one extra cycle so the step r_n at n = 10^6 itself exists
        trace = iterate(scenario.space, scenario.sets, scenario.start(), 10**6 + 1)
        runs[eps] = (trace, time.perf_counter() - t0)
    return runs


@pytest.fixture(scope="session")
def seed0_suites():
    """Each verify suite's seed-0 results and wall-clock duration, by suite name.

    Run once per session, in ``SUITES`` order, so the concatenated results are
    ``run_suite("all", 0)``: the golden ``verify-seed0`` digests read them, and
    criteria 2 and 5 to 8 read their own suite's results and time.
    """
    runs = {}
    for name, suite in SUITES.items():
        t0 = time.perf_counter()
        results = suite(0)
        runs[name] = (results, time.perf_counter() - t0)
    return runs


@pytest.fixture(scope="session")
def strict_json():
    """``json.loads`` that refuses ``NaN``, ``Infinity`` and ``-Infinity``, which are not
    JSON although Python's default parser accepts them."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return functools.partial(json.loads, parse_constant=refuse)
