"""Golden digests: the bits of traces, verify results and CLI output, pinned.

``golden_digests.json`` holds one SHA-256 per entry: a labelled-start
trace, a power of the chain cycle, a verify result or a ``cycproj run``
output.  A failure names each entry whose bits moved.  The file was written
once, by

    PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json

and is never rewritten to make this test pass: a refactor that keeps
behaviour keeps every digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from cycproj import (
    AxisLine,
    Epigraph,
    NumericalFailureError,
    Plane,
    PlanePoint,
    build_plane_two_lines,
    build_plane_two_sets,
    build_tripod_counterexample,
    build_twisted_chain,
    iterate,
    project,
)
from cycproj.cli import main
from cycproj.verify import run_suite

DIGEST_FILE = Path(__file__).with_name("golden_digests.json")
CYCLES = 3000


def _sha(*parts: bytes | str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
        h.update(b"\x00")
    return h.hexdigest()


def _trace_digest(trace) -> str:
    arrays = [b"" if arr is None else arr.tobytes()
              for arr in (trace.r, trace.s, trace.a, trace.b)]
    return _sha(*arrays, "\n".join(repr(p) for p in trace.points))


def _traces() -> dict[str, str]:
    scenarios = [
        ("tripod/k=3", build_tripod_counterexample(3)),
        ("tripod/k=5", build_tripod_counterexample(5)),
        ("twisted-chain/alpha=1.0", build_twisted_chain(alpha=1.0)),
        ("twisted-chain/alpha=2.0", build_twisted_chain(alpha=2.0)),
        ("plane-two-sets/eps=0.25", build_plane_two_sets(0.25)),
        ("plane-two-sets/eps=0.5", build_plane_two_sets(0.5)),
        ("plane-two-sets/eps=1.0", build_plane_two_sets(1.0)),
        ("two-lines", build_plane_two_lines()),
    ]
    return {
        f"trace/{name}/{label}": _trace_digest(
            iterate(scenario.space, scenario.sets, start, CYCLES))
        for name, scenario in scenarios
        for label, start in scenario.starts.items()
    }


def _chain_powers() -> dict[str, str]:
    scenario = build_twisted_chain(alpha=1.0, radius=0.1, circumference=3.0)
    start = scenario.start("boundary")
    return {f"chain-power/m={m}": _trace_digest(
                iterate(scenario.space, scenario.sets * m, start, 50))
            for m in range(1, 21)}


def _reversed_pair() -> dict[str, str]:
    sets = (Epigraph(0.5), AxisLine())
    starts = build_plane_two_sets(0.5).starts
    return {f"reversed-pair/{label}": _trace_digest(iterate(Plane(), sets, start, CYCLES))
            for label, start in starts.items()}


def _failure() -> dict[str, str]:
    x = PlanePoint(1e300, 0.0)
    trace = iterate(Plane(), (AxisLine(), Epigraph(0.5)), x, 5)
    try:
        project(Plane(), Epigraph(0.5), x)
    except NumericalFailureError as exc:
        raised = str(exc)
    return {"failure/1e300": _sha(str(trace.completed), trace.failure, raised)}


def _verify_digests(seed: int, results) -> dict[str, str]:
    return {f"verify-seed{seed}/{r.name}": _sha(r.name, repr(r.worst), repr(r.tol),
                                                  str(r.passed))
            for r in results}


def _verify(seed: int) -> dict[str, str]:
    return _verify_digests(seed, run_suite("all", seed))


def _cli() -> dict[str, str]:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in ("tripod", "twisted-chain", "plane-two-sets"):
            for fmt in ("csv", "json"):
                path = Path(tmp) / f"{scenario}.{fmt}"
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = main(["run", scenario, "--format", fmt, "--out", str(path)])
                digests[f"cli/{scenario}/{fmt}"] = _sha(
                    path.read_bytes(), stdout.getvalue().replace(tmp, "<tmp>"), str(code))
    return digests


GROUPS = {
    "trace": _traces,
    "chain-power": _chain_powers,
    "reversed-pair": _reversed_pair,
    "failure": _failure,
    "verify-seed0": lambda: _verify(0),
    "verify-seed1": lambda: _verify(1),
    "verify-seed2": lambda: _verify(2),
    "cli": _cli,
}


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(DIGEST_FILE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("group", GROUPS)
def test_digests_unchanged(group, golden, request):
    if group == "verify-seed0":  # the session's seed-0 suites, shared with criteria 6 and 7
        runs = request.getfixturevalue("seed0_suites")
        digests = _verify_digests(0, [r for results, _ in runs.values() for r in results])
    else:
        digests = GROUPS[group]()
    expected = {name: d for name, d in golden.items() if name.startswith(group + "/")}
    assert expected, f"no golden entries for {group!r}"
    moved = sorted(name for name in expected.keys() | digests.keys()
                   if expected.get(name) != digests.get(name))
    assert not moved, f"{len(moved)} of {len(expected)} entries moved: {moved}"


if __name__ == "__main__":
    everything: dict[str, str] = {}
    for make in GROUPS.values():
        everything.update(make())
    json.dump(everything, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
