"""The benchmark's four workloads.

Each workload has seeded inputs, a timed ``run`` that does one workload
run, and a ``check`` that gates its outputs and returns
``(operations, notes)``: one ``(label, problems)`` pair per operation and a
dict of figures worth reporting.  Inputs are plain data made from the seed
alone; the program sees only them.  Why each workload exists is written in
README.md beside this file.

Workload runs are kept short (a tenth of a second for the library
workloads) because the benchmark reports the fastest of many: on a shared
host, short runs are the ones that catch the machine uncontended.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import cycproj
import cycproj.cli
import cycproj.traceio
import cycproj.verify

import gate

EPSILONS = (0.25, 0.5, 1.0)
CHAIN_PARAMS = {"alpha": 1.0, "radius": 0.1, "circumference": 3.0}
VERIFY_SUITES = ("metric", "projections", "two-set", "counterexamples")
SWEEP_JOBS = 2
CLI_TIMEOUT_S = 120.0


@dataclass
class Context:
    """Where a workload runs: a scratch directory inside the checkout, the
    environment its subprocesses get, and whether CLI commands run in this
    interpreter (the traced run) or as subprocesses (the untraced run).

    Subprocess commands go through ``launcher.py``, which reports their peak
    memory; ``close`` stops it.
    """

    tmp: Path
    env: dict
    in_process: bool = False
    children_peak_kib: int = 0
    _launcher: subprocess.Popen | None = None

    def cli(self, argv: list[str]) -> tuple[int, str]:
        """Run one ``cycproj`` command; returns (exit code, stdout)."""
        if self.in_process:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cycproj.cli.main(argv)
            return code, out.getvalue()
        if self._launcher is None:
            self._launcher = subprocess.Popen(
                [sys.executable, str(Path(__file__).with_name("launcher.py"))],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=self.env)
        request = {"argv": [sys.executable, "-m", "cycproj.cli", *argv],
                   "timeout": CLI_TIMEOUT_S}
        self._launcher.stdin.write(json.dumps(request) + "\n")
        self._launcher.stdin.flush()
        reply = json.loads(self._launcher.stdout.readline())
        self.children_peak_kib = reply["children_maxrss_kib"]
        return reply["code"], reply["stdout"]

    def close(self) -> None:
        if self._launcher is not None:
            self._launcher.stdin.close()
            self._launcher.wait(timeout=CLI_TIMEOUT_S)
            self._launcher.stdout.close()
            self._launcher = None


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable[[random.Random], dict]
    run: Callable[[dict, Context], object]
    check: Callable[[dict, object, Context], tuple[list, dict]]
    cycles: Callable[[dict, object], int]
    scenarios: tuple[tuple[str, dict], ...]  # what set-up builds
    modules: tuple[str, ...] = ("cycproj",)  # what set-up imports
    in_children: bool = False  # the program runs in subprocesses, not in this one


def _boundary_point(scenario, angle: float):
    radius = scenario.params["radius"]
    return scenario.space.point(radius * math.cos(angle), radius * math.sin(angle), 0.0)


# ---------------------------------------------------------------------------
# two-set-long: the epigraph Newton solve over long two-set traces


def _two_set_inputs(rng: random.Random) -> dict:
    return {"cycles": 2_000, "x0": [rng.uniform(0.5, 2.0) for _ in EPSILONS]}


def _two_set_run(inputs: dict, ctx: Context):
    n = inputs["cycles"]
    out = []
    for eps, x0 in zip(EPSILONS, inputs["x0"]):
        sc = cycproj.build_scenario("plane-two-sets", epsilon=eps)
        trace = cycproj.iterate(sc.space, sc.sets, sc.space.point(x0, 0.0), n)
        out.append((eps, trace, cycproj.two_set_diagnostics(trace),
                    cycproj.rate_fit(trace, (n // 100, n)), cycproj.verdict(trace)))
    return out


def _two_set_check(inputs: dict, result, ctx: Context):
    n = inputs["cycles"]
    ops, notes = [], {}
    for eps, trace, report, fit, v in result:
        ops.append((f"iterate plane-two-sets eps={eps}",
                    gate.check_two_set(trace, report, fit, v, eps, n)))
        notes[f"slope eps={eps}"] = fit.slope
        notes[f"criterion3 ratio eps={eps}"] = gate.criterion3_ratio(trace, n)
    return ops, notes


# ---------------------------------------------------------------------------
# counterexamples: tripod and twisted chain, no Newton solve


def _counter_inputs(rng: random.Random) -> dict:
    return {"tripod_cycles": 2_000, "chain_cycles": 2_000,
            "t": rng.uniform(0.0, 0.4), "angle": rng.uniform(0.0, 2.0 * math.pi)}


def _counter_run(inputs: dict, ctx: Context):
    tripod = cycproj.build_scenario("tripod", k=3)
    first = tripod.sets[0]
    start = tripod.space.geodesic(first.start, first.end, inputs["t"])
    t_trace = cycproj.iterate(tripod.space, tripod.sets, start, inputs["tripod_cycles"])
    chain = cycproj.build_scenario("twisted-chain", **CHAIN_PARAMS)
    c_trace = cycproj.iterate(chain.space, chain.sets, _boundary_point(chain, inputs["angle"]),
                              inputs["chain_cycles"])
    return t_trace, cycproj.verdict(t_trace), c_trace, cycproj.verdict(c_trace)


def _counter_check(inputs: dict, result, ctx: Context):
    t_trace, t_verdict, c_trace, c_verdict = result
    ops = [
        ("iterate tripod", gate.check_tripod(t_trace, t_verdict, inputs["t"],
                                             inputs["tripod_cycles"])),
        ("iterate twisted-chain", gate.check_chain(
            c_trace, c_verdict, CHAIN_PARAMS["radius"], CHAIN_PARAMS["alpha"],
            inputs["chain_cycles"])),
    ]
    return ops, {"tripod step": t_verdict.liminf_r, "chain step": c_verdict.liminf_r}


# ---------------------------------------------------------------------------
# cli-export: the CLI as users run it, with CSV/JSON export and a sweep


def _cli_inputs(rng: random.Random) -> dict:
    return {"run_cycles": 10_000, "sweep_cycles": 5_000,
            "x0": rng.uniform(0.5, 2.0), "angle": rng.uniform(0.0, 2.0 * math.pi)}


def _cli_paths(ctx: Context) -> tuple[Path, Path, Path]:
    return ctx.tmp / "plane.csv", ctx.tmp / "chain.json", ctx.tmp / "sweep.json"


def _cli_run(inputs: dict, ctx: Context):
    csv_path, json_path, sweep_path = _cli_paths(ctx)
    n = str(inputs["run_cycles"])
    chain = cycproj.build_scenario("twisted-chain", **CHAIN_PARAMS)
    p = _boundary_point(chain, inputs["angle"])
    csv_run = ctx.cli(["run", "plane-two-sets", "--n", n,
                       f"--start-coords={inputs['x0']!r},0", "--out", str(csv_path)])
    json_run = ctx.cli(["run", "twisted-chain", "--n", n, "--format", "json",
                        f"--start-coords={p.u!r},{p.v!r},{p.height!r}",
                        "--out", str(json_path)])
    columns = cycproj.traceio.read_trace_csv(csv_path) if csv_run[0] == 0 else {}
    sweep = ctx.cli(["sweep", "plane-two-sets", "--param", "epsilon",
                     "--values", ",".join(map(str, EPSILONS)),
                     "--n", str(inputs["sweep_cycles"]), "--jobs", str(SWEEP_JOBS),
                     "--out", str(sweep_path)])
    return csv_run, json_run, columns, sweep


def _load_json(path: Path, default):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return default


def _cli_check(inputs: dict, result, ctx: Context):
    csv_run, json_run, columns, sweep = result
    csv_path, json_path, sweep_path = _cli_paths(ctx)
    n = inputs["run_cycles"]
    ops = [
        ("cli run csv", gate.check_cli_csv(*csv_run, columns, n)),
        ("cli run json", gate.check_cli_json(*json_run, _load_json(json_path, {}), n)),
        ("cli sweep", gate.check_cli_sweep(sweep[0], _load_json(sweep_path, []),
                                           len(EPSILONS))),
    ]
    rows = n + 1
    notes = {"csv_bytes_per_row": csv_path.stat().st_size / rows if csv_path.exists() else 0.0}
    for path in (csv_path, json_path, sweep_path):
        path.unlink(missing_ok=True)
    return ops, notes


def _cli_cycles(inputs: dict, result) -> int:
    return 2 * inputs["run_cycles"] + len(EPSILONS) * inputs["sweep_cycles"]


# ---------------------------------------------------------------------------
# verify-suites: the randomized invariant suites


def _verify_inputs(rng: random.Random) -> dict:
    return {"verify_seed": rng.randrange(2**31)}


def _verify_run(inputs: dict, ctx: Context):
    # The suites iterate internally; a counter on the one name they call
    # supplies cycles_per_s (about twenty calls per workload run).
    counted = []
    iterate = cycproj.verify.iterate

    def counting_iterate(*args, **kwargs):
        trace = iterate(*args, **kwargs)
        counted.append(trace.completed)
        return trace

    cycproj.verify.iterate = counting_iterate
    try:
        results = [cycproj.verify.run_suite(name, seed=inputs["verify_seed"])
                   for name in VERIFY_SUITES]
    finally:
        cycproj.verify.iterate = iterate
    return results, sum(counted)


def _verify_check(inputs: dict, result, ctx: Context):
    suites, _ = result
    ops = [(f"verify {check.name}", gate.check_verify(check))
           for checks in suites for check in checks]
    return ops, {"checks": len(ops)}


WORKLOADS = {
    w.name: w for w in (
        Workload("two-set-long", _two_set_inputs, _two_set_run, _two_set_check,
                 lambda i, r: len(EPSILONS) * i["cycles"],
                 tuple(("plane-two-sets", {"epsilon": e}) for e in EPSILONS)),
        Workload("counterexamples", _counter_inputs, _counter_run, _counter_check,
                 lambda i, r: i["tripod_cycles"] + i["chain_cycles"],
                 (("tripod", {"k": 3}), ("twisted-chain", CHAIN_PARAMS))),
        Workload("cli-export", _cli_inputs, _cli_run, _cli_check, _cli_cycles,
                 (("plane-two-sets", {"epsilon": 0.5}), ("twisted-chain", CHAIN_PARAMS)),
                 modules=("cycproj", "cycproj.cli"), in_children=True),
        Workload("verify-suites", _verify_inputs, _verify_run, _verify_check,
                 lambda i, r: r[1],
                 (("plane-two-sets", {"epsilon": 0.5}), ("two-lines", {}),
                  ("tripod", {"k": 3}), ("twisted-chain", CHAIN_PARAMS)),
                 modules=("cycproj", "cycproj.verify")),
    )
}


def make_inputs(workload: str, seed: int) -> dict:
    """Every input of a workload, derived from the seed alone."""
    return WORKLOADS[workload].make_inputs(random.Random(f"{workload}:{seed}"))
