"""cycproj benchmark: one workload, timed, gated, and optionally traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Run from the root of a source checkout; the program is imported from its
``src/`` directory and nowhere else.  With ``--trace 0`` the workload runs
untraced and the end-to-end metrics are reported; with ``--trace 1`` half
of the time runs untraced and half under the span shims of ``tracer.py``,
and the per-layer metrics are reported.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out`` also
writes the full record (provenance, inputs, notes, metrics) as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = {"wall_s": "s", "cycles_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "projections.newton.calls": "count",
    "projections.newton.us_per_call": "us",
    "projections.exact_piecewise.calls": "count",
    "projections.exact_piecewise.us_per_call": "us",
    "projections.closed_form.calls": "count",
    "projections.closed_form.us_per_call": "us",
    "projections.golden_section.calls": "count",
    "projections.golden_section.us_per_call": "us",
    "projections.share": "ratio",
    "spaces.distance.calls": "count",
    "spaces.distance.us_per_call": "us",
    "engine.iterate.self_us_per_cycle": "us",
    "engine.diagnostics_ms": "ms",
    "scenarios.build_ms": "ms",
    "traceio.csv_write.us_per_row": "us",
    "traceio.csv_read.us_per_row": "us",
    "traceio.json_write.us_per_row": "us",
    "traceio.bytes_per_row": "B",
    "cli.startup_s": "s",
    "cli.self_s": "s",
    "cli.sweep_s": "s",
    "verify.metric_s": "s",
    "verify.projections_s": "s",
    "verify.two-set_s": "s",
    "verify.counterexamples_s": "s",
    "verify.checks": "count",
    "trace.overhead_pct": "%",
}
SOLVERS = ("newton", "exact_piecewise", "closed_form", "golden_section")
DIAGNOSTICS = ("engine.two_set_diagnostics", "engine.rate_fit", "engine.verdict")
SETUP_PROBES = 5       # least number of fresh interpreters for setup_s and cli.startup_s
PROBE_EVERY_S = 2.0    # one set-up probe per this much timed workload
MIN_UNITS = 4          # workload runs per untraced measurement, however long
MIN_TRACED_UNITS = 2   # per half of a traced measurement
BUILD_REPEATS = 101    # in-process scenario builds for scenarios.build_ms


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import cycproj from this checkout's ``src/``, refusing any other copy."""
    if not (SRC / "cycproj" / "__init__.py").is_file():
        _fail(f"no program source at {SRC / 'cycproj'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import cycproj
    if Path(cycproj.__file__).resolve().parent != (SRC / "cycproj").resolve():
        _fail(f"imported cycproj from {cycproj.__file__}, not from {SRC}")
    return cycproj


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` directly; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, trace: bool) -> dict:
    import numpy
    return {"workload": workload, "seed": seed, "trace": trace,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "git_sha": _git_sha(), "machine": platform.machine()}


def _probe(code: str, env: dict) -> float:
    """Run ``code`` in a fresh interpreter; return its last printed float."""
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout.split()[-1])


def setup_probe(workload, env: dict):
    """A callable that times, in a fresh interpreter, importing cycproj and
    building the workload's scenarios."""
    imports = "; ".join(f"import {m}" for m in workload.modules)
    code = ("import time; t0 = time.perf_counter(); " + imports + "\n"
            f"for name, params in {workload.scenarios!r}: cycproj.build_scenario(name, **params)\n"
            "print(repr(time.perf_counter() - t0))")
    return lambda: _probe(code, env)


def cli_startup_seconds(env: dict) -> float:
    """Median wall time of a fresh interpreter that imports the CLI and exits."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cycproj.cli"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def build_ms(workload, cycproj) -> float:
    times = []
    for _ in range(BUILD_REPEATS):
        t0 = time.perf_counter()
        for name, params in workload.scenarios:
            cycproj.build_scenario(name, **params)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


class Tally:
    """Gated operations across all workload runs of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: dict = {}

    def add(self, ops: list, notes: dict) -> None:
        for label, problems in ops:
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(f"{label}: {p}" for p in problems)
        self.notes = notes


def measure(workload, inputs: dict, ctx, seconds: float, min_units: int, tally: Tally,
            probe=None):
    """Repeat the workload until ``seconds`` of it are timed (and at least
    ``min_units`` times).

    Only ``run`` is timed; each result is gated and dropped before the next
    run, so peak memory is that of a single workload run.  ``probe``, when
    given, is called between runs, once per ``PROBE_EVERY_S`` of timed work
    (and then until ``SETUP_PROBES`` values exist), so its median samples
    the same stretch of time as the workload.
    """
    times, probes, cycles = [], [], 0
    while len(times) < min_units or sum(times) < seconds:
        t0 = time.perf_counter()
        result = workload.run(inputs, ctx)
        times.append(time.perf_counter() - t0)
        cycles = workload.cycles(inputs, result)
        tally.add(*workload.check(inputs, result, ctx))
        del result
        if probe is not None and sum(times) >= PROBE_EVERY_S * len(probes):
            probes.append(probe())
    while probe is not None and len(probes) < SETUP_PROBES:
        probes.append(probe())
    return times, cycles, probes


def peak_rss_mb(workload, ctx) -> float:
    """Largest resident set of a process that ran the program.

    For a workload that runs the program in subprocesses, the largest of
    them (this process then only reads back and gates, which is not
    counted); otherwise this process.  A process's own rusage peak also
    counts the image of whoever spawned it, so here the kernel's
    high-water mark since exec (VmHWM) is read instead.
    """
    if workload.in_children:
        return ctx.children_peak_kib / 1024.0
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def end_to_end(workload, inputs, ctx, seconds: float, tally: Tally) -> tuple[dict, dict]:
    times, cycles, setups = measure(workload, inputs, ctx, seconds, MIN_UNITS, tally,
                                    probe=setup_probe(workload, ctx.env))
    # The fastest run, not the median: on a shared host other tenants only
    # ever slow a run down, for stretches of tens of seconds, and the fastest
    # run is what stays steady from one benchmark run to the next.
    wall = min(times)
    values = {"wall_s": wall, "cycles_per_s": cycles / wall,
              "setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb(workload, ctx)}
    return values, {"unit_seconds": times, "setup_seconds": setups, "cycles_per_unit": cycles}


def layer_metrics(tracer, units: int, untraced_s: float, traced_s: float,
                  notes: dict) -> dict:
    """Per-layer metrics from the aggregated spans of ``units`` workload runs."""

    def per_call(count: int, seconds: float) -> float:
        return seconds / count * 1e6 if count else 0.0

    values = {}
    projection_self_in_loop = 0.0
    for solver in SOLVERS:
        count, _, self_s, _ = tracer.totals("projections." + solver)
        values[f"projections.{solver}.calls"] = count / units
        values[f"projections.{solver}.us_per_call"] = per_call(count, self_s)
        projection_self_in_loop += tracer.totals("projections." + solver,
                                                 {"engine.iterate"})[2]
    _, iterate_s, iterate_self, cycles = tracer.totals("engine.iterate")
    values["projections.share"] = projection_self_in_loop / iterate_s if iterate_s else 0.0
    count, _, self_s, _ = tracer.totals("spaces.distance")
    values["spaces.distance.calls"] = count / units
    values["spaces.distance.us_per_call"] = per_call(count, self_s)
    values["engine.iterate.self_us_per_cycle"] = per_call(cycles, iterate_self)
    values["engine.diagnostics_ms"] = sum(tracer.totals(n)[1] for n in DIAGNOSTICS) / units * 1e3
    for span in ("csv_write", "csv_read", "json_write"):
        _, total, _, rows = tracer.totals(f"traceio.{span}")
        values[f"traceio.{span}.us_per_row"] = per_call(rows, total)
    values["traceio.bytes_per_row"] = notes.get("csv_bytes_per_row", 0.0)
    values["cli.self_s"] = tracer.totals("cli.run")[2] / units
    values["cli.sweep_s"] = tracer.totals("cli.sweep")[1] / units
    from workloads import VERIFY_SUITES

    checks = 0
    for suite in VERIFY_SUITES:
        _, total, _, n_checks = tracer.totals("verify." + suite)
        values[f"verify.{suite}_s"] = total / units
        checks += n_checks
    values["verify.checks"] = checks / units
    values["trace.overhead_pct"] = (traced_s - untraced_s) / untraced_s * 100.0
    return values


def iterate_accounting(tracer) -> dict:
    """Traced iterate time against projection + distance + engine self time."""
    _, iterate_s, iterate_self, _ = tracer.totals("engine.iterate")
    inside = {"engine.iterate", "projections"}
    parts = iterate_self + tracer.totals("spaces.distance", inside)[2]
    for solver in SOLVERS:
        parts += tracer.totals("projections." + solver, {"engine.iterate"})[2]
    return {"iterate_s": iterate_s, "accounted_s": parts}


def traced(workload, inputs, ctx, seconds: float, tally: Tally, cycproj) -> tuple[dict, dict]:
    from tracer import Tracer

    startup = cli_startup_seconds(ctx.env) if workload.in_children else 0.0
    build = build_ms(workload, cycproj)
    plain, _, _ = measure(workload, inputs, ctx, seconds / 2, MIN_TRACED_UNITS, tally)
    with Tracer() as tracer:
        shimmed, _, _ = measure(workload, inputs, ctx, seconds / 2, MIN_TRACED_UNITS, tally)
    values = layer_metrics(tracer, len(shimmed), min(plain), min(shimmed), tally.notes)
    values["scenarios.build_ms"] = build
    values["cli.startup_s"] = startup
    details = {"untraced_unit_seconds": plain, "traced_unit_seconds": shimmed,
               "iterate_accounting": iterate_accounting(tracer),
               "coarse_spans": tracer.spans,
               "aggregate": [[name, parent, *entry]
                             for (name, parent), entry in sorted(tracer.agg.items(),
                                                                 key=str)]}
    return values, details


def main(argv: list[str] | None = None) -> int:
    cycproj = _import_program()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the full record here")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.make_inputs(args.workload, args.seed)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    scratch_parent = ROOT / ".bench_tmp"
    scratch_parent.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch_parent))
    # The traced run calls cli.main in this interpreter so its spans are seen.
    ctx = workloads.Context(tmp=tmp, env=env, in_process=bool(args.trace))
    tally = Tally()
    try:
        if args.trace:
            values, details = traced(workload, inputs, ctx, args.seconds, tally, cycproj)
            units = PER_LAYER
        else:
            values, details = end_to_end(workload, inputs, ctx, args.seconds, tally)
            units = END_TO_END
    finally:
        ctx.close()
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            scratch_parent.rmdir()

    record = {"provenance": provenance(args.workload, args.seed, bool(args.trace)),
              "inputs": inputs, "notes": tally.notes, "problems": tally.problems,
              "details": details}
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print("inputs " + json.dumps(inputs, sort_keys=True))
    for key, value in tally.notes.items():
        print(f"note {key} = {value!r}")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    for name, unit in units.items():
        print(f"{name:<42} {values[name]:>16.6g} {unit}")
    error_rate = tally.failed / tally.attempted if tally.attempted else math.nan
    print(f"{'error_rate':<42} {error_rate:>16.6g} ratio "
          f"({tally.failed} of {tally.attempted} operations)")

    result = {"correct": tally.failed == 0 and tally.attempted > 0,
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    record["result"] = result
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
