"""Command-line front end: run scenarios, verify invariants, fit rates, sweep.

Exit codes are a stable contract: 0 on success, 2 on usage errors (unknown
scenario or suite, bad parameters), 3 on numerical failure (the trace file
is still written, truncated and flagged).  A sweep exits 2 when any of its
runs is a usage error, else 3 when any failed.  Options may also be
supplied as ``key=value`` lines in a config file; explicit flags win.  The
only environment variable consulted is ``CYCPROJ_OUT_DIR`` (default output
directory).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import groupby

from . import traceio
from .engine import iterate, rate_fit, verdict
from .scenarios import Scenario, build_scenario
from .verify import run_suite, suite_names

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# Exceptions that make a usage error, in main and in each sweep run.
_USAGE_ERRORS = (KeyError, ValueError, TypeError, OSError)

_SCENARIO_PARAMS = ("epsilon", "alpha", "radius", "circumference", "theta", "k")

_RUN_DEFAULTS = {
    "n": 100,
    "tol": 1e-12,
    "format": "csv",
    "start": None,
    "start_coords": None,
    "stride": None,
    "out": None,
    "rate_window": None,
}


def _add_run_options(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """Add the run options; returns those a config file may set, by key."""
    parser.add_argument("scenario", help="scenario name (see 'cycproj run --help')")
    options = [
        parser.add_argument("--n", type=int, default=None, help="number of cycles (default 100)"),
        parser.add_argument("--start", default=None, help="label of a recommended start point"),
        parser.add_argument("--start-coords", default=None,
                            help="explicit start: plane 'x,y'; tree product "
                                 "'leg:off,leg:off'; chain 'u,v,height'"),
        parser.add_argument("--tol", type=float, default=None, help="projection tolerance"),
        parser.add_argument("--stride", type=int, default=None, help="point storage stride"),
        parser.add_argument("--out", default=None, help="output trace path"),
        parser.add_argument("--format", choices=("csv", "json"), default=None,
                            help="trace file format (default csv)"),
        parser.add_argument("--rate-window", type=int, nargs=2, metavar=("LO", "HI"),
                            default=None, help="fit log r vs log n over this index window"),
    ]
    parser.add_argument("--config", default=None, help="key=value config file; flags win")
    options += [parser.add_argument(f"--{name}", type=float, default=None)
                for name in ("epsilon", "alpha", "radius", "circumference", "theta")]
    options.append(parser.add_argument("--k", type=int, default=None,
                                       help="number of sets (tripod)"))
    return {action.dest: action for action in options}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycproj",
        description="Cyclic closest-point projections on the benchmark scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and export its trace")
    _add_run_options(p_run)

    p_verify = sub.add_parser("verify", help="run an invariant suite")
    p_verify.add_argument("suite", help=f"one of: {', '.join(suite_names())}")
    p_verify.add_argument("--seed", type=int, default=0)

    p_rate = sub.add_parser("rate", help="run a scenario and fit the decay rate")
    _add_run_options(p_rate)

    p_sweep = sub.add_parser("sweep", help="run a scenario over a parameter grid")
    _add_run_options(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=_SCENARIO_PARAMS,
                         help=f"swept parameter: one of {', '.join(_SCENARIO_PARAMS)}")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated grid values (may be empty)")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="concurrent runs (results are merged by grid index)")
    return parser


# ---------------------------------------------------------------------------
# Config handling


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _config_value(action: argparse.Action, raw: str):
    """Convert a config value as its flag would be: the action's type, nargs and choices."""
    words = [raw] if action.nargs is None else raw.split()
    if action.nargs is not None and len(words) != action.nargs:
        raise ValueError(f"config key {action.dest!r} takes {action.nargs} values, got {raw!r}")
    values = [(action.type or str)(word) for word in words]
    for value in values:
        if action.choices is not None and value not in action.choices:
            raise ValueError(f"config key {action.dest!r}: invalid choice {value!r} "
                             f"(choose from {', '.join(map(repr, action.choices))})")
    return values[0] if action.nargs is None else values


def _merge_config(args: argparse.Namespace) -> None:
    """Fill options the flags left unset from the config file, then defaults."""
    if args.config:
        options = _add_run_options(argparse.ArgumentParser())
        for key, raw in _read_config(args.config).items():
            if key not in options:
                raise ValueError(f"unknown config key {key!r}")
            value = _config_value(options[key], raw)
            if getattr(args, key) is None:
                setattr(args, key, value)
    for key, default in _RUN_DEFAULTS.items():
        if getattr(args, key, None) is None:
            setattr(args, key, default)


def _parse_coords(space, text: str):
    """Decode ``--start-coords``: the space's ``coord_names`` in order, joined
    by ':' within one product factor (names sharing the prefix before '_')
    and by ',' otherwise, so 'x,y', 'leg:off,leg:off' and 'u,v,height'."""
    groups = [part.split(":") for part in text.split(",")]
    form = [list(names) for _, names in groupby(space.coord_names, lambda n: n.split("_")[0])]
    if [len(g) for g in groups] != [len(g) for g in form]:
        expected = ",".join(":".join(names) for names in form)
        raise ValueError(f"--start-coords {text!r} does not have the form {expected!r}")
    return space.from_coords([float(v) for g in groups for v in g])


def _scenario_and_start(args: argparse.Namespace) -> tuple[Scenario, object, str]:
    """Build the scenario from the parameter options and pick its start point.

    Returns ``(scenario, start, label)``; the label is ``"explicit"`` for
    ``--start-coords``.
    """
    params = {name: getattr(args, name) for name in _SCENARIO_PARAMS
              if getattr(args, name) is not None}
    scenario = build_scenario(args.scenario, **params)
    if args.start_coords is not None:
        return scenario, _parse_coords(scenario.space, args.start_coords), "explicit"
    label = args.start or scenario.default_start
    try:
        return scenario, scenario.start(label), label
    except KeyError:
        raise ValueError(
            f"unknown start {label!r}; available: {', '.join(scenario.starts)}"
        ) from None


def _out_path(args: argparse.Namespace, scenario: Scenario) -> str:
    if args.out:
        return args.out
    out_dir = os.environ.get("CYCPROJ_OUT_DIR", ".")
    ext = "csv" if args.format == "csv" else "json"
    return os.path.join(out_dir, f"{scenario.name}-n{args.n}.{ext}")


# ---------------------------------------------------------------------------
# Commands


def _run(args: argparse.Namespace):
    """Run one scenario as the run options say; the body of run, rate and sweep.

    Returns ``(scenario, start_label, trace, fit, summary)``: ``fit`` is the
    rate fit over ``args.rate_window``, or None without one.  A run that fails
    on its first cycle has nothing to classify, so its summary says why.
    """
    scenario, start, start_label = _scenario_and_start(args)
    trace = iterate(scenario.space, scenario.sets, start, args.n,
                    tol=args.tol, stride=args.stride)
    if trace.completed == 0:
        summary = {"scenario": scenario.name, "n": 0, "failed": True,
                   "failure": trace.failure}
        return scenario, start_label, trace, None, summary
    fit = None if args.rate_window is None else rate_fit(trace, tuple(args.rate_window))
    summary = traceio.summary_dict(trace, verdict(trace), scenario=scenario.name,
                                   params=dict(scenario.params),
                                   slope=None if fit is None else fit.slope)
    return scenario, start_label, trace, fit, summary


def _execute_run(args: argparse.Namespace) -> int:
    """Run, write the trace file and report; returns the exit code."""
    scenario, start_label, trace, fit, summary = _run(args)
    path = _out_path(args, scenario)
    if args.format == "csv":
        traceio.write_trace_csv(trace, path)
    else:
        traceio.write_trace_json(trace, summary, path)
    if trace.completed == 0:
        print(f"numerical failure on the first cycle: {trace.failure}; "
              f"partial trace written to {path}", file=sys.stderr)
        return EXIT_NUMERICAL

    slope_text = "n/a" if summary["slope"] is None else f"{summary['slope']:.6g}"
    print(f"scenario={scenario.name} n={trace.completed} start={start_label} "
          f"verdict={summary['verdict']} final_r={summary['final_r']:.9g} "
          f"liminf_r={summary['liminf_r']:.9g} slope={slope_text} out={path}")
    if fit is not None:
        lo = max(1, args.rate_window[0])
        hi = min(trace.completed - 1, args.rate_window[1])
        lo_val = math.sqrt(lo) * float(trace.r[lo])
        hi_val = math.sqrt(hi) * float(trace.r[hi])
        print(f"rate: slope={fit.slope:.6g} intercept={fit.intercept:.6g} "
              f"sqrt(n)*r at n={lo}: {lo_val:.6g}; at n={hi}: {hi_val:.6g}")

    if trace.failed:
        print(f"numerical failure after {trace.completed} cycles: {trace.failure}; "
              f"partial trace written to {path}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_rate(args: argparse.Namespace) -> int:
    # rate always fits: over --rate-window, or [n/10, n] without one
    args.rate_window = args.rate_window or (max(1, args.n // 10), args.n)
    return _execute_run(args)


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(args.suite, seed=args.seed)
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_OK if not failed else 1


def _sweep_worker(payload: tuple) -> tuple[dict, int]:
    """One grid run: its sweep entry and the exit code ``run`` would give it."""
    index, args = payload
    try:
        summary = _run(args)[-1]
    except Exception as exc:  # per-run failures recorded, sweep continues
        code = EXIT_USAGE if isinstance(exc, _USAGE_ERRORS) else EXIT_NUMERICAL
        return {"grid_index": index, "error": str(exc)}, code
    return {**summary, "grid_index": index}, EXIT_NUMERICAL if summary["failed"] else EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    values_text = args.values.strip()
    values = [v.strip() for v in values_text.split(",") if v.strip()] if values_text else []
    caster = int if args.param == "k" else float
    grid = [caster(v) for v in values]

    payloads = [(i, argparse.Namespace(**{**vars(args), args.param: value}))
                for i, value in enumerate(grid)]

    if args.jobs > 1 and payloads:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            outcomes = list(pool.map(_sweep_worker, payloads))
    else:
        outcomes = [_sweep_worker(payload) for payload in payloads]
    results = [entry for entry, _ in outcomes]
    codes = {code for _, code in outcomes}
    errors = sum(code != EXIT_OK for _, code in outcomes)

    scenario_label = args.scenario
    out = args.out or os.path.join(os.environ.get("CYCPROJ_OUT_DIR", "."),
                                   f"{scenario_label}-sweep-{args.param}.json")
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(results, fh, sort_keys=True)
        fh.write("\n")
    print(f"sweep: {len(grid)} runs, {errors} failed, results in {out}")
    # a usage error outranks a numerical failure
    return EXIT_USAGE if EXIT_USAGE in codes else max(codes, default=EXIT_OK)


_COMMANDS = {
    "run": _execute_run,
    "verify": cmd_verify,
    "rate": cmd_rate,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help (0) or a bad flag (2)
        return int(exc.code or 0)
    try:
        if args.command in ("run", "rate", "sweep"):
            _merge_config(args)
        return _COMMANDS[args.command](args)
    except _USAGE_ERRORS as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
