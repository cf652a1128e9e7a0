"""Command-line front end: run scenarios, verify invariants, fit rates, sweep.

Exit codes are a stable contract: 0 on success, 2 on usage errors (unknown
scenario or suite, bad parameters, a start with two nearest lifts of a
disc), 3 on numerical failure (the trace file is still written, truncated
and flagged).  A sweep exits 2 when any of its runs is a usage error, else
3 when any failed.  A worker process of ``sweep --jobs N`` or ``verify`` that
dies (a signal, an out-of-memory kill) ends the command with one ``error:``
line and exit 3.  The run options may also be supplied as ``key=value``
lines in a ``--config`` file.  Each line is read as the flag it names, placed
before the command line's flags: argparse converts and checks it as it does
the flag, and an explicit flag wins.  The scenario flags are the keyword
parameters of the builders in ``scenarios.SCENARIO_BUILDERS``, each typed as
its default.  The only environment variable consulted is ``CYCPROJ_OUT_DIR``
(default output directory).  ``verify`` and ``sweep`` import ``cycproj.verify``
when they run, so ``run`` and ``rate`` start without it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from inspect import signature
from itertools import groupby

from . import traceio
from .engine import iterate, rate_fit, verdict
from .projections import AmbiguousProjectionError
from .scenarios import SCENARIO_BUILDERS, Scenario, build_scenario

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# Exceptions that make a usage error, in main and in each sweep run.  Only a
# start point can make a projection ambiguous here: a chain's discs are always a
# third of a loop apart, so no later point is half a loop from the next disc.
_USAGE_ERRORS = (KeyError, ValueError, TypeError, OSError, AmbiguousProjectionError)

# Scenario parameters in catalogue order, each typed as its builder's default:
# the type of its flag and of a swept grid value.
_SCENARIO_PARAMS = {name: type(param.default) for builder in SCENARIO_BUILDERS.values()
                    for name, param in signature(builder).parameters.items()}

# verify.suite_names(), spelled out so that building the parser imports no suite
_SUITE_NAMES = ("metric", "projections", "two-set", "counterexamples", "all")

# The options a config file may set: every run option but the scenario and --config.
_CONFIG_KEYS = ("n", "start", "start_coords", "stride", "out", "format", "rate_window",
                *_SCENARIO_PARAMS)


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("scenario", help="scenario name (see 'cycproj run --help')")
    parser.add_argument("--n", type=int, default=100, help="number of cycles (default 100)")
    parser.add_argument("--start", help="label of a recommended start point")
    parser.add_argument("--start-coords",
                        help="explicit start: plane 'x,y'; tree product "
                             "'leg:off,leg:off'; chain 'u,v,height'")
    parser.add_argument("--stride", type=int, help="point storage stride")
    parser.add_argument("--out", help="output trace path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="trace file format (default csv)")
    parser.add_argument("--rate-window", type=int, nargs=2, metavar=("LO", "HI"),
                        help="fit log r vs log n over this index window")
    parser.add_argument("--config", help="key=value config file; flags win")
    for scenario, builder in SCENARIO_BUILDERS.items():
        for name, param in signature(builder).parameters.items():
            parser.add_argument(f"--{name}", type=_SCENARIO_PARAMS[name],
                                help=f"{scenario} parameter (default {param.default:g})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycproj",
        description="Cyclic closest-point projections on the benchmark scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and export its trace")
    _add_run_options(p_run)

    p_verify = sub.add_parser("verify", help="run an invariant suite")
    p_verify.add_argument("suite", help=f"one of: {', '.join(_SUITE_NAMES)}")
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


def _config_argv(path: str) -> list[str]:
    """The flags a config file's ``key=value`` lines name, in file order.

    A single value is written ``--flag=value``, so that a value such as
    ``-0.5,0`` is not read as an option.
    """
    argv: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            flag = "--" + key.replace("_", "-")
            if key == "rate_window":
                # checked here: a wrong count would make argparse blame the next word
                words = value.split()
                if len(words) != 2:
                    raise ValueError("config key 'rate_window' takes 2 values")
                argv += [flag, *words]
            else:
                argv.append(f"{flag}={value.strip()}")
    return argv


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


def _out_path(args: argparse.Namespace, name: str) -> str:
    """``--out``, or the file ``name`` in ``CYCPROJ_OUT_DIR`` (default: here)."""
    return args.out or os.path.join(os.environ.get("CYCPROJ_OUT_DIR", "."), name)


# ---------------------------------------------------------------------------
# Commands


def _run(args: argparse.Namespace):
    """Run one scenario as the run options say; the body of run, rate and sweep.

    Returns ``(scenario, start_label, trace, fit, summary)``: ``fit`` is the
    rate fit over ``args.rate_window``, or None without one.  A run that fails
    on its first cycle has nothing to classify or fit, so both are None; a run
    that fails before a well-formed window has no fit either, and still exits 3.
    """
    scenario, start, start_label = _scenario_and_start(args)
    trace = iterate(scenario.space, scenario.sets, start, args.n, stride=args.stride)
    ran = trace.completed > 0
    fit = None
    if ran and args.rate_window:
        lo, hi = args.rate_window
        if not (trace.failed and 1 <= lo < hi and trace.completed - 1 <= lo):
            fit = rate_fit(trace, (lo, hi))
    summary = traceio.summary_dict(trace, verdict(trace) if ran else None, scenario=scenario.name,
                                   params=dict(scenario.params),
                                   slope=None if fit is None else fit.slope)
    return scenario, start_label, trace, fit, summary


def _execute_run(args: argparse.Namespace) -> int:
    """Run, write the trace file and report; returns the exit code."""
    scenario, start_label, trace, fit, summary = _run(args)
    path = _out_path(args, f"{scenario.name}-n{args.n}.{args.format}")
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
        lo = args.rate_window[0]
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
    # rate always fits: over --rate-window, or [n/10, n] without one, which needs two steps
    if not args.rate_window and args.n < 3:
        raise ValueError(f"rate needs --n >= 3 to fit a slope, got {args.n}")
    args.rate_window = args.rate_window or (max(1, args.n // 10), args.n)
    return _execute_run(args)


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_suite
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
    from .verify import fork_map
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    kind = _SCENARIO_PARAMS[args.param]
    grid = [kind(v) for v in map(str.strip, args.values.split(",")) if v]

    payloads = [(i, argparse.Namespace(**{**vars(args), args.param: value}))
                for i, value in enumerate(grid)]

    workers = min(args.jobs, len(payloads))  # fork starts them all at the first submit
    outcomes = (fork_map(workers, _sweep_worker, payloads) if workers > 1
                else [_sweep_worker(payload) for payload in payloads])
    results = [entry for entry, _ in outcomes]
    codes = {code for _, code in outcomes}
    errors = sum(code != EXIT_OK for _, code in outcomes)

    out = _out_path(args, f"{args.scenario}-sweep-{args.param}.json")
    traceio.write_json(results, out)
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
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # config flags go right after the command, so the user's own flags win
            at = argv.index(args.command) + 1
            args = parser.parse_args([*argv[:at], *_config_argv(args.config), *argv[at:]])
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # --help (0) or a bad flag or config value (2)
        return int(exc.code or 0)
    except _USAGE_ERRORS as exc:
        # an OSError's args[0] is its errno, and str() of a KeyError quotes its text
        message = exc if isinstance(exc, OSError) or not exc.args else exc.args[0]
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:  # imported here, as the pool is: start-up needs neither
        from concurrent.futures.process import BrokenProcessPool
        if not isinstance(exc, BrokenProcessPool):
            raise
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
