"""Run the benchmark on two checkouts in alternating pairs and summarize.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload NAME \\
        --pairs N --seed S --out FILE

Pair i runs ``bench/run.py --workload NAME --seed S+i --seconds T --trace 0
--out RECORD`` in each checkout, the parent first when i is even and the
change first when it is odd, so drift on a shared host falls on both sides.
T is ``run_seconds`` in the change's ``BENCHMARK.json``, which also gives
each end-to-end metric's direction and bound.  Each run uses its own
checkout's ``bench/``; this script only reads the records.

``--out`` holds one section per workload: every record and a summary.  A
section for another workload already in the file is kept, so one file can
collect several workloads.  The summary gives, per metric, each side's
median and quartiles, the change's wins (ties count for neither side), the
gap between the medians and whether it exceeds the parent's interquartile
range, whether the change's median is worse than the parent's by more than
the metric's bound, and whether the metric is unresolved: either side's
interquartile range, relative to its median, wider than the bound, unless
every run of the change reads better than every run of the parent.  A gain
holds when at least ten pairs ran, the change wins at least nine tenths of
all of them (a pair with a failed run is not a win), its median is better by
more than the parent's interquartile range, and it has no more failed runs
and no more failed operations than the parent.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
MIN_PAIRS = 10     # pairs a gain needs
WIN_SHARE = 0.9    # share of all pairs the change must win


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``; its full record, or why it failed."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "record.json"
        cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", "0", "--out", str(out)]
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=600 + 20 * seconds)
        if proc.returncode != 0 or not out.is_file():
            return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        return json.loads(out.read_text(encoding="utf-8"))


def quartiles(values: list[float]) -> list[float]:
    """Lower quartile, median and upper quartile (inclusive method)."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def relative_iqr(q: list[float]) -> float:
    """Interquartile range over the median; infinite for a spread about a median of 0."""
    spread = q[2] - q[0]
    return spread / abs(q[1]) if q[1] else (math.inf if spread else 0.0)


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per-metric medians, quartiles, wins and verdicts.

    Values come from the completed pairs; a gain is judged against all pairs.
    """
    done = [p for p in pairs if all("error" not in p[side] for side in SIDES)]
    summary = {"pairs": len(pairs), "completed_pairs": len(done),
               "quartile_method": "statistics.quantiles(n=4, method='inclusive')"}
    for side in SIDES:
        records = [p[side] for p in pairs]
        summary[f"{side}_operations"] = {
            "attempted": sum(r["result"]["attempted"] for r in records if "error" not in r),
            "failed": sum(r["result"]["failed"] for r in records if "error" not in r),
            "failed_runs": sum("error" in r for r in records),
        }
    if not done:
        return summary
    no_more_failures = all(summary["change_operations"][key] <= summary["parent_operations"][key]
                           for key in ("failed", "failed_runs"))
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        values = {side: [p[side]["result"]["metrics"][name]["value"] for p in done]
                  for side in SIDES}
        q_parent, q_change = quartiles(values["parent"]), quartiles(values["change"])
        gains = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        wins = sum(g > 0 for g in gains)
        gap = q_change[1] - q_parent[1]
        iqr = q_parent[2] - q_parent[0]
        relative = gap / q_parent[1] if q_parent[1] else 0.0
        spread = max(relative_iqr(q_parent), relative_iqr(q_change))
        separated = (min(sign * c for c in values["change"])
                     > max(sign * p for p in values["parent"]))
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "parent": values["parent"], "change": values["change"],
            "parent_quartiles": q_parent, "change_quartiles": q_change,
            "median_gap": gap, "relative_gap": relative,
            "parent_iqr": iqr, "gap_exceeds_parent_iqr": abs(gap) > iqr,
            "wins": wins, "losses": sum(g < 0 for g in gains),
            "gain_holds": (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
                           and sign * gap > iqr and no_more_failures),
            "bound": metric["bound"], "worse_beyond_bound": -sign * relative > metric["bound"],
            "unresolved": spread > metric["bound"] and not separated,
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = float(benchmark["run_seconds"])
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(checkouts[side], args.workload, seed, seconds)
            result = pair[side].get("result", pair[side])
            print(f"{args.workload} pair {i} seed {seed} {side}: {json.dumps(result)}",
                  flush=True)
        pairs.append(pair)

    data = json.loads(args.out.read_text(encoding="utf-8")) if args.out.is_file() else {}
    data.setdefault("workloads", {})[args.workload] = {
        "command": f"python3 bench/run.py --workload {args.workload} --seed SEED "
                   f"--seconds {seconds!r} --trace 0 --out RECORD",
        "git_sha": {side: sorted({p[side]["provenance"]["git_sha"] for p in pairs
                                  if "error" not in p[side]}) for side in SIDES},
        "first_seed": args.seed,
        "summary": summarize(pairs, benchmark["end_to_end"]),
        "pairs": pairs,
    }
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    summary = data["workloads"][args.workload]["summary"]
    for metric in benchmark["end_to_end"]:
        s = summary.get(metric["name"])
        if s is not None:
            print(f"{metric['name']:<14} parent {s['parent_quartiles'][1]:.6g} "
                  f"change {s['change_quartiles'][1]:.6g} {s['unit']}  "
                  f"wins {s['wins']}/{summary['pairs']}  "
                  f"gap>IQR {s['gap_exceeds_parent_iqr']}  gain {s['gain_holds']}  "
                  f"worse>bound {s['worse_beyond_bound']}  unresolved {s['unresolved']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
