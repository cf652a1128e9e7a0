"""Correctness gate: each check returns the list of problems it found.

An empty list means the operation passed.  An operation is one ``iterate``,
one CLI command or one verify check; the benchmark's error rate is the
share of operations with at least one problem.
"""

from __future__ import annotations

import math
import re

import numpy as np

SLOPE_TOL = 0.05       # |fitted slope - (-(1+eps)/(2+eps))|
TRIPOD_TOL = 1e-12     # |r_n - |1 - 2t||
CHAIN_TOL = 1e-9       # |r_n - 2 radius |sin(alpha/2)||
FINAL_R_RTOL = 1e-8    # CLI prints final_r with 9 significant digits


def _completed(trace, cycles: int) -> list[str]:
    if trace.failed or trace.completed != cycles:
        return [f"ran {trace.completed} of {cycles} cycles (failure: {trace.failure})"]
    return []


def check_two_set(trace, report, fit, verdict, epsilon: float, cycles: int) -> list[str]:
    """Interleaving chains hold, the rate matches the paper, steps vanish."""
    problems = _completed(trace, cycles)
    if not report.passed:
        problems.append(f"two-set inequalities fail: {report}")
    expected = -(1.0 + epsilon) / (2.0 + epsilon)
    if not abs(fit.slope - expected) <= SLOPE_TOL:
        problems.append(f"slope {fit.slope!r} not within {SLOPE_TOL} of {expected!r}")
    if verdict.classification == "NotRegular":
        problems.append("two-set verdict is NotRegular")
    return problems


def criterion3_ratio(trace, cycles: int) -> float:
    """sqrt(n) r_n at n = cycles - 1 over its value two decades earlier.

    Reported, never gated: the true exponent makes it about 0.6, not 0.5.
    """
    hi = cycles - 1
    lo = max(1, hi // 100)
    return math.sqrt(hi) * float(trace.r[hi]) / (math.sqrt(lo) * float(trace.r[lo]))


def _constant_steps(trace, cycles: int, target: float, tol: float, verdict) -> list[str]:
    problems = _completed(trace, cycles)
    worst = float(np.max(np.abs(trace.r - target)))
    if not worst <= tol:
        problems.append(f"step off {target!r} by {worst!r} (tol {tol})")
    if verdict.classification != "NotRegular":
        problems.append(f"verdict {verdict.classification}, expected NotRegular")
    return problems


def check_tripod(trace, verdict, t: float, cycles: int) -> list[str]:
    """From parameter t of the first segment every step is |1 - 2t|."""
    return _constant_steps(trace, cycles, abs(1.0 - 2.0 * t), TRIPOD_TOL, verdict)


def check_chain(trace, verdict, radius: float, alpha: float, cycles: int) -> list[str]:
    """From the boundary every step is the chord 2 radius |sin(alpha/2)|."""
    return _constant_steps(trace, cycles, 2.0 * radius * abs(math.sin(alpha / 2.0)),
                           CHAIN_TOL, verdict)


def printed_final_r(stdout: str) -> float | None:
    match = re.search(r"\bfinal_r=(\S+)", stdout)
    return float(match.group(1)) if match else None


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FINAL_R_RTOL * max(abs(a), abs(b), 1e-300)


def check_cli_csv(code: int, stdout: str, columns: dict, cycles: int) -> list[str]:
    """``run --out x.csv``: exit 0, rows 0..n, last step matches the printed final_r."""
    if code != 0:
        return [f"exit code {code}"]
    problems = []
    index = columns.get("n", [])
    if index != [float(i) for i in range(cycles + 1)]:
        problems.append(f"CSV has {len(index)} rows, expected indices 0..{cycles}")
        return problems
    final_r = printed_final_r(stdout)
    r = columns["r"]
    if final_r is None or r[cycles] is not None or r[cycles - 1] is None \
            or not _close(r[cycles - 1], final_r):
        problems.append(f"CSV r[{cycles - 1}]={r[cycles - 1]!r} disagrees with "
                        f"printed final_r={final_r!r}")
    return problems


def check_cli_json(code: int, stdout: str, payload: dict, cycles: int) -> list[str]:
    """``run --format json``: exit 0, full trace, final step matches the printed final_r."""
    if code != 0:
        return [f"exit code {code}"]
    problems = []
    r = payload.get("trace", {}).get("r") or []
    if payload.get("n") != cycles or payload.get("failed") or len(r) != cycles:
        problems.append(f"JSON trace has n={payload.get('n')!r}, {len(r)} steps, "
                        f"failed={payload.get('failed')!r}; expected {cycles} steps")
        return problems
    final_r = printed_final_r(stdout)
    if final_r is None or r[-1] is None or not _close(r[-1], final_r):
        problems.append(f"JSON r[-1]={r[-1]!r} disagrees with printed final_r={final_r!r}")
    return problems


def check_cli_sweep(code: int, entries: list, count: int) -> list[str]:
    """``sweep``: exit 0, one entry per grid value, none failed."""
    if code != 0:
        return [f"exit code {code}"]
    if len(entries) != count:
        return [f"sweep has {len(entries)} entries, expected {count}"]
    return [f"sweep entry {i} failed: {e}" for i, e in enumerate(entries)
            if "error" in e or e.get("failed")]


def check_verify(result) -> list[str]:
    return [] if result.passed else [result.line()]
