"""Trace export and import: CSV rows and JSON summaries.

CSV layout is fixed for downstream plotting: columns ``n, r, s, a, b``
followed by the coordinates of x_n, named by the space's ``coord_names``.
Scalars missing at an index (NaN diagnostics, steps past the end, decimated
points) are written as empty fields.  Files are UTF-8 with a header row,
'.' decimals, and LF line ends.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from itertools import zip_longest

import numpy as np

from .engine import RegularityVerdict, Trace

__all__ = [
    "write_trace_csv",
    "read_trace_csv",
    "summary_dict",
    "write_trace_json",
]


def _fmt(value: float | None) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return repr(float(value))


def write_trace_csv(trace: Trace, path) -> None:
    """One row per cycle index 0..completed; coords only where stored."""
    space = trace.space
    stored = {int(i): p for i, p in zip(trace.point_indices, trace.points)}
    blank = [""] * len(space.coord_names)
    scalars = [() if col is None else col for col in (trace.r, trace.s, trace.a, trace.b)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "r", "s", "a", "b", *space.coord_names])
        for i, *values in zip_longest(range(trace.completed + 1), *scalars):
            point = stored.get(i)
            coords = blank if point is None else map(_fmt, space.to_coords(point))
            writer.writerow([str(i), *map(_fmt, values), *coords])


def read_trace_csv(path) -> dict[str, list]:
    """Read a trace CSV back into columns (floats, None for empty fields)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        headers = next(reader)
        columns: dict[str, list] = {h: [] for h in headers}
        for row in reader:
            for h, cell in zip(headers, row):
                columns[h].append(float(cell) if cell != "" else None)
    return columns


def _clean(value):
    if value is None:
        return None
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def summary_dict(trace: Trace, v: RegularityVerdict, *, scenario: str,
                 params: dict, slope: float | None = None) -> dict:
    """The stable machine-readable run summary; a failed run adds its ``failure`` text."""
    r = trace.r
    sum_r_sq = float(np.sum(r[1:] ** 2)) if trace.completed >= 2 else 0.0
    summary = {
        "scenario": scenario,
        "params": {k: int(val) if isinstance(val, numbers.Integral) else _clean(float(val))
                   for k, val in params.items()},
        "n": trace.completed,
        "verdict": v.classification,
        "final_r": _clean(v.final_r),
        "liminf_r": _clean(v.liminf_r),
        "slope": _clean(slope if slope is not None else v.rate_slope),
        "sums": {"r_sq": sum_r_sq},
        "failed": trace.failed,
    }
    if trace.failed:
        summary["failure"] = trace.failure
    return summary


def _array_json(arr) -> list | None:
    if arr is None:
        return None
    return [_clean(float(v)) for v in arr]


def write_trace_json(trace: Trace, summary: dict, path) -> None:
    payload = dict(summary)
    payload["trace"] = {
        "point_indices": [int(i) for i in trace.point_indices],
        "points": [trace.space.to_coords(p) for p in trace.points],
        "r": _array_json(trace.r),
        "s": _array_json(trace.s),
        "a": _array_json(trace.a),
        "b": _array_json(trace.b),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
