"""Trace export and import: CSV rows and JSON summaries.

CSV layout is fixed for downstream plotting: columns ``n, r, s, a, b``
followed by the coordinates of x_n, named by the space's ``coord_names``.
Scalars missing at an index (NaN diagnostics, steps past the end, decimated
points) are written as empty fields, and NaN as JSON null; +inf and -inf are
``inf`` and ``-inf`` in both formats, and JSON output is strict.  Files are
UTF-8 with a header row, '.' decimals, and LF line ends.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from itertools import zip_longest

import numpy as np

from .engine import RegularityVerdict, Trace, _sum_r_sq, _tail_slope

__all__ = [
    "write_trace_csv",
    "read_trace_csv",
    "summary_dict",
    "write_trace_json",
    "write_json",
]


def _fmt(value: float | None) -> str:
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return repr(float(value))


def write_trace_csv(trace: Trace, path) -> None:
    """One row per cycle index 0..completed; coords only where stored."""
    space = trace.space
    stored = dict(zip(trace.point_indices.tolist(), trace.coords))
    blank = (None,) * len(space.coord_names)  # _fmt writes None as an empty field
    scalars = [() if col is None else col for col in (trace.r, trace.s, trace.a, trace.b)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "r", "s", "a", "b", *space.coord_names])
        for i, *values in zip_longest(range(trace.completed + 1), *scalars):
            writer.writerow([str(i), *map(_fmt, values), *map(_fmt, stored.get(i, blank))])


def read_trace_csv(path) -> dict[str, list]:
    """Read a trace CSV back into columns (floats, None for empty fields); a row
    with more or fewer cells than the header raises ``ValueError``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        headers = next(reader, None)
        if headers is None:
            raise ValueError(f"{path}: empty trace file, no header row")
        columns: dict[str, list] = {h: [] for h in headers}
        for row in reader:
            if len(row) != len(headers):
                raise ValueError(f"{path}: line {reader.line_num} has {len(row)} cells, "
                                 f"the header has {len(headers)}")
            for h, cell in zip(headers, row):
                columns[h].append(float(cell) if cell != "" else None)
    return columns


def summary_dict(trace: Trace, v: RegularityVerdict | None, *, scenario: str,
                 params: dict, slope: float | None = None) -> dict:
    """The stable machine-readable run summary; a failed run adds its ``failure`` text.

    ``v`` is None for a run that failed on its first cycle, which has nothing
    to classify: its verdict, final_r and liminf_r are then None.  ``slope``
    defaults to the rate fit over the verdict's tail, or None.
    """
    summary = {
        "scenario": scenario,
        "params": {k: int(val) if isinstance(val, numbers.Integral) else float(val)
                   for k, val in params.items()},
        "n": trace.completed,
        "verdict": v and v.classification,
        "final_r": v and v.final_r,
        "liminf_r": v and v.liminf_r,
        "slope": slope if slope is not None else _tail_slope(trace),
        "sums": {"r_sq": _sum_r_sq(trace)},
        "failed": trace.failed,
    }
    if trace.failed:
        summary["failure"] = trace.failure
    return summary


def _json_value(value):
    """The one non-finite rule, through dicts and arrays: NaN as null, ±inf as "inf" and
    "-inf"; a list, such as the trace's points (finite by construction), passes as it is."""
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):  # a Python call only for each non-finite slot
        out = value.tolist()
        for i in np.flatnonzero(~np.isfinite(value)).tolist():
            out[i] = _json_value(out[i])
        return out
    if isinstance(value, float) and not math.isfinite(value):
        return None if math.isnan(value) else "inf" if value > 0 else "-inf"
    return value


def write_json(obj, path) -> None:
    """Write ``obj``, a summary or a list of sweep entries, as one line of strict JSON
    with sorted keys, streamed by ``json.dump`` (``json.dumps`` is faster but holds
    every chunk of the document at once)."""
    payload = list(map(_json_value, obj)) if isinstance(obj, list) else _json_value(obj)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_trace_json(trace: Trace, summary: dict, path) -> None:
    write_json({**summary, "trace": {
        "point_indices": trace.point_indices, "points": trace.coords,
        "r": trace.r, "s": trace.s, "a": trace.a, "b": trace.b}}, path)
