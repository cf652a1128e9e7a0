"""Trace export and import: CSV rows and JSON summaries.

CSV layout is fixed for downstream plotting: columns ``n, r, s, a, b``
followed by the coordinates of x_n, named by the space's ``coord_names``.
Scalars missing at an index (NaN diagnostics, steps past the end, decimated
points) are written as empty fields, and NaN as JSON null; +inf and -inf are
``inf`` and ``-inf`` in both formats, and JSON output is strict.  Files are
UTF-8 with a header row, '.' decimals, and LF line ends, and are written block
by block, ``_BLOCK`` rows or list items at a time, so a write's memory does not
grow with the trace; each JSON block passes the one non-finite rule, ``_json_value``.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from itertools import chain

import numpy as np

from .engine import RegularityVerdict, Trace, _sum_r_sq, _tail_slope

__all__ = [
    "write_trace_csv",
    "read_trace_csv",
    "summary_dict",
    "write_trace_json",
    "write_json",
]

_BLOCK = 512  # rows, or list items, encoded at a time: the bound on a write's memory


def _cells(values: np.ndarray, width: int = 0) -> list[str]:
    """A float column's CSV cells: ``repr``, or empty for NaN, padded to ``width``."""
    cells = list(map(repr, values.tolist()))
    for i in np.flatnonzero(np.isnan(values)).tolist():
        cells[i] = ""
    return cells + [""] * (width - len(cells))


def write_trace_csv(trace: Trace, path) -> None:
    """One row per cycle index 0..completed; coords only where stored.  Rows are
    encoded ``_BLOCK`` at a time, column by column, and written a block per call."""
    names = trace.space.coord_names
    blank = "," * (len(names) - 1)  # the empty coordinate cells of a row with no stored point
    scalars = [np.empty(0) if col is None else col for col in (trace.r, trace.s, trace.a, trace.b)]
    indices, rows, j = trace.point_indices, trace.completed + 1, 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["n", "r", "s", "a", "b", *names]) + "\n")
        for lo in range(0, rows, _BLOCK):
            hi = min(lo + _BLOCK, rows)
            k = int(indices.searchsorted(hi))  # the stored points of this block are j..k-1
            stored = iter(_cells(np.array(trace.coords[j:k], dtype=float).ravel()))
            points = [blank] * (hi - lo)
            for i, point in zip(indices[j:k].tolist(), map(",".join, zip(*[stored] * len(names)))):
                points[i - lo] = point
            cells = [_cells(col[lo:hi], hi - lo) for col in scalars]
            fh.write("\n".join(map(",".join, zip(map(str, range(lo, hi)), *cells, points))) + "\n")
            j = k


def _extend(columns: list[list], rows: list[list[str]]) -> None:
    """Append ``rows`` of CSV cells to ``columns``, one call per column: floats, None for
    empty cells.  A bad cell raises for the rows' first one in file order."""
    try:
        for column, cells in zip(columns, zip(*rows)):
            column.extend(map(float, cells) if "" not in cells else
                          [float(cell) if cell else None for cell in cells])
    except ValueError:  # convert again, row by row, to raise for the first bad cell
        list(map(float, filter(None, chain.from_iterable(rows))))
        raise


def read_trace_csv(path) -> dict[str, list]:
    """Read a trace CSV back into columns (floats, None for empty fields), ``_BLOCK`` rows
    at a time; a row with more or fewer cells than the header raises ``ValueError``."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        headers = next(reader, None)
        if headers is None:
            raise ValueError(f"{path}: empty trace file, no header row")
        columns: list[list] = [[] for _ in headers]
        block: list[list[str]] = []  # rows read and not yet converted
        for row in reader:
            if len(row) != len(headers):
                _extend(columns, block)  # a bad cell above this row is the first fault
                raise ValueError(f"{path}: line {reader.line_num} has {len(row)} cells, "
                                 f"the header has {len(headers)}")
            block.append(row)
            if len(block) == _BLOCK:
                _extend(columns, block)
                block = []
        _extend(columns, block)
    return dict(zip(headers, columns))


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


_encode = json.JSONEncoder(sort_keys=True, allow_nan=False).encode  # the C encoder


def _json_chunks(value):
    """The strict JSON text of ``value`` in pieces: a dict key by key, in sorted order,
    and a list or array ``_BLOCK`` items at a time."""
    if isinstance(value, dict):
        yield "{"
        for i, key in enumerate(sorted(value)):
            yield f"{', ' if i else ''}{_encode(key)}: "
            yield from _json_chunks(value[key])
        yield "}"
    elif isinstance(value, (list, np.ndarray)) and len(value) > _BLOCK:
        yield "["
        for lo in range(0, len(value), _BLOCK):
            yield f"{', ' if lo else ''}{_encode(_json_value(value[lo:lo + _BLOCK]))[1:-1]}"
        yield "]"
    else:
        yield _encode(_json_value(value))


def write_json(obj, path) -> None:
    """Write ``obj``, a summary or a list of sweep entries, as one line of strict JSON
    with sorted keys, block by block (``_json_chunks``): each block passes the one
    non-finite rule, ``_json_value``, and the C encoder, never the whole document."""
    payload = list(map(_json_value, obj)) if isinstance(obj, list) else obj
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_json_chunks(payload))
        fh.write("\n")


def write_trace_json(trace: Trace, summary: dict, path) -> None:
    write_json({**summary, "trace": {
        "point_indices": trace.point_indices, "points": trace.coords,
        "r": trace.r, "s": trace.s, "a": trace.a, "b": trace.b}}, path)
