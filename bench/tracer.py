"""Span-recording shims around cycproj's public functions.

A :class:`Tracer` used as a context manager rebinds every name under which
a cycproj module holds one of the traced functions (``cycproj.engine.project``
is the name ``cycle_apply`` calls, ``cycproj.verify.iterate`` the one the
suites call, and so on), and wraps ``distance`` on the space classes.  On
exit every binding is put back to the very object it held before.  No
program file is edited.

Only entry points are wrapped, to keep the cost per cycle low: ``project``
everywhere, the two segment projectors only where callers outside
``cycproj.projections`` reach them (``project`` dispatches to them
unwrapped), and ``distance`` of the spaces that are iterated in (a product
space's calls to its factor trees count as its own time).

Per-projection spans run into the millions, so spans are aggregated in
memory: count, total time, self time and a unit count per (span, parent).
Self time is a span's duration minus the time of the spans it directly
encloses; a call into the family of the innermost open span is folded
into it.  Individual spans are kept only for the coarse boundaries: CLI
commands and verify suites.
"""

from __future__ import annotations

import sys
import time

_SPACE_CLASSES = ("Plane", "ProductSpace", "TwistedChain")
_SEGMENT_PROJECTORS = ("project_segment_generic", "project_segment_tree_exact")


def rebind(original, replacement, *, exclude: str | None = None) -> list[tuple[object, str, object]]:
    """Point every cycproj module name bound to ``original`` at ``replacement``.

    The module named ``exclude`` keeps its binding.  Returns the undo list
    of ``(module, name, original)``.
    """
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or mod_name == exclude or not (
                mod_name == "cycproj" or mod_name.startswith("cycproj.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


class Tracer:
    """Aggregating span recorder; install with ``with Tracer() as tracer:``."""

    def __init__(self) -> None:
        # Open spans as [family, time of direct children]; the root frame
        # stands for "no parent" so a shim never tests for an empty stack.
        self.stack: list[list] = [[None, 0.0]]
        self.tables: list[tuple[str, bool, dict]] = []  # (family, named, table)
        self.spans: list[dict] = []  # coarse spans, in end order
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, family: str, *, name_of=None, units_of=None, coarse: bool = False):
        """Return a shim that records a span around each call of ``fn``.

        ``name_of(args, result)`` names the span (default: the family) and
        ``units_of(args, result)`` counts the work it did.  Each shim keeps
        its own table, keyed by parent (or by (name, parent) when named), of
        [count, total_s, self_s, units].
        """
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        table: dict = {}
        self.tables.append((family, name_of is not None, table))

        def shim(*args, **kwargs):
            top = stack[-1]
            if top[0] is family:
                return fn(*args, **kwargs)
            frame = [family, 0.0]
            stack.append(frame)
            result = None
            done = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                elapsed = clock() - t0
                stack.pop()
                top[1] += elapsed
                parent = top[0]
                key = (name_of(args, result) if done else family, parent) if name_of else parent
                entry = table.get(key)
                if entry is None:
                    entry = table[key] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
                if units_of is not None and done:
                    entry[3] += units_of(args, result)
                if coarse:
                    spans.append({"name": key[0] if name_of else family, "parent": parent,
                                  "start": t0, "seconds": elapsed,
                                  "self_seconds": elapsed - frame[1]})

        return shim

    def __enter__(self) -> "Tracer":
        import cycproj.cli as cli
        import cycproj.engine as engine
        import cycproj.projections as projections
        import cycproj.spaces as spaces
        import cycproj.traceio as traceio
        import cycproj.verify as verify

        def solver(args, result):
            return "projections." + result.solver

        def rows_written(args, result):
            return args[0].completed + 1

        try:
            self._undo += rebind(projections.project, self.wrap(
                projections.project, "projections", name_of=solver))
            for attr in _SEGMENT_PROJECTORS:
                fn = getattr(projections, attr)
                self._undo += rebind(fn, self.wrap(fn, "projections", name_of=solver),
                                     exclude=projections.__name__)
            for cls_name in _SPACE_CLASSES:
                cls = getattr(spaces, cls_name)
                original = cls.__dict__["distance"]
                setattr(cls, "distance", self.wrap(original, "spaces.distance"))
                self._undo.append((cls, "distance", original))
            self._undo += rebind(engine.iterate, self.wrap(
                engine.iterate, "engine.iterate", units_of=lambda a, r: r.completed))
            for fn in (engine.two_set_diagnostics, engine.rate_fit, engine.verdict):
                self._undo += rebind(fn, self.wrap(fn, "engine." + fn.__name__))
            self._undo += rebind(traceio.write_trace_csv, self.wrap(
                traceio.write_trace_csv, "traceio.csv_write", units_of=rows_written))
            self._undo += rebind(traceio.write_trace_json, self.wrap(
                traceio.write_trace_json, "traceio.json_write", units_of=rows_written))
            self._undo += rebind(traceio.read_trace_csv, self.wrap(
                traceio.read_trace_csv, "traceio.csv_read",
                units_of=lambda a, r: len(r["n"])))
            self._undo += rebind(verify.run_suite, self.wrap(
                verify.run_suite, "verify", name_of=lambda a, r: "verify." + a[0],
                units_of=lambda a, r: len(r), coarse=True))
            self._undo += rebind(cli.main, self.wrap(
                cli.main, "cli", name_of=lambda a, r: "cli." + a[0][0], coarse=True))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- queries over the aggregate ---------------------------------------

    @property
    def agg(self) -> dict[tuple[str, str | None], list]:
        """(span, parent) -> [count, total_s, self_s, units], over all shims."""
        merged: dict = {}
        for family, named, table in self.tables:
            for key, entry in table.items():
                span_key = key if named else (family, key)
                into = merged.setdefault(span_key, [0, 0.0, 0.0, 0])
                for i, value in enumerate(entry):
                    into[i] += value
        return merged

    def totals(self, name: str, parents=None) -> tuple[int, float, float, int]:
        """Summed (count, total_s, self_s, units) of ``name`` under ``parents``."""
        count, total, self_s, units = 0, 0.0, 0.0, 0
        for (span, parent), entry in self.agg.items():
            if span == name and (parents is None or parent in parents):
                count += entry[0]
                total += entry[1]
                self_s += entry[2]
                units += entry[3]
        return count, total, self_s, units
