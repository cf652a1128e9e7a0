"""List the statements inside ``src/cycproj`` functions that a pytest run never executes.

    PYTHONPATH=src python tools/uncovered.py [PYTEST ARGUMENTS...]

Runs ``pytest.main`` on the arguments under a ``sys.settrace`` hook that records
the lines run in frames of code in ``src/cycproj/``, then prints, per module, the
first line of each statement inside a function that never ran.  Docstrings, and
``global`` and ``nonlocal``, which run no code, are skipped; a compound statement
ran when a line of its header ran.  Only this process's calling thread is traced:
forked verify workers (the ``metric`` and ``projections`` suites) and ``sweep
--jobs`` workers are not, so lines that only they run are listed.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cycproj"


def statements(source: str) -> list[tuple[int, int]]:
    """(first, last) header line of each statement inside a function, in line order."""
    funcs = [node for node in ast.walk(ast.parse(source))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    docstrings = {id(f.body[0]) for f in funcs if ast.get_docstring(f) is not None}
    spans = set()
    for func in funcs:
        for node in (n for top in func.body for n in ast.walk(top)):
            if (not isinstance(node, ast.stmt) or id(node) in docstrings
                    or isinstance(node, (ast.Global, ast.Nonlocal))):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            nested = [c.lineno for c in ast.iter_child_nodes(node) if isinstance(c, ast.stmt)]
            last = min(nested) - 1 if nested else node.end_lineno
            spans.add((first, max(first, last)))
    return sorted(spans)


def traced(call, package: Path = PACKAGE) -> tuple[object, dict[str, set[int]]]:
    """``call()``'s result and the lines it ran, per file, in frames of files under ``package``."""
    prefix, ran = str(package) + "/", {}

    def line(frame, event, arg):
        if event == "line":
            ran.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return line

    def call_event(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(prefix) else None

    previous = sys.gettrace()
    sys.settrace(call_event)
    try:
        return call(), ran
    finally:
        sys.settrace(previous)


def report(ran: dict[str, set[int]], package: Path = PACKAGE) -> list[str]:
    """Per module under ``package``, its name, then each never-run statement as 'line: text'."""
    out = []
    for path in sorted(package.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        hit = ran.get(str(path), set())
        missed = [f"  {first}: {lines[first - 1].strip()}" for first, last in
                  statements("\n".join(lines)) if hit.isdisjoint(range(first, last + 1))]
        if missed:
            out += [path.name, *missed]
    return out


if __name__ == "__main__":
    import pytest

    code, ran = traced(lambda: pytest.main(sys.argv[1:]))
    print("\n".join(report(ran)))
    sys.exit(int(code))
