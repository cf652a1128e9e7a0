"""tools/uncovered.py: its statement list and its report on a small traced call."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "uncovered.py"
spec = importlib.util.spec_from_file_location("uncovered", TOOL)
uncovered = importlib.util.module_from_spec(spec)
spec.loader.exec_module(uncovered)

SOURCE = '''\
def f(x):
    """Skipped, as every docstring is."""
    if x > 0:
        return 1
    y = (x +
         1)
    return y


class C:
    def m(self):
        global G
        for i in range(2):
            pass
'''


def test_statements_and_report_of_a_traced_call(tmp_path):
    assert uncovered.statements(SOURCE) == [(3, 3), (4, 4), (5, 6), (7, 7), (13, 13), (14, 14)]
    path = tmp_path / "mod.py"
    path.write_text(SOURCE, encoding="utf-8")
    spec = importlib.util.spec_from_file_location("mod", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    result, ran = uncovered.traced(lambda: module.f(-1), tmp_path)
    assert result == 0
    assert ran == {str(path): {3, 5, 6, 7}}
    assert uncovered.report(ran, tmp_path) == [
        "mod.py", "  4: return 1", "  13: for i in range(2):", "  14: pass"]
