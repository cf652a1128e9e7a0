"""tools/percycle.py: the per-cycle table, run with tiny repeats."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "percycle.py"
spec = importlib.util.spec_from_file_location("percycle", TOOL)
percycle = importlib.util.module_from_spec(spec)
spec.loader.exec_module(percycle)


def test_table_has_a_row_per_scenario(capsys):
    assert percycle.main(2, 5) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# min of 2 runs of 5-cycle iterate")
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    assert list(rows) == list(percycle.SCENARIOS)
    for low, high in rows.values():
        assert 0.0 < float(low) <= float(high)
