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
    split = lines.index(f"# min of 2 runs of {percycle.CALLS} projector calls")
    cycles = {line.split()[0]: line.split()[1:] for line in lines[2:split]}
    calls = {line.split()[0]: line.split()[1:] for line in lines[split + 2:]}
    assert list(cycles) == [*percycle.SCENARIOS, "plane-two-sets:stride=100"]
    assert list(calls) == ["exact_piecewise", "golden_section", "closed_form", "newton"]
    for low, high in [*cycles.values(), *calls.values()]:
        assert 0.0 < float(low) <= float(high)
