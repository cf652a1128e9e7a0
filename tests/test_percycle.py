"""tools/percycle.py: the per-cycle table, run with tiny repeats."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "percycle.py"
spec = importlib.util.spec_from_file_location("percycle", TOOL)
percycle = importlib.util.module_from_spec(spec)
spec.loader.exec_module(percycle)


def test_table_has_a_row_per_scenario(capsys):
    assert percycle.main(2, 5, 20, 50) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# min of 2 runs of 5-cycle iterate")
    split = lines.index(f"# min of 2 runs of {percycle.CALLS} projector calls")
    export = lines.index("# min of 2 runs on one 20-cycle twisted-chain trace")
    diagnostics = lines.index("# min of 2 runs on one 50-cycle plane-two-sets trace")
    cycles = {line.split()[0]: line.split()[1:] for line in lines[2:split]}
    calls = {line.split()[0]: line.split()[1:] for line in lines[split + 2:export]}
    rows = {line.split()[0]: line.split()[1:] for line in lines[export + 2:diagnostics]}
    diag = {line.split()[0]: line.split()[1:] for line in lines[diagnostics + 2:]}
    assert list(cycles) == [*percycle.SCENARIOS, "plane-two-sets:stride=100"]
    assert list(calls) == ["exact_piecewise", "golden_section", "closed_form", "newton",
                           "newton:axis"]
    assert list(rows) == ["write_trace_csv", "write_trace_json", "write_trace_json:two-set",
                          "read_trace_csv", "Trace.points"]
    assert list(diag) == ["two_set_diagnostics", "rate_fit", "verdict"]
    for low, high in [*cycles.values(), *calls.values(), *rows.values(), *diag.values()]:
        assert 0.0 < float(low) <= float(high)
