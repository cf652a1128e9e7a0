"""The pytest settings in pyproject.toml keep a failing property from ending the session."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, seed, strategies as st

@seed(0)
@given(st.integers())
def test_property(x):
    assert x < 5
"""

PASS_AND_FAIL = """
def test_passes():
    pass

def test_fails():
    assert False
"""


def test_failing_property_leaves_later_files_running(tmp_path):
    # reporting a falsifying example imports libcst, whose DeprecationWarning
    # the "error" filter would raise inside hypothesis's report hook
    (tmp_path / "test_a_property.py").write_text(FAILING_PROPERTY)
    (tmp_path / "test_b_plain.py").write_text(PASS_AND_FAIL)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_a_property.py", "test_b_plain.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out
    assert "FAILED test_a_property.py::test_property" in out
    assert "FAILED test_b_plain.py::test_fails" in out
    assert "2 failed, 1 passed" in out
    assert "Falsifying example" in out
