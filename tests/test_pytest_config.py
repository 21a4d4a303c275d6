"""The repo's pytest settings let a failing property report like any other
failure instead of ending the session."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, database=None)
@given(st.integers())
def test_failing_property(x):
    assert x != x


def test_passing():
    pass
'''


def test_failing_property_does_not_end_the_session(tmp_path):
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_probe.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
