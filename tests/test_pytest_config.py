"""The repository's pytest configuration reports a failing property test.

Hypothesis imports libcst to print a failing example, and libcst's import
raises a DeprecationWarning that ``filterwarnings`` would turn into an error;
raised there, it aborts the session with INTERNALERROR and no later test is
reported. The configuration ignores that one warning.
"""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    assert True
'''


def test_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", "-q", "test_probe.py"],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "1 failed, 1 passed" in out.stdout.splitlines()[-1]
