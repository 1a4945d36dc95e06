"""The repository's pytest settings report a failing hypothesis example as a
failure and run the tests after it.

pyproject.toml turns warnings into errors.  Hypothesis' report hook, run on
a failing example, can raise a DeprecationWarning of its own (from
mypy_extensions, where installed); as an error that became a pytest
INTERNALERROR, which ended the session before the later tests ran.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None, derandomize=True)
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_failing_example_does_not_stop_the_session(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out
    assert "INTERNALERROR" not in out
