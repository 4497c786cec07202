"""The repository's pytest settings let a failing hypothesis test report itself.

hypothesis's pytest plugin imports libcst to write a patch for a failing
test, and that import raises a DeprecationWarning. Under a bare "error"
warning filter it became an INTERNALERROR that hid the falsifying example
and ended the session.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_MODULE = """
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_runs_after_the_failure():
    pass
"""


def test_failing_hypothesis_test_prints_its_example(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING_MODULE, encoding="utf-8")
    argv = [
        sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
        "-p", "no:cacheprovider", "test_failing.py",
    ]
    result = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output
