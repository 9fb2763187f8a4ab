"""The test session itself: a failing hypothesis test is reported as one
failure, and the tests after it still run under the project's settings."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(value):
    assert value != 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_ends_no_session(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            str(tmp_path / "test_probe.py"),
        ],
        capture_output=True, text=True, cwd=tmp_path,
    )
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in done.stdout
