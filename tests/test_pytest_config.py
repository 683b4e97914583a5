"""The suite's own pytest settings in pyproject.toml do what their comments say.

Each check runs pytest in a child process, with ``-c`` pointing at the repo's
pyproject.toml, on a small test file written to tmp_path.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_pytest(tmp_path, source):
    path = tmp_path / "test_probe.py"
    path.write_text(source)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )


def test_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    # Hypothesis's failure report raises a deprecation warning of its own; the
    # "error" filter must not turn it into an INTERNALERROR that ends the run.
    result = run_pytest(tmp_path, (
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n"
        "def test_after():\n"
        "    pass\n"
    ))
    assert result.returncode == 1, result.stdout + result.stderr
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout


def test_unregistered_marker_fails_collection(tmp_path):
    result = run_pytest(tmp_path, (
        "import pytest\n\n"
        "@pytest.mark.slwo\n"
        "def test_marked():\n"
        "    pass\n"
    ))
    assert result.returncode == 2, result.stdout + result.stderr
    assert "'slwo' not found in `markers`" in result.stdout
