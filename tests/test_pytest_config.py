"""The test configuration keeps hypothesis failures readable."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers())
@settings(database=None, max_examples=20)
def test_fails(n):
    assert n < 0
'''


def test_failing_given_test_prints_its_falsifying_example(tmp_path) -> None:
    # under filterwarnings "error", a warning raised while hypothesis
    # reports a failure would end the run in an INTERNALERROR instead
    (tmp_path / "test_fails.py").write_text(FAILING, encoding="utf-8")
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
            "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_fails.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example: test_fails(" in out
    assert "INTERNALERROR" not in out
    assert "1 failed" in out
