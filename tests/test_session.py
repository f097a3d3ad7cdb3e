"""The test session itself: a falsified property test reports its example, and the run goes on."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_PLANTED = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_planted_property(x):
    assert x < 10


def test_later():
    pass
'''


def test_a_falsified_given_test_prints_its_example_and_the_session_goes_on(tmp_path):
    # the repo's own pytest settings (filterwarnings = ["error"]) and conftest
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    shutil.copy(ROOT / "tests" / "conftest.py", tmp_path)
    (tmp_path / "test_planted.py").write_text(_PLANTED, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-v", "-p", "no:cacheprovider"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "Falsifying example" in out, out
    assert "test_later PASSED" in out, out
    assert "1 failed, 1 passed" in out, out
    assert proc.returncode == 1, out
