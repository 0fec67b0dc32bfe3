"""The demos run end to end: each exits 0 and warns of no unconverged solve.

Each runs as its own process, as a user runs it, from an empty working
directory; about 4 s for the three.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gska

ROOT = Path(__file__).resolve().parents[1]
SRC = os.path.dirname(os.path.dirname(gska.__file__))


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda path: path.stem)
def test_demo_runs_without_warning(demo, tmp_path):
    out = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": SRC},
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert "gska: warning" not in out.stderr
