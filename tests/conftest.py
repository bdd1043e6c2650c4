import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_python(*args, check=True):
    """Run the interpreter with ``args`` on this checkout's src/, in a bare
    environment that writes no byte-code, and capture its text output."""
    env = {"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, check=check, env=env)


@pytest.fixture
def run_python():
    return _run_python
