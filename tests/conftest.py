import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def combo_axpy(dst: dict, key, s) -> None:
    """dst[key] += s, dropping zeros: a Scalar at a time, the reference
    accumulator of the tests, kept apart from the raw packed path of the
    package."""
    if not s:
        return
    cur = dst.get(key)
    if cur is None:
        dst[key] = s
    else:
        n = cur + s
        if n:
            dst[key] = n
        else:
            del dst[key]


def _run_python(*args, check=True):
    """Run the interpreter with ``args`` on this checkout's src/, in a bare
    environment that writes no byte-code, and capture its text output."""
    env = {"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, check=check, env=env)


@pytest.fixture
def run_python():
    return _run_python
