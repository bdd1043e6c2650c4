import inspect
import subprocess
import sys
import textwrap
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


def mutant(func, old: str, new: str):
    """``func`` with a planted fault: the one occurrence of ``old`` in its
    source replaced by ``new``, compiled against a copy of its module's
    namespace, so the package itself is left as it is."""
    lines, start = inspect.getsourcelines(func)
    src = textwrap.dedent("".join(lines))
    if src.count(old) != 1:
        raise ValueError(f"{old!r} occurs {src.count(old)} times in {func.__name__}")
    ns = dict(func.__globals__)
    # blank lines in front keep the line numbers of tracebacks
    exec(compile("\n" * (start - 1) + src.replace(old, new), inspect.getsourcefile(func), "exec"), ns)
    return ns[func.__name__]


def _run_python(*args, check=True):
    """Run the interpreter with ``args`` on this checkout's src/, in a bare
    environment that writes no byte-code, and capture its text output."""
    env = {"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, check=check, env=env)


@pytest.fixture
def run_python():
    return _run_python
