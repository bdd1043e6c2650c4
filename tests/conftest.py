import inspect
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from qaffine.cartan import AffineRoot
from qaffine.weyl import AffineElt, length, translation

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


def act(x, beta):
    """x . beta for x = w t_lam and an affine root beta = mu + n delta:
    w mu + (n - <lam, mu>) delta, paired through RootSystem.pair, the
    reference kept apart from the pairing tables the package walks on."""
    return AffineRoot(x.w.act_root(beta.finite), beta.level - x.rs.pair(x.t, beta.finite))


def to_int_coeffs(s):
    """The Scalar s with every coefficient stored as an int; raises
    ValueError on a non-integral one, as the package's one integrality pass
    ``coeffring.require_integral`` does."""
    s = s.with_int_coeffs()
    for c in s.terms.values():
        if isinstance(c, Fraction):
            raise ValueError(f"non-integral coefficient {c}")
    return s


def length_regular(u, w, lam):
    """l(u t_{w lam}) for regular antidominant lam, via the closed formula
    l(t_lam) - l(u w) + l(w), checked against the length itself."""
    rs = u.rs
    if not (rs.is_antidominant(lam) and rs.is_regular(lam)):
        raise ValueError("lam must be regular antidominant")
    val = length(translation(rs, lam)) - (u * w).length() + w.length()
    if val != length(AffineElt(u, w.act_coroot(lam))):
        raise AssertionError("closed length formula disagrees with the length")
    return val


def weight_to_root_basis(rs, mu):
    """Coordinates of the weight mu in the simple-root basis (rational in
    general), read off the Cartan adjugate."""
    return tuple(Fraction(sum(a * m for a, m in zip(row, mu)), rs.cartan_det) for row in rs.cartan_adj)


def solve_rational(rows, cols, mat, targets) -> list[list[Fraction]]:
    """Exact solutions x of mat . x = t over Q, one per target t; free
    variables 0: Gauss-Jordan on a dense Fraction matrix, the reference kept
    apart from the package's fraction-free ``cartan.solve_integral``.  Raises
    ValueError("inconsistent linear system") as it does."""
    nr, nc = len(rows), len(cols)
    m = [[Fraction(mat.get((r, c), 0)) for c in cols] + [Fraction(t.get(r, 0)) for t in targets] for r in rows]
    piv_of_col = {}
    rr = 0
    for c in range(nc):
        piv = next((r for r in range(rr, nr) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rr], m[piv] = m[piv], m[rr]
        p = m[rr][c]
        m[rr] = [x / p for x in m[rr]]
        for r in range(nr):
            if r != rr and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rr])]
        piv_of_col[c] = rr
        rr += 1
        if rr == nr:
            break
    for r in range(nr):
        if all(x == 0 for x in m[r][:nc]) and any(m[r][nc:]):
            raise ValueError("inconsistent linear system")
    return [[m[piv_of_col[c]][nc + k] if c in piv_of_col else Fraction(0) for c in range(nc)]
            for k in range(len(targets))]


def mutant(func, old: str, new: str, *more: str):
    """``func`` with a planted fault: the one occurrence of ``old`` in its
    source replaced by ``new``, and so for each further ``old, new`` pair in
    ``more``, compiled against a copy of its module's namespace, so the
    package itself is left as it is."""
    lines, start = inspect.getsourcelines(func)
    src = textwrap.dedent("".join(lines))
    edits = (old, new, *more)
    for old, new in zip(edits[::2], edits[1::2], strict=True):
        if src.count(old) != 1:
            raise ValueError(f"{old!r} occurs {src.count(old)} times in {func.__name__}")
        src = src.replace(old, new)
    ns = dict(func.__globals__)
    # blank lines in front keep the line numbers of tracebacks
    exec(compile("\n" * (start - 1) + src, inspect.getsourcefile(func), "exec"), ns)
    return ns[func.__name__]


def _run_python(*args, check=True):
    """Run the interpreter with ``args`` on this checkout's src/, in a bare
    environment that writes no byte-code, and capture its text output."""
    env = {"PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, check=check, env=env)


@pytest.fixture
def run_python():
    return _run_python
