"""Finite simple root systems: Cartan matrices, roots, coroots, weights, pairings.

Vectors live in three integer coordinate systems:

* RootVec   -- coordinates in the simple-root basis (elements of Q),
* CorootVec -- coordinates in the simple-coroot basis (elements of Q^vee),
* WeightVec -- coordinates in the fundamental-weight basis (elements of P).

All three are plain tuples of ints.  The Cartan matrix convention is
``cartan[i][j] = <alpha_i^vee, alpha_j>``.

One fraction-free elimination, ``_eliminate``, gives the certified Cartan
adjugates and, through ``solve_integral``, the Schubert-polynomial layers.
"""

from dataclasses import dataclass, field
from functools import wraps
from math import factorial
from operator import mul
from typing import NamedTuple

RootVec = tuple[int, ...]
CorootVec = tuple[int, ...]
WeightVec = tuple[int, ...]


class AffineRoot(NamedTuple):
    """A real affine root  finite_part + level * delta."""

    finite: RootVec
    level: int

    def is_positive(self) -> bool:
        if self.level != 0:
            return self.level > 0
        return _is_positive_vec(self.finite)


def cached(tag: str):
    """Memoize ``f(owner, *args)`` in ``owner._cache[(tag, *args)]``.

    The owner is a RootSystem or a ParabolicData.  Keys stay top-level entries
    of that flat dict (the benchmark resets rounds by truncating it), and a
    ``None`` result is cached like any other.
    """
    def deco(f):
        @wraps(f)
        def wrapper(owner, *args):
            key = (tag, *args)
            try:
                return owner._cache[key]
            except KeyError:
                val = owner._cache[key] = f(owner, *args)
                return val
        return wrapper
    return deco


def _is_positive_vec(v: tuple[int, ...]) -> bool:
    # nonzero vectors in a root system have coordinates of one sign
    return any(c > 0 for c in v)


# Cartan matrices, Bourbaki numbering.  For B_n the last node is short,
# for C_n the last node is long, for F4 nodes 3,4 are short, for G2 node 1
# is short.  E-types use node 2 as the branch node.
def _cartan_matrix(family: str, rank: int) -> list[list[int]]:
    def path(bonds):
        m = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        for (i, j, a, b) in bonds:
            m[i][j] = -a
            m[j][i] = -b
        return m

    chain = [(i, i + 1, 1, 1) for i in range(rank - 1)]
    if family == "A":
        return path(chain)
    if family == "B":
        if rank < 2:
            raise ValueError("type B needs rank >= 2")
        return path(chain[:-1] + [(rank - 2, rank - 1, 1, 2)])
    if family == "C":
        if rank < 2:
            raise ValueError("type C needs rank >= 2")
        return path(chain[:-1] + [(rank - 2, rank - 1, 2, 1)])
    if family == "D":
        if rank < 3:
            raise ValueError("type D needs rank >= 3")
        return path(chain[:-1] + [(rank - 3, rank - 1, 1, 1)])
    if family == "E":
        if rank not in (6, 7, 8):
            raise ValueError("type E needs rank 6, 7 or 8")
        # node 1 - 3 - 4 - 5 - ... with node 2 attached to node 4 (Bourbaki)
        bonds = [(0, 2, 1, 1), (1, 3, 1, 1)]
        bonds += [(i, i + 1, 1, 1) for i in range(2, rank - 1)]
        return path(bonds)
    if family == "F":
        if rank != 4:
            raise ValueError("type F needs rank 4")
        return path([(0, 1, 1, 1), (1, 2, 1, 2), (2, 3, 1, 1)])
    if family == "G":
        if rank != 2:
            raise ValueError("type G needs rank 2")
        return path([(0, 1, 3, 1)])
    raise ValueError(f"unsupported type family {family!r}")


def _weyl_order(family: str, rank: int) -> int:
    if family == "A":
        return factorial(rank + 1)
    if family in ("B", "C"):
        return 2**rank * factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * factorial(rank)
    if family == "E":
        return {6: 51840, 7: 2903040, 8: 696729600}[rank]
    if family == "F":
        return 1152
    return 12  # G2


def _eliminate(a: list[list[int]], nc: int) -> tuple[list[int], int]:
    """Fraction-free (Bareiss, Math. Comp. 22 (1968)) Gauss-Jordan on the
    integer rows ``a``, in place, over the first ``nc`` columns: a column
    pivots on the current row when that entry is nonzero, else on the first
    nonzero entry below, else is skipped.  Every other row is cleared on it and
    divided exactly by the previous pivot, so every pivot entry ends as one d.
    Returns (pivot columns in row order, d); later rows end 0 on all nc columns.
    """
    nr, cols, d = len(a), [], 1
    for c in range(nc):
        r = len(cols)
        i = r if r < nr and a[r][c] else next((i for i in range(r + 1, nr) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        p, pivot_row = a[r][c], a[r]
        for i, row in enumerate(a):
            if i != r:
                f = row[c]
                a[i] = [(p * x - f * y) // d for x, y in zip(row, pivot_row)]
        d = p
        cols.append(c)
    return cols, d


def solve_integral(rows, cols, mat, targets) -> tuple[int, list[list[int]]]:
    """(d, numerators), d > 0: the solutions x = numerators / d of mat . x = t,
    one per target t, free variables 0; a ValueError if some t is out of reach.
    ``mat`` maps (row, col) labels and each target row labels to ints; one
    ``_eliminate`` serves every target, as its pivots depend on mat alone."""
    nc = len(cols)
    a = [[mat.get((r, c), 0) for c in cols] + [t.get(r, 0) for t in targets] for r in rows]
    piv, d = _eliminate(a, nc)
    if any(any(row[nc:]) for row in a[len(piv):]):
        raise ValueError("inconsistent linear system")
    s = 1 if d > 0 else -1  # d is a minor of mat, of either sign
    row_of = dict(zip(piv, a))
    return s * d, [[s * row_of[c][nc + k] if c in row_of else 0 for c in range(nc)] for k in range(len(targets))]


def _adjugate(m: list[list[int]]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(adj, det) with m . adj = det . 1, all integers, certified:
    ``_eliminate`` on [m | 1] ends at [det . 1 | adj], with no row swap, as
    every leading principal minor of a finite-type Cartan matrix is positive.
    """
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    _, det = _eliminate(a, n)
    adj = tuple(tuple(row[n:]) for row in a)
    cols = tuple(zip(*adj))
    if any(sum(map(mul, row, col)) != det * (i == j) for i, row in enumerate(m) for j, col in enumerate(cols)):
        raise AssertionError("adjugate does not invert the matrix")
    return adj, det


@dataclass(frozen=True)
class RootSystem:
    """Immutable tables for a finite simple root system."""

    label: str
    family: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    cartan_adj: tuple[tuple[int, ...], ...]  # adjugate: cartan^{-1} = cartan_adj / cartan_det
    cartan_det: int
    positive_roots: tuple[RootVec, ...]
    coroot_table: dict[RootVec, CorootVec]
    theta: RootVec
    theta_vee: CorootVec
    rho: WeightVec
    two_rho: RootVec
    marks: tuple[int, ...]      # indexed by I_af = (0, 1..rank)
    comarks: tuple[int, ...]
    weyl_order: int
    # the fixed root order of the Weyl group's permutation model: the
    # positive roots, then their negatives in the same order
    roots: tuple[RootVec, ...]
    root_index: dict[RootVec, int]
    coroots: tuple[CorootVec, ...]  # coroots[k] is the coroot of roots[k]
    coroot_index: dict[CorootVec, int]
    simple_index: tuple[int, ...]  # simple_index[i] is the index of alpha_i
    simple_perms: tuple[tuple[int, ...], ...]  # r_i as a permutation of the root indices
    pairing_rows: dict[RootVec, tuple[int, ...]]  # (<alpha_i^vee, alpha>)_i for every root alpha
    _cache: dict = field(default_factory=dict, compare=False, repr=False)
    # perm -> its one WeylElt: the identity of the finite elements, not a cache
    _elts: dict = field(default_factory=dict, compare=False, repr=False)

    def __hash__(self):
        return hash(self.label)

    # -- basic vectors ------------------------------------------------
    def simple_root(self, i: int) -> RootVec:
        return tuple(int(j == i) for j in range(self.rank))

    def simple_coroot(self, i: int) -> CorootVec:
        return tuple(int(j == i) for j in range(self.rank))

    def fundamental_weight(self, i: int) -> WeightVec:
        return tuple(int(j == i) for j in range(self.rank))

    def zero_coroot(self) -> CorootVec:
        return (0,) * self.rank

    # -- pairings ------------------------------------------------------
    def pair_weight(self, lam: CorootVec, mu: WeightVec) -> int:
        """<lam, mu> with mu in the fundamental-weight basis."""
        if len(lam) != self.rank or len(mu) != self.rank:
            raise ValueError("dimension mismatch")
        return sum(a * b for a, b in zip(lam, mu))

    def pair_root(self, lam: CorootVec, mu: RootVec) -> int:
        """<lam, mu> with mu in the simple-root basis."""
        if len(lam) != self.rank or len(mu) != self.rank:
            raise ValueError("dimension mismatch")
        c = self.cartan
        return sum(lam[i] * c[i][j] * mu[j] for i in range(self.rank) for j in range(self.rank) if lam[i] and mu[j])

    def is_root(self, v: RootVec) -> bool:
        return v in self.coroot_table

    def coroot_of(self, alpha: RootVec) -> CorootVec:
        try:
            return self.coroot_table[alpha]
        except KeyError:
            raise ValueError(f"{alpha} is not a root of {self.label}") from None

    # -- basis conversions ----------------------------------------------
    def root_lattice_check(self, mu: WeightVec) -> RootVec:
        """mu as an integral RootVec; raises if mu is not in the root lattice."""
        det = self.cartan_det
        out = []
        for row in self.cartan_adj:
            q, r = divmod(sum(a * m for a, m in zip(row, mu)), det)
            if r:
                raise ValueError(f"{mu} does not lie in the root lattice of {self.label}")
            out.append(q)
        return tuple(out)

    def is_antidominant(self, lam: CorootVec) -> bool:
        # <lam, alpha_i> = sum_j lam_j C[j][i], column i of the Cartan matrix
        if len(lam) != self.rank:
            raise ValueError("dimension mismatch")
        return all(sum(map(mul, lam, col)) <= 0 for col in zip(*self.cartan))

    def is_regular(self, lam: CorootVec) -> bool:
        if len(lam) != self.rank:
            raise ValueError("dimension mismatch")
        rows = self.pairing_rows
        return all(sum(map(mul, lam, rows[a])) for a in self.positive_roots)

    def pair(self, lam: CorootVec, alpha: RootVec) -> int:
        """<lam, alpha>: a dot product with a stored row for a root, else pair_root."""
        row = self.pairing_rows.get(alpha)
        if row is None:
            return self.pair_root(lam, alpha)
        return sum(a * b for a, b in zip(lam, row))


def build(label: str) -> RootSystem:
    """Construct the root system for a type label like "A2", "B3", "E6"."""
    label = label.strip().upper()
    if len(label) < 2 or label[0] not in "ABCDEFG" or not label[1:].isdigit():
        raise ValueError(f"unsupported type label {label!r}")
    family, rank = label[0], int(label[1:])
    if rank < 1 or rank > 8:
        raise ValueError(f"rank {rank} out of supported range 1..8")
    if family != "A" and rank == 1:
        family = "A"  # B1 = C1 = A1
    cartan = _cartan_matrix(family, rank)

    def reflect_root(i, alpha):
        # r_i alpha = alpha - <alpha_i^vee, alpha> alpha_i
        p = sum(c * a for c, a in zip(cartan[i], alpha))
        return tuple(a - p * int(k == i) for k, a in enumerate(alpha))

    def reflect_coroot(i, avee):
        # r_i beta^vee = beta^vee - <beta^vee, alpha_i> alpha_i^vee
        p = sum(cartan[k][i] * c for k, c in enumerate(avee))
        return tuple(c - p * int(k == i) for k, c in enumerate(avee))

    # closure of the simple roots under simple reflections, coroots in parallel
    coroot_table: dict[RootVec, CorootVec] = {}
    frontier = []
    for i in range(rank):
        a = tuple(int(j == i) for j in range(rank))
        coroot_table[a] = a
        frontier.append(a)
    while frontier:
        alpha = frontier.pop()
        avee = coroot_table[alpha]
        for i in range(rank):
            b = reflect_root(i, alpha)
            if b not in coroot_table:
                coroot_table[b] = reflect_coroot(i, avee)
                frontier.append(b)

    positive = sorted((a for a in coroot_table if _is_positive_vec(a)), key=lambda a: (sum(a), a))
    # the highest root: the unique positive root of maximal height whose
    # coordinates dominate every other root
    theta = positive[-1]
    if not all(all(x >= y for x, y in zip(theta, a)) for a in positive):
        raise AssertionError("highest root not dominant")
    theta_vee = coroot_table[theta]

    two_rho = tuple(sum(col) for col in zip(*positive))
    marks = (1,) + theta
    comarks = (1,) + theta_vee

    roots = tuple(positive) + tuple(tuple(-c for c in a) for a in positive)
    root_index = {a: k for k, a in enumerate(roots)}
    coroots = tuple(coroot_table[a] for a in roots)
    simple_index = tuple(root_index[tuple(int(j == i) for j in range(rank))] for i in range(rank))
    simple_perms = tuple(tuple(root_index[reflect_root(i, a)] for a in roots) for i in range(rank))
    adj, det = _adjugate(cartan)

    rs = RootSystem(
        label=f"{family}{rank}",
        family=family,
        rank=rank,
        cartan=tuple(tuple(row) for row in cartan),
        cartan_adj=adj,
        cartan_det=det,
        positive_roots=tuple(positive),
        coroot_table=coroot_table,
        theta=theta,
        theta_vee=theta_vee,
        rho=(1,) * rank,
        two_rho=two_rho,
        marks=marks,
        comarks=comarks,
        weyl_order=_weyl_order(family, rank),
        roots=roots,
        root_index=root_index,
        coroots=coroots,
        coroot_index={c: k for k, c in enumerate(coroots)},
        simple_index=simple_index,
        simple_perms=simple_perms,
        pairing_rows={a: tuple(sum(c * x for c, x in zip(row, a)) for row in cartan) for a in roots},
    )
    _check_tables(rs)
    return rs


def _check_tables(rs: RootSystem) -> None:
    r = rs.rank
    for i in range(r):
        if rs.cartan[i][i] != 2:
            raise AssertionError("diagonal Cartan entry must be 2")
        for j in range(r):
            if i != j and rs.cartan[i][j] > 0:
                raise AssertionError("off-diagonal Cartan entry must be <= 0")
    # delta = alpha_0 + theta with mark a_0 = 1
    if rs.marks[0] != 1 or tuple(rs.marks[1:]) != rs.theta:
        raise AssertionError("marks must be (1, theta)")
    # every root has a coroot and <alpha^vee, alpha> = 2
    for a, av in rs.coroot_table.items():
        if rs.pair(av, a) != 2:
            raise AssertionError(f"<alpha^vee, alpha> != 2 at {a}")


def to_json_dict(rs: RootSystem) -> dict:
    return {
        "type": rs.label,
        "rank": rs.rank,
        "cartan_matrix": [list(row) for row in rs.cartan],
        "positive_roots": [list(a) for a in rs.positive_roots],
        "theta": list(rs.theta),
        "theta_vee": list(rs.theta_vee),
        "marks": list(rs.marks),
        "comarks": list(rs.comarks),
        "weyl_order": rs.weyl_order,
        "num_positive_roots": len(rs.positive_roots),
    }
