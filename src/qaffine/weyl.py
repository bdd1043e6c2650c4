"""Finite and affine Weyl group arithmetic.

A finite element is stored as a permutation of the roots (Casselman,
*Machine calculations in Weyl groups*; the CHEVIE permutation model): the
index of the image of every root in the fixed order ``rs.roots`` (positive
roots, then their negatives).  A product is tuple indexing, the length counts
positive roots sent to negative ones, and the actions on roots, coroots and
weights are read off the images of the simple roots.  Elements are canonical:
a root system keeps one element per permutation, so equality is identity.
An affine element ``w t_lam`` pairs a finite element with a coroot-lattice
translation.

Every question about a root of index k at ``x = w t_lam`` reads two tables:
whether ``w alpha`` is negative is ``w.perm[k] >= npos``, and the pairing
``<lam, alpha>`` is ``root_pairings(rs, lam)[k]`` (``npos`` the number of
positive roots).  No root vector is built to answer either.
"""

from dataclasses import dataclass
from math import gcd
from operator import add, mul

from .cartan import AffineRoot, CorootVec, RootSystem, RootVec, cached


class BudgetError(ValueError):
    """A superregularity budget was exhausted: the input lacks the margin the
    computation needs, an argument error."""


class WeylElt:
    """Element of the finite Weyl group W, as a permutation of the root indices."""

    __slots__ = ("rs", "perm", "_inv", "_len", "_hash")

    def __new__(cls, rs: RootSystem, perm: tuple[int, ...]):
        # the one element of perm in rs, so equality is identity; a miss goes
        # through setdefault, so threads that race on a new perm share one
        self = rs._elts.get(perm)
        if self is None:
            self = object.__new__(cls)
            self.rs, self.perm, self._inv, self._len, self._hash = rs, perm, None, None, hash(perm)
            self = rs._elts.setdefault(perm, self)
        return self

    def __hash__(self):
        return self._hash

    # canonical and immutable: a copy is the element itself
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __reduce__(self):
        raise TypeError("a WeylElt is not picklable: elements are canonical per root system")

    def __mul__(self, other: "WeylElt") -> "WeylElt":
        return WeylElt(self.rs, tuple(map(self.perm.__getitem__, other.perm)))

    def inverse(self) -> "WeylElt":
        inv = self._inv
        if inv is None:
            q = [0] * len(self.perm)
            for k, j in enumerate(self.perm):
                q[j] = k
            inv = self._inv = WeylElt(self.rs, tuple(q))
        return inv

    def is_identity(self) -> bool:
        return self.length() == 0

    # actions
    def act_root(self, v: RootVec) -> RootVec:
        rs = self.rs
        k = rs.root_index.get(v)
        if k is not None:
            return rs.roots[self.perm[k]]
        return _combine(rs.roots, self.perm, rs.simple_index, v)

    def act_coroot(self, lam: CorootVec) -> CorootVec:
        rs = self.rs
        k = rs.coroot_index.get(lam)
        if k is not None:
            return rs.coroots[self.perm[k]]
        return _combine(rs.coroots, self.perm, rs.simple_index, lam)

    def inv_act_coroot(self, lam: CorootVec) -> CorootVec:
        return self.inverse().act_coroot(lam)

    def act_weight(self, mu) -> tuple:
        # (w mu)_i = <w^{-1} alpha_i^vee, mu>
        rs = self.rs
        inv = self.inverse().perm
        return tuple(sum(c * m for c, m in zip(rs.coroots[inv[s]], mu)) for s in rs.simple_index)

    def length(self) -> int:
        n = self._len
        if n is None:
            npos = len(self.perm) // 2
            n = self._len = sum(1 for k in self.perm[:npos] if k >= npos)
        return n

    def neg_set(self) -> tuple[bool, ...]:
        """For each positive root alpha (in rs order), whether w.alpha < 0."""
        npos = len(self.perm) // 2
        return tuple(k >= npos for k in self.perm[:npos])

    def descends(self, i: int) -> bool:
        """Whether w alpha_i < 0, i.e. l(w r_i) < l(w)."""
        return self.perm[self.rs.simple_index[i]] >= len(self.perm) // 2

    def word(self) -> tuple[int, ...]:
        """A reduced word over I (indices 0-based into the simple roots)."""
        out = []
        x = self
        while True:
            for i in range(self.rs.rank):
                if x.descends(i):
                    out.append(i)
                    x = x * simple_reflection(self.rs, i)
                    break
            else:
                break
        out.reverse()
        if len(out) != self.length():
            raise AssertionError("descent word is not reduced")
        return tuple(out)

    def __repr__(self):
        w = self.word()
        return "id" if not w else " ".join(f"s{i + 1}" for i in w)


def _combine(vecs, perm, simple_index, coeffs) -> tuple:
    """sum_j coeffs[j] * vecs[perm[simple_index[j]]]: w applied to a vector
    through the images of the simple roots (or coroots)."""
    out = [0] * len(coeffs)
    for c, s in zip(coeffs, simple_index):
        if c:
            for k, x in enumerate(vecs[perm[s]]):
                out[k] += c * x
    return tuple(out)


@cached("wid")
def weyl_identity(rs: RootSystem) -> WeylElt:
    return WeylElt(rs, tuple(range(len(rs.roots))))


@cached("sref")
def simple_reflection(rs: RootSystem, i: int) -> WeylElt:
    return WeylElt(rs, rs.simple_perms[i])


@cached("refl")
def reflection_of(rs: RootSystem, alpha: RootVec) -> WeylElt:
    """The reflection r_alpha for a root alpha (either sign)."""
    if not rs.is_root(alpha):
        raise ValueError(f"{alpha} is not a root")
    # r_alpha(beta) = beta - <alpha^vee, beta> alpha
    avee = rs.coroot_of(alpha)
    perm = []
    for beta in rs.roots:
        p = rs.pair(avee, beta)
        perm.append(rs.root_index[tuple(b - p * a for a, b in zip(alpha, beta))])
    return WeylElt(rs, tuple(perm))


def from_word(rs: RootSystem, word) -> WeylElt:
    x = weyl_identity(rs)
    for i in word:
        x = x * simple_reflection(rs, i)
    return x


def _image_matrix(w: WeylElt) -> tuple:
    """Rows of the matrix whose columns are the images of the simple roots."""
    rs = w.rs
    return tuple(zip(*(rs.roots[w.perm[s]] for s in rs.simple_index)))


@cached("W")
def enumerate_weyl(rs: RootSystem) -> list[WeylElt]:
    """All elements of W, sorted by (length, matrix of images of simple roots)."""
    if rs.weyl_order > 100000:
        raise ValueError(f"|W| = {rs.weyl_order} too large to enumerate")
    gens = [simple_reflection(rs, i) for i in range(rs.rank)]
    e = weyl_identity(rs)
    seen = {e.perm: e}
    frontier = [e]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y.perm not in seen:
                    seen[y.perm] = y
                    nxt.append(y)
        frontier = nxt
    lst = sorted(seen.values(), key=lambda w: (w.length(), _image_matrix(w)))
    if len(lst) != rs.weyl_order:
        raise AssertionError(f"enumerated {len(lst)} elements, expected |W| = {rs.weyl_order}")
    return lst


def longest_of(rs: RootSystem, nodes) -> WeylElt:
    """The longest element of the parabolic subgroup W_J, J = nodes (any iterable)."""
    return _longest_walk(rs, tuple(sorted(nodes)))


@cached("w0")
def _longest_walk(rs: RootSystem, nodes: tuple) -> WeylElt:
    # walk r_j up while some j in J has w alpha_j > 0
    w = weyl_identity(rs)
    while True:
        for j in nodes:
            if not w.descends(j):
                w = w * simple_reflection(rs, j)
                break
        else:
            return w


def longest_element(rs: RootSystem) -> WeylElt:
    return longest_of(rs, range(rs.rank))


class AffineElt:
    """Element w t_lam of the affine Weyl group W_af = W x Q^vee."""

    __slots__ = ("w", "t", "_len", "_key", "_hash")

    def __init__(self, w: WeylElt, t: CorootVec, key: tuple | None = None):
        self.w = w
        self.t = t
        self._len = None
        self._key = key  # the coordinates (u, v, lam), where known
        self._hash = hash((w._hash, t))

    def __eq__(self, other):
        return isinstance(other, AffineElt) and self.w is other.w and self.t == other.t

    def __hash__(self):
        return self._hash

    @property
    def rs(self) -> RootSystem:
        return self.w.rs

    def __mul__(self, other: "AffineElt") -> "AffineElt":
        # (w1 t_lam1)(w2 t_lam2) = w1 w2 t_{w2^{-1} lam1 + lam2}
        lam = other.w.inv_act_coroot(self.t)
        return AffineElt(self.w * other.w, tuple(a + b for a, b in zip(lam, other.t)))

    def inverse(self) -> "AffineElt":
        return AffineElt(self.w.inverse(), tuple(-c for c in self.w.act_coroot(self.t)))

    def is_identity(self) -> bool:
        return self.w.is_identity() and not any(self.t)

    def act(self, beta: AffineRoot) -> AffineRoot:
        # (w t_lam)(mu + n delta) = w mu + (n - <lam, mu>) delta
        return AffineRoot(self.w.act_root(beta.finite), beta.level - self.rs.pair(self.t, beta.finite))

    def translate(self, lam: CorootVec) -> "AffineElt":
        """Right multiplication by t_lam."""
        return AffineElt(self.w, tuple(a + b for a, b in zip(self.t, lam)))

    def __repr__(self):
        return f"{self.w!r} t{list(self.t)}"


def affine_identity(rs: RootSystem) -> AffineElt:
    return AffineElt(weyl_identity(rs), rs.zero_coroot())


def translation(rs: RootSystem, lam: CorootVec) -> AffineElt:
    return AffineElt(weyl_identity(rs), tuple(lam))


def affine_simple_reflection(rs: RootSystem, i: int) -> AffineElt:
    """r_i for i in I_af, with r_0 = r_theta t_{-theta^vee}."""
    if i == 0:
        return AffineElt(reflection_of(rs, rs.theta), tuple(-c for c in rs.theta_vee))
    return AffineElt(simple_reflection(rs, i - 1), rs.zero_coroot())


def affine_from_word(rs: RootSystem, word) -> AffineElt:
    x = affine_identity(rs)
    for i in word:
        x = x * affine_simple_reflection(rs, i)
    return x


def reflection_of_affine(rs: RootSystem, beta: AffineRoot) -> AffineElt:
    """r_{alpha + n delta} = r_alpha t_{n alpha^vee}."""
    avee = rs.coroot_of(beta.finite)
    return AffineElt(reflection_of(rs, beta.finite), tuple(beta.level * c for c in avee))


@cached("tpair")
def root_pairings(rs: RootSystem, t: CorootVec) -> tuple[int, ...]:
    """<t, alpha> for every root alpha in rs.roots order: the positive roots,
    then their negatives, so index k of a root permutation reads directly."""
    rows = rs.pairing_rows
    pr = tuple(sum(map(mul, t, rows[a])) for a in rs.positive_roots)
    return pr + tuple(-p for p in pr)


def length(x: AffineElt) -> int:
    """sum over R^+ of |chi(w alpha < 0) + <t, alpha>|, memoized on x."""
    n = x._len
    if n is None:
        # map stops after the positive roots, where neg_set ends
        n = x._len = sum(map(abs, map(add, x.w.neg_set(), root_pairings(x.rs, x.t))))
    return n


def is_grassmannian(x: AffineElt) -> bool:
    """Minimum length in the coset x W: antidominant translation, minimal w."""
    rs = x.rs
    pr = root_pairings(rs, x.t)
    perm = x.w.perm
    npos = len(rs.positive_roots)
    for s in rs.simple_index:
        p = pr[s]
        if p > 0 or p == 0 and perm[s] >= npos:
            return False
    return True


def length_regular(u: WeylElt, w: WeylElt, lam: CorootVec) -> int:
    """l(u t_{w lam}) for regular antidominant lam, via the closed formula."""
    rs = u.rs
    if not (rs.is_antidominant(lam) and rs.is_regular(lam)):
        raise ValueError("lam must be regular antidominant")
    val = length(translation(rs, lam)) - (u * w).length() + w.length()
    if val != length(AffineElt(u, w.act_coroot(lam))):
        raise AssertionError("closed length formula disagrees with the length")
    return val


def _inversions(x: AffineElt, ks):
    """The positive affine roots beta with x . beta < 0 over the positive roots
    of index k in ks and their negatives, each lowest level first.

    With p = <t, alpha> and wneg = [w alpha < 0], x . (alpha + n delta) has
    level n - p, so alpha + n delta is an inversion for n in range(p + wneg),
    and -alpha + n delta for n in range(1, 1 - p - wneg).
    """
    rs = x.rs
    roots, perm, pr = rs.roots, x.w.perm, root_pairings(rs, x.t)
    npos = len(rs.positive_roots)
    for k in ks:
        top = pr[k] + (perm[k] >= npos)
        for n in range(top):
            yield AffineRoot(roots[k], n)
        for n in range(1, 1 - top):
            yield AffineRoot(roots[k + npos], n)


def inversions(x: AffineElt) -> list[AffineRoot]:
    """All positive affine real roots beta with x . beta < 0."""
    out = list(_inversions(x, range(len(x.rs.positive_roots))))
    if len(out) != length(x):
        raise AssertionError("inversion count disagrees with the length")
    return out


@dataclass(frozen=True)
class CoverRecord:
    source: AffineElt
    target: AffineElt
    reflection_root: AffineRoot  # the positive affine root of the reflection
    kind: str  # "near" | "far" | "generic"
    case: int  # 1-4 for the superregular classification, 0 otherwise
    alpha: RootVec | None = None  # the finite positive root in the classification


def cocovers(x: AffineElt) -> list[CoverRecord]:
    """All y = x r_beta lessdot x in the affine Bruhat order."""
    lx = length(x)
    out = []
    for beta in inversions(x):
        y = x * reflection_of_affine(x.rs, beta)
        if length(y) == lx - 1:
            out.append(CoverRecord(x, y, beta, "generic", 0))
    return out


@cached("chamber")
def chamber_decompose(rs: RootSystem, tau: CorootVec) -> tuple[WeylElt, CorootVec]:
    """Write tau = v . lam with lam antidominant; v is minimal such.

    Walks v up by simple reflections while some <v^{-1} tau, alpha_i> =
    <tau, v alpha_i> is positive, reading the pairings of tau alone.
    """
    pr = root_pairings(rs, tau)
    v = weyl_identity(rs)
    while True:
        for i, s in enumerate(rs.simple_index):
            if pr[v.perm[s]] > 0:
                v = v * simple_reflection(rs, i)
                break
        else:
            return v, v.inverse().act_coroot(tau)


def coordinates(x: AffineElt) -> tuple[WeylElt, WeylElt, CorootVec]:
    """The superregular coordinates (u, v, lam) of x = w t_{v lam} = u t_lam v^{-1},
    lam antidominant and u = w v, memoized on x; v is the chamber of x.t."""
    key = x._key
    if key is None:
        v, lam = chamber_decompose(x.rs, x.t)
        key = x._key = (x.w * v, v, lam)
    return key


def from_coordinates(u: WeylElt, v: WeylElt, lam: CorootVec) -> AffineElt:
    """u t_lam v^{-1} = (u v^{-1}) t_{v lam}, its coordinates (u, v, lam) kept on it."""
    return AffineElt(u * v.inverse(), v.act_coroot(lam), (u, v, lam))


def superregular_margin(x: AffineElt) -> int:
    """min_{alpha > 0} |<lam, alpha>| minus the bound 2|W| + 2."""
    rs = x.rs
    return min(map(abs, root_pairings(rs, x.t))) - (2 * rs.weyl_order + 2)


def is_superregular(x: AffineElt, slack: int = 0) -> bool:
    return superregular_margin(x) >= slack


@cached("sregbase")
def _sreg_base(rs: RootSystem) -> CorootVec:
    # integer coroot vector with <base, alpha_j> = -m for all j, i.e.
    # -m (C^T)^{-1} 1: column sums of the adjugate, divided by their gcd
    col = [sum(row[i] for row in rs.cartan_adj) for i in range(rs.rank)]
    g = gcd(*col, rs.cartan_det)
    base = tuple(-c // g for c in col)
    pr = root_pairings(rs, base)
    if not all(pr[s] == pr[rs.simple_index[0]] < 0 for s in rs.simple_index):
        raise AssertionError("superregular base must pair equally and negatively with every simple root")
    return base


def superregular_antidominant(rs: RootSystem, units: int = 0, shift: int = 0) -> CorootVec:
    """An antidominant lam with margin >= 4 * units (one unit per operator step)."""
    base = _sreg_base(rs)
    m = -root_pairings(rs, base)[rs.simple_index[0]]
    need = 2 * rs.weyl_order + 2 + 4 * units + shift
    k = -(-need // m)  # ceil
    return tuple(k * c for c in base)


@cached("covers")
def cover_table(rs: RootSystem, w: WeylElt):
    """The quantum Bruhat graph at w (Brenti-Fomin-Postnikov): (ups, quantums, downs, qups).

    Each is a tuple of rows (alpha, alpha^vee, w r_alpha) in positive-root
    order, classified by d = l(w r_alpha) - l(w): ups d = 1 and quantums
    d = 1 - <alpha^vee, 2 rho> are the out-edges of w; downs d = -1 and qups
    d = <alpha^vee, 2 rho> - 1 are its in-edges (from w r_alpha).  The tests are
    independent: for a simple alpha, <alpha^vee, 2 rho> = 2, so a down is also a
    quantum and an up also a qup.
    """
    lw = w.length()
    ups, quantums, downs, qups = [], [], [], []
    for a in rs.positive_roots:
        avee = rs.coroot_of(a)
        wr = w * reflection_of(rs, a)
        d = wr.length() - lw
        a2rho = 2 * sum(avee)
        if d == 1:
            ups.append((a, avee, wr))
        if d == 1 - a2rho:
            quantums.append((a, avee, wr))
        if d == -1:
            downs.append((a, avee, wr))
        if d == a2rho - 1:
            qups.append((a, avee, wr))
    return tuple(ups), tuple(quantums), tuple(downs), tuple(qups)


@cached("coverrows")
def cover_rows(rs: RootSystem, w: WeylElt, v: WeylElt):
    """The superregular cocovers of every w t_{v lam}, lam antidominant, as
    rows shared by all depths: (w v, near rows, far rows).

    A row is (alpha, alpha^vee, w r_{v alpha}, d = v alpha^vee, case, j), j the
    index of v alpha.  The near rows (cases 1, 2) are the out-edges of the
    quantum Bruhat graph at w v, the far rows (cases 3, 4) its in-edges at v.
    At t = v lam a row's cocover is (w r_{v alpha}, t + (case_level(case, p) - p) d),
    p = <lam, alpha> = root_pairings(rs, t)[j].  The finite parts are the
    canonical elements, so the rows of all |W|^2 chamber pairs name |W| objects.
    """
    wv = w * v
    ups, quantums, _, _ = cover_table(rs, wv)
    _, _, downs, qups = cover_table(rs, v)
    near, far = [], []
    for case, (rows, out) in enumerate(((ups, near), (quantums, near), (downs, far), (qups, far)), 1):
        for a, avee, _ in rows:
            j = v.perm[rs.root_index[a]]
            out.append((a, avee, w * reflection_of(rs, rs.roots[j]), v.act_coroot(avee), case, j))
    return wv, tuple(near), tuple(far)


# Case k of a superregular cocover puts its reflection root at level
# n = e p + c, p = <lam, alpha>, with (e, c) = _CASE_LEVEL[k - 1]; read only
# through case_level.
_CASE_LEVEL = ((1, 0), (1, 1), (0, 0), (0, -1))


def case_level(case: int, p: int) -> int:
    e, c = _CASE_LEVEL[case - 1]
    return e * p + c


@cached("sregcovers")
def superregular_cocovers(rs: RootSystem, w: WeylElt, t: CorootVec):
    """The cocovers of a superregular x = w t_t, t = v lam with lam
    antidominant: (v, w v, near entries, far entries).

    An entry is (y.w, y.t, d, row) for a row of ``cover_rows``; the positive
    root of the reflection is -(v alpha) - n delta, n = case_level(case, p).
    Raises BudgetError, and caches nothing, unless x is superregular: the cases
    do not hold below the margin.
    """
    pr = root_pairings(rs, t)
    if min(map(abs, pr)) < 2 * rs.weyl_order + 2:
        raise BudgetError(f"{AffineElt(w, t)!r} is not superregular")
    v = chamber_decompose(rs, t)[0]
    wv, near, far = cover_rows(rs, w, v)

    def entry(row):
        p = pr[row[5]]
        m = case_level(row[4], p) - p
        return row[2], tuple(c + m * e for c, e in zip(t, row[3])) if m else t, row[3], row

    return v, wv, tuple(map(entry, near)), tuple(map(entry, far))


def cocovers_superregular(x: AffineElt) -> list[CoverRecord]:
    """Case-tagged cocovers of a superregular x = w t_{v lam}, certified
    against the cover enumeration; BudgetError on any other x."""
    rs = x.rs
    _v, _wv, near, far = superregular_cocovers(rs, x.w, x.t)
    pr = root_pairings(rs, x.t)
    npos = len(rs.positive_roots)
    out = []
    for yw, yt, _d, (a, _avee, _wr, _dd, case, j) in near + far:
        # the positive affine root of the reflection is -(v alpha) - n delta,
        # so v alpha + n delta must be negative; -(v alpha) has index j +- npos
        n = case_level(case, pr[j])
        if n > 0 or (n == 0 and j < npos):
            raise AssertionError("superregular cover reflection root unexpectedly positive")
        beta = AffineRoot(rs.roots[(j + npos) % (2 * npos)], -n)
        out.append(CoverRecord(x, AffineElt(yw, yt), beta, "near" if case < 3 else "far", case, a))
    got = {(c.target, c.reflection_root) for c in out}
    want = {(c.target, c.reflection_root) for c in cocovers(x)}
    if got != want:
        raise AssertionError("superregular classification disagrees with cover enumeration")
    return out


@cached("leftnodes")
def _left_descent_data(rs: RootSystem):
    """Per node i of I_af, with alpha_i = a + n delta and r_i = s t_tau:
    (index of a, n, perm of s, coroot index of tau or None); then the
    pairing rows of the roots by index."""
    neg_theta = rs.root_index[tuple(-c for c in rs.theta)]
    # r_0 = r_theta t_{-theta^vee}, and the coroot of -theta is -theta^vee
    nodes = [(neg_theta, 1, reflection_of(rs, rs.theta).perm, neg_theta)]
    nodes += [(rs.simple_index[i], 0, rs.simple_perms[i], None) for i in range(rs.rank)]
    return tuple(nodes), tuple(rs.pairing_rows[a] for a in rs.roots)


def bruhat_leq(x: AffineElt, y: AffineElt) -> bool:
    """x <= y in the affine Bruhat order (left-descent recursion).

    By the lifting property, if r_i is a left descent of y then x <= y iff
    r_i x <= r_i y when r_i is also a left descent of x, and x <= r_i y
    otherwise.  Both elements are walked as raw pairs (w^{-1} as a root
    permutation, lam) with lengths counted down from the entry.  For
    alpha_i = a + n delta, node i is a left descent of w t_lam iff
    (w t_lam)^{-1} alpha_i = w^{-1} a + (n + <lam, w^{-1} a>) delta < 0: the
    level is below 0, or is 0 with w^{-1} a negative.  The step is
    r_i (w t_lam) = (s w) t_{lam + w^{-1} tau} for r_i = s t_tau, one perm
    composition, plus a coroot lookup at node 0 (tau_0 = -theta^vee).
    """
    rs = x.rs
    nodes, rows = _left_descent_data(rs)
    coroots = rs.coroots
    npos = len(rs.positive_roots)
    lx, ly = length(x), length(y)
    xinv, xt = x.w.inverse().perm, x.t
    yinv, yt = y.w.inverse().perm, y.t

    def descends(winv, lam, k, n):
        j = winv[k]
        p = n + sum(map(mul, lam, rows[j]))
        return p < 0 or (p == 0 and j >= npos)

    def step(winv, lam, s, tau):
        if tau is not None:
            lam = tuple(map(add, lam, coroots[winv[tau]]))
        return tuple(map(winv.__getitem__, s)), lam

    while True:
        if lx > ly:
            return False
        if xt == yt and xinv == yinv:
            return True
        if ly == 0:  # ly falls by one a step, so the walk ends
            return False
        for k, n, s, tau in nodes:
            if descends(yinv, yt, k, n):
                yinv, yt = step(yinv, yt, s, tau)
                ly -= 1
                if descends(xinv, xt, k, n):
                    xinv, xt = step(xinv, xt, s, tau)
                    lx -= 1
                break
        else:
            raise AssertionError("no descent found for a non-identity element")


def reduced_word(x: AffineElt) -> tuple[int, ...]:
    """A reduced word over I_af (0 = affine node, i = finite node i).

    Node i, alpha_i = a + n delta, is a right descent of w t_lam iff
    x . alpha_i = w a + (n - <lam, a>) delta < 0: the level is below 0, or
    is 0 with w a negative.
    """
    rs = x.rs
    nodes, rows = _left_descent_data(rs)
    npos = len(rs.positive_roots)
    out = []
    lx = length(x)
    while lx > 0:
        perm, t = x.w.perm, x.t
        for i, (k, n, _s, _tau) in enumerate(nodes):
            lvl = n - sum(map(mul, t, rows[k]))
            if lvl < 0 or (lvl == 0 and perm[k] >= npos):
                out.append(i)
                x = x * affine_simple_reflection(rs, i)
                lx -= 1
                break
        else:
            raise AssertionError("no right descent found")
    out.reverse()
    return tuple(out)


def serialize(x: AffineElt) -> dict:
    return {"w": " ".join(f"r{i + 1}" for i in x.w.word()) or "id", "t": list(x.t)}
