"""Finite and affine Weyl group arithmetic.

A finite element is stored as a permutation of the roots (Casselman,
*Machine calculations in Weyl groups*; the CHEVIE permutation model): the
index of the image of every root in the fixed order ``rs.roots`` (positive
roots, then their negatives).  A product is tuple indexing, the length counts
positive roots sent to negative ones, and the actions on roots, coroots and
weights are read off the images of the simple roots.  Elements are canonical:
a root system keeps one element per permutation, so equality is identity.
An affine element ``w t_lam`` pairs a finite element with a coroot-lattice
translation.  A superregular one also has the coordinates (u, v, lam), with
x = u t_lam v^{-1} and lam antidominant (``coordinates``); its cocovers are
the edges of the quantum Bruhat graph (``cover_table``) out of u and into v,
in closed form (``cocovers_superregular``).

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

    __slots__ = ("rs", "perm", "_inv", "_len", "_neg", "_hash")

    def __new__(cls, rs: RootSystem, perm: tuple[int, ...]):
        # the one element of perm in rs, so equality is identity; a miss goes
        # through setdefault, so threads that race on a new perm share one
        self = rs._elts.get(perm)
        if self is None:
            self = object.__new__(cls)
            self.rs, self.perm, self._hash = rs, perm, hash(perm)
            self._inv = self._len = self._neg = None
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
        """For each positive root alpha (in rs order), whether w.alpha < 0; memoized."""
        neg = self._neg
        if neg is None:
            npos = len(self.perm) // 2
            neg = self._neg = tuple(k >= npos for k in self.perm[:npos])
        return neg

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
    pr = root_pairings(rs, rs.coroot_of(alpha))
    perm = []
    for beta, p in zip(rs.roots, pr):
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


@cached("corootrows")
def _coroot_rows(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """root_pairings of every coroot, by index: row c holds <alpha_c^vee, alpha_k>."""
    return tuple(root_pairings(rs, c) for c in rs.coroots)


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
    v = _chamber(rs, root_pairings(rs, tau))
    return v, v.inverse().act_coroot(tau)


def _chamber(rs: RootSystem, pr: tuple[int, ...]) -> WeylElt:
    """The minimal v with v^{-1} tau antidominant, from pr = root_pairings(rs, tau)."""
    v = weyl_identity(rs)
    while True:
        for i, s in enumerate(rs.simple_index):
            if pr[v.perm[s]] > 0:
                v = v * simple_reflection(rs, i)
                break
        else:
            return v


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


def cocovers_superregular(x: AffineElt) -> list[CoverRecord]:
    """The cocovers of a superregular x = u t_lam v^{-1}, read off the quantum
    Bruhat graph at its coordinates (u, v, lam) and certified against the cover
    enumeration; BudgetError on any other x.

    There are four edge kinds, each with e in {0, 1}: near, (u r_alpha, v,
    lam + e alpha^vee) over the up (case 1) and quantum (case 2) out-edges of
    u, and far, (u, v r_alpha, lam + e alpha^vee) over the down (case 3) and
    q-up (case 4) in-edges of v.  The positive affine root of the reflection
    is -(v alpha) - n delta, n = p + e near and n = -e far, p = <lam, alpha>.
    """
    if not is_superregular(x):
        raise BudgetError(f"{x!r} is not superregular")
    rs = x.rs
    u, v, lam = coordinates(x)
    pr = root_pairings(rs, lam)
    npos = len(rs.positive_roots)
    ups, quantums, _, _ = cover_table(rs, u)
    _, _, downs, qups = cover_table(rs, v)
    out = []
    kinds = ((True, 0, ups), (True, 1, quantums), (False, 0, downs), (False, 1, qups))
    for case, (near, e, rows) in enumerate(kinds, 1):
        for a, avee, r in rows:
            k = rs.root_index[a]
            n = pr[k] + e if near else -e
            # -(v alpha) + (-n) delta is positive iff n < 0, or n = 0 and v alpha < 0
            j = v.perm[k]
            if n > 0 or (n == 0 and j < npos):
                raise AssertionError("superregular cover reflection root unexpectedly positive")
            mu = tuple(map(add, lam, avee)) if e else lam
            y = from_coordinates(r, v, mu) if near else from_coordinates(u, r, mu)
            out.append(CoverRecord(x, y, AffineRoot(rs.roots[(j + npos) % (2 * npos)], -n),
                                   "near" if near else "far", case, a))
    got = {(c.target, c.reflection_root) for c in out}
    want = {(c.target, c.reflection_root) for c in cocovers(x)}
    if len(got) != len(out) or got != want:
        raise AssertionError("superregular classification disagrees with cover enumeration")
    return out


@cached("leftnodes")
def _left_descent_data(rs: RootSystem):
    """Per node i of I_af, with alpha_i = a + n delta and r_i = s t_tau:
    (index of a, n, perm of s, coroot index of tau or None)."""
    neg_theta = rs.root_index[tuple(-c for c in rs.theta)]
    # r_0 = r_theta t_{-theta^vee}, and the coroot of -theta is -theta^vee
    nodes = [(neg_theta, 1, reflection_of(rs, rs.theta).perm, neg_theta)]
    nodes += [(rs.simple_index[i], 0, rs.simple_perms[i], None) for i in range(rs.rank)]
    return tuple(nodes)


# common steps a walk of bruhat_leq takes before it tries, once, to cut a common
# suffix: an earlier try pays two chamber walks and two length certificates on
# pairs that end soon anyway, a later one walks deep pairs longer; of 4, 8, 16
# and 32, 8 was fastest on ``verify tilted --type B3`` and tied 16 on the
# bruhat-parabolic benchmark
_CUT_AFTER = 8


def bruhat_leq(x: AffineElt, y: AffineElt) -> bool:
    """x <= y in the affine Bruhat order (left-descent recursion).

    By the lifting property (Deodhar's property Z; Bjorner-Brenti 2.2), if
    r_i is a left descent of y then x <= y iff r_i x <= r_i y when r_i is
    also a left descent of x, and x <= r_i y otherwise.  Each element is
    walked as (w^{-1} perm, lam, pr = root_pairings(rs, lam)).  Node i,
    alpha_i = a + n delta, is a left descent of w t_lam iff
    (w t_lam)^{-1} alpha_i = w^{-1} a + (n + pr[j]) delta < 0, j the index of
    w^{-1} a.  The step r_i (w t_lam) = (s w) t_{lam + w^{-1} tau}, r_i =
    s t_tau, adds at node 0 a coroot to lam and its row of ``_coroot_rows``
    to pr.

    Once, after _CUT_AFTER common steps, a pair in one chamber sheds a
    common right suffix z (``_cut_common_suffix``).  If l(x z^{-1}) =
    l(x) - l(z) and the same for y, each letter of z, peeled from the right,
    is a right descent of both, so x <= y iff x z^{-1} <= y z^{-1}.
    ``length`` checks both identities before the cut is taken, so the cut
    rests on the lifting property alone, not on the tilted-order theorem
    that ``qbruhat.verify_tilted_embedding`` tests through this order.
    """
    rs = x.rs
    nodes = _left_descent_data(rs)
    crows, coroots = _coroot_rows(rs), rs.coroots
    npos = len(rs.positive_roots)

    def step(winv, lam, pr, s, tau):
        if tau is not None:
            c = winv[tau]
            lam = tuple(map(add, lam, coroots[c]))
            pr = tuple(map(add, pr, crows[c]))
        return tuple(map(winv.__getitem__, s)), lam, pr

    lx, ly = length(x), length(y)
    xinv, xt, xp = x.w.inverse().perm, x.t, root_pairings(rs, x.t)
    yinv, yt, yp = y.w.inverse().perm, y.t, root_pairings(rs, y.t)
    common = 0
    while True:
        if lx > ly:
            return False
        if xt == yt and xinv == yinv:
            return True
        if ly == 0:  # ly falls by one a step, so the walk ends
            return False
        if common == _CUT_AFTER:
            common += 1  # one attempt per walk, taken or refused
            cut = _cut_common_suffix(rs, (xinv, xt, xp, lx), (yinv, yt, yp, ly))
            if cut is not None:
                (xinv, xt, xp, lx), (yinv, yt, yp, ly) = cut
        for k, n, s, tau in nodes:
            j = yinv[k]
            p = n + yp[j]
            if p < 0 or (p == 0 and j >= npos):
                yinv, yt, yp = step(yinv, yt, yp, s, tau)
                ly -= 1
                j = xinv[k]
                p = n + xp[j]
                if p < 0 or (p == 0 and j >= npos):
                    xinv, xt, xp = step(xinv, xt, xp, s, tau)
                    lx -= 1
                    common += 1
                break
        else:
            raise AssertionError("no descent found for a non-identity element")


def _cut_common_suffix(rs: RootSystem, xs: tuple, ys: tuple):
    """The walk states (w^{-1} perm, lam, pr, length) of x z^{-1} and y z^{-1},
    or None.  With v the chamber of both, x = (w v) t_mu v^{-1}, and z =
    t_kappa v^{-1}, kappa = m base (``_sreg_base``, a negative multiple of
    rho^vee) for the largest m keeping both mu - kappa regular antidominant;
    x z^{-1} = (w v) t_{mu - kappa}, certified l(x z^{-1}) = l(x) - l(z)."""
    v = _chamber(rs, xs[2])
    if _chamber(rs, ys[2]) is not v:
        return None
    vperm, vinv = v.perm, v.inverse()
    base = _sreg_base(rs)
    bp = root_pairings(rs, base)
    b = -bp[rs.simple_index[0]]
    # <mu - m base, alpha_i> = pr[v.perm[s_i]] + m b
    m = min((-pr[vperm[s]] - 1) // b for _, _, pr, _ in (xs, ys) for s in rs.simple_index)
    if m < 1:
        return None
    kappa = tuple(m * c for c in base)
    lz = length(AffineElt(vinv, v.act_coroot(kappa)))  # t_kappa v^{-1} = v^{-1} t_{v kappa}
    out = []
    for winv, lam, pr, lw in (xs, ys):
        winv = tuple(map(vinv.perm.__getitem__, winv))  # (w v)^{-1} = v^{-1} w^{-1}
        lam = tuple(a - c for a, c in zip(vinv.act_coroot(lam), kappa))
        if length(AffineElt(WeylElt(rs, winv).inverse(), lam)) != lw - lz:
            return None
        out.append((winv, lam, tuple(pr[j] - m * q for j, q in zip(vperm, bp)), lw - lz))
    return out


def reduced_word(x: AffineElt) -> tuple[int, ...]:
    """A reduced word over I_af (0 = affine node, i = finite node i).

    Walks (w perm, pr = root_pairings(rs, lam)).  Node i, alpha_i = a +
    n delta with a of index k, is a right descent of w t_lam iff
    x . alpha_i = w a + (n - pr[k]) delta < 0.  The step (w t_lam)(s t_tau) =
    (w s) t_{s lam + tau} permutes pr by s and, at node 0, adds the row of tau
    in ``_coroot_rows``.
    """
    rs = x.rs
    nodes = _left_descent_data(rs)
    crows = _coroot_rows(rs)
    npos = len(rs.positive_roots)
    perm, pr = x.w.perm, root_pairings(rs, x.t)
    out = []
    lx = length(x)
    while lx > 0:
        for i, (k, n, s, tau) in enumerate(nodes):
            lvl = n - pr[k]
            if lvl < 0 or (lvl == 0 and perm[k] >= npos):
                out.append(i)
                perm, pr = tuple(map(perm.__getitem__, s)), tuple(map(pr.__getitem__, s))
                if tau is not None:
                    pr = tuple(map(add, pr, crows[tau]))
                lx -= 1
                break
        else:
            raise AssertionError("no right descent found")
    out.reverse()
    return tuple(out)


def serialize(x: AffineElt) -> dict:
    return {"w": " ".join(f"r{i + 1}" for i in x.w.word()) or "id", "t": list(x.t)}
