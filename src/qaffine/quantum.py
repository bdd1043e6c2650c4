"""Equivariant quantum cohomology of G/B: Chevalley recursion and products.

A class is a dict ``(WeylElt, qexp) -> Scalar`` where qexp is the exponent
tuple of a q-monomial (coroot coordinates; componentwise >= 0 in the honest
ring, arbitrary after localization).  Multiplication is generated by the
divisor classes: a quantum Schubert polynomial is extracted for each w once
and certified by re-evaluation, after which any product is a composition of
Chevalley operators.  Those compositions, and the Schubert-polynomial
layers, accumulate raw classes in place and settle them once (see
``coeffring``).  A polynomial is kept as integer numerators over one positive
denominator and evaluated on ints by ``horner``, Horner's rule over the prefix
trie of its words, with the one kernel ``chevalley_into`` as its step (the
affine route runs it with the Bruhat operators); the denominator divides
once, at the root.  A product applies the shorter factor's polynomial to the
other factor's class, or the longer factor's where that one is already
certified and has fewer terms; it is cached by that evaluation, not by the
ordered pair, so both orders share one Horner pass wherever they name the
same evaluation, and a cached product is always the evaluation the rule names
for the ordered pair asked.
"""

from dataclasses import dataclass
from math import lcm
from operator import add

from .cartan import CorootVec, RootSystem, WeightVec, cached, solve_integral
from .coeffring import (
    Scalar,
    divide_raw,
    from_raw,
    omega_diff,
    packed_addmul,
    packed_axpy,
    reduced_form,
    require_integral,
    scalar_one,
    settle,
    to_raw,
)
from .weyl import WeylElt, cover_table, enumerate_weyl, longest_of, root_pairings, weyl_identity

QHClass = dict  # (WeylElt, qexp tuple) -> Scalar


def qh_basis(rs: RootSystem, w: WeylElt, qexp: CorootVec | None = None) -> QHClass:
    return {(w, qexp if qexp is not None else rs.zero_coroot()): scalar_one(rs)}


def chevalley_into(rs: RootSystem, i: int, raw: dict, out: dict) -> dict:
    """The Chevalley kernel: adds sigma^{r_i} times the raw class ``raw``
    into the accumulator ``out`` and returns it, unsettled.

    The image of c sigma^w is c (omega_i - w.omega_i) sigma^w, plus
    c <alpha^vee, omega_i> at every up and quantum out-edge of w in the
    quantum Bruhat graph, the quantum ones shifted by q^{alpha^vee}.
    """
    for (w, q), t in raw.items():
        d = omega_diff(rs, i, w).packed
        if d:
            packed_addmul(out, (w, q), t, d)
        ups, quantums, _, _ = cover_table(rs, w)
        for a, avee, wr in ups:
            k = avee[i]
            if k:
                packed_axpy(out, (wr, q), t, k)
        for a, avee, wr in quantums:
            k = avee[i]
            if k:
                packed_axpy(out, (wr, tuple(map(add, q, avee))), t, k)
    return out


def chevalley(rs: RootSystem, i: int, sigma: QHClass) -> QHClass:
    """Multiplication by the divisor class sigma^{r_i} (0-based node i)."""
    return from_raw(rs, settle(chevalley_into(rs, i, to_raw(sigma), {})))


def chevalley_weight(rs: RootSystem, mu: WeightVec, sigma: QHClass) -> QHClass:
    """Multiplication by sum_i mu_i sigma^{r_i}."""
    if len(mu) != rs.rank:
        raise ValueError(f"weight {tuple(mu)} has {len(mu)} coordinates, expected {rs.rank} for {rs.label}")
    raw = to_raw(sigma)
    out: dict = {}
    for i, m in enumerate(mu):
        if m:
            chevalley_into(rs, i, {k: {e: c * m for e, c in t.items()} for k, t in raw.items()}, out)
    return from_raw(rs, settle(out))


@dataclass
class QSchubertPoly:
    """Sum of terms (a / den) * q^shift * omega-monomial.

    Stored once in integer form: ``num`` is the raw class (qshift, word) ->
    packed integer numerators a, and ``den`` the one positive denominator,
    the lcm of the coefficient denominators.  Words are sorted tuples of
    0-based fundamental-weight indices; evaluating the polynomial through the
    Chevalley operators returns the Schubert class it represents, which
    ``schubert_poly`` certifies.
    """

    w: WeylElt
    num: dict  # (qshift tuple, word tuple) -> {packed monomial: int}
    den: int

    @property
    def terms(self) -> dict:
        """(qshift, word) -> Scalar: the rational coefficients, rebuilt."""
        return from_raw(self.w.rs, divide_raw(self.num, self.den))


class _PolyTable:
    """Polynomials of every element up to length ``built``, extended a layer
    at a time; the elimination for a layer needs every shorter polynomial.
    ``solve_integral`` gives a layer's solutions as integer numerators over
    one denominator, so each polynomial is built on ints alone."""

    __slots__ = ("by_len", "polys", "built")

    def __init__(self, rs: RootSystem):
        self.by_len: dict[int, list[WeylElt]] = {}
        for u in enumerate_weyl(rs):
            self.by_len.setdefault(u.length(), []).append(u)
        e = weyl_identity(rs)
        self.polys: dict = {e: QSchubertPoly(e, {(rs.zero_coroot(), ()): {0: 1}}, 1)}
        self.built = 0

    def extend(self, rs: RootSystem, top: int) -> None:
        polys = self.polys
        for l in range(self.built + 1, top + 1):
            layer = self.by_len[l]
            unknowns = [(u, i) for u in self.by_len[l - 1] for i in range(rs.rank)]
            mat = {}
            for (u, i) in unknowns:
                for a, avee, ur in cover_table(rs, u)[0]:
                    if avee[i]:
                        mat[(ur, (u, i))] = mat.get((ur, (u, i)), 0) + avee[i]
            den, sols = solve_integral(layer, unknowns, mat, [{target: 1} for target in layer])
            for target, sol in zip(layer, sols):
                parts = [(x, u, i) for x, (u, i) in zip(sol, unknowns) if x]
                # one common denominator den * pden for every multiplier x / den, so the sum runs on ints
                pden = lcm(*(polys[u].den for _, u, _ in parts),
                           *(polys[ur].den for _, u, i in parts for _a, avee, ur in cover_table(rs, u)[1] if avee[i]))
                acc: dict = {}
                for x, u, i in parts:
                    # x * omega_i * S_u, minus the equivariant and quantum corrections
                    pu = polys[u]
                    m = x * (pden // pu.den)
                    for (q, word), c in pu.num.items():
                        packed_axpy(acc, (q, tuple(sorted(word + (i,)))), c, m)
                    d = (omega_diff(rs, i, u) * -m).packed
                    if d:
                        for k, c in pu.num.items():
                            packed_addmul(acc, k, c, d)
                    for _a, avee, ur in cover_table(rs, u)[1]:
                        if avee[i]:
                            pr = polys[ur]
                            k = -x * avee[i] * (pden // pr.den)
                            for (q, word), c in pr.num.items():
                                packed_axpy(acc, (tuple(map(add, q, avee)), word), c, k)
                tden, tnum = reduced_form(den * pden, settle(acc))
                polys[target] = QSchubertPoly(target, tnum, tden)
            self.built = l


@cached("qschub-table")
def _poly_table(rs: RootSystem) -> _PolyTable:
    return _PolyTable(rs)


@cached("qschub")
def schubert_poly(rs: RootSystem, w: WeylElt) -> QSchubertPoly:
    """A deterministic equivariant quantum Schubert polynomial for sigma^w."""
    table = _poly_table(rs)
    table.extend(rs, w.length())
    # coefficients may be honestly rational (outside simply-laced types the
    # degree-2 classes need not generate over Z); every evaluated class is
    # integral and product_basis checks that downstream
    poly = table.polys[w]
    if evaluate_poly(rs, poly) != qh_basis(rs, w):
        raise AssertionError("Schubert polynomial round-trip failed")
    if any(e < 0 for q, _word in poly.num for e in q):
        raise AssertionError("Schubert polynomial has a negative q-shift")
    return poly


def horner(poly: QSchubertPoly, put, step) -> dict:
    """Horner's rule over the prefix trie of the words: the settled root,
    not yet divided by ``poly.den``.

    ``put(acc, q, a)`` adds numerator a times the seed of q-shift q into a
    word's raw accumulator; ``step(i, raw, out)`` adds the image of ``raw``
    under the operator of letter i into ``out``.  Nodes go from the longest
    to the shortest, each settled and stepped into its parent, so the
    operators must be coefficient-linear and commute; each distinct non-empty
    prefix costs one step, on the sum of its subtree.
    """
    nodes: dict = {(): {}}
    for (q, word), a in poly.num.items():
        for k in range(1, len(word) + 1):
            nodes.setdefault(word[:k], {})
        put(nodes[word], q, a)
    for word in sorted(nodes, key=len, reverse=True):
        if word:
            step(word[-1], settle(nodes.pop(word)), nodes[word[:-1]])
    return settle(nodes[()])


def evaluate_poly(rs: RootSystem, poly: QSchubertPoly, start: QHClass | None = None) -> QHClass:
    """The polynomial applied to ``start``; the default sigma^id gives the
    round-trip oracle, so the image is the class the polynomial represents.

    ``horner`` with the Chevalley step (S[q]-linear, and the steps commute)
    and numerator * q^shift * start as a term's seed.  An integral start runs
    on ints throughout.
    """
    if start is None:
        start = qh_basis(rs, weyl_identity(rs))
    seed = to_raw(start)

    def put(acc, q, a):
        for (v, qv), t in seed.items():
            packed_addmul(acc, (v, tuple(map(add, qv, q))), t, a)

    root = horner(poly, put, lambda i, raw, out: chevalley_into(rs, i, raw, out))
    return from_raw(rs, divide_raw(root, poly.den))


def product_basis(rs: RootSystem, u: WeylElt, v: WeylElt) -> QHClass:
    """sigma^u * sigma^v.

    The product is commutative, so it applies one factor's polynomial to the
    other factor's class.  It extracts only the polynomial of the shorter
    factor (of u on equal lengths), which builds no more of the table than
    u's would.  The longer factor's polynomial is read only where
    ``schubert_poly`` has already certified it, and then the polynomial with
    fewer terms is evaluated, ties going to the shorter factor.

    The result is cached by the evaluation that rule names, not by the
    ordered pair, so sigma^v sigma^u reads the evaluation sigma^u sigma^v ran
    whenever the rule names the same one for both orders; where the orders
    name different evaluations (equal lengths and a tie in terms), each runs
    its own.  A cached value is always the evaluation this call would run.
    """
    owner, start = (v, u) if v.length() < u.length() else (u, v)
    # cached() keeps schubert_poly's results under ("qschub", w)
    known = rs._cache.get(("qschub", start))
    if known is not None and len(known.num) < len(schubert_poly(rs, owner).num):
        owner, start = start, owner
    return _evaluated_product(rs, owner, start)


@cached("qhprod")
def _evaluated_product(rs: RootSystem, owner: WeylElt, start: WeylElt) -> QHClass:
    """The certified polynomial of ``owner`` applied to sigma^start."""
    out = evaluate_poly(rs, schubert_poly(rs, owner), qh_basis(rs, start))
    # rational bookkeeping must cancel: structure constants live in Z[alpha]
    require_integral(c.packed for c in out.values())
    return out


def product(rs: RootSystem, a: QHClass, b: QHClass) -> QHClass:
    out: dict = {}
    for (u, qu), cu in a.items():
        for (v, qv), cv in b.items():
            c = (cu * cv).packed
            shift = tuple(map(add, qu, qv))
            for (x, qx), s in product_basis(rs, u, v).items():
                packed_addmul(out, (x, tuple(map(add, qx, shift))), s.packed, c)
    return from_raw(rs, settle(out))


def gw_coefficient(rs: RootSystem, u: WeylElt, v: WeylElt, w: WeylElt, lam: CorootVec) -> Scalar:
    return product_basis(rs, u, v).get((w, tuple(lam)), Scalar())


# -- parabolic Chevalley and the Peterson-Woodward lift ----------------------
# These use only the surface of a ParabolicData object (module parabolic).

def parabolic_chevalley(pd, i: int, sigma: QHClass) -> QHClass:
    """Multiplication by sigma_P^{r_i} in QH^T(G/P), i a node outside I_P.

    Keys are (w in W^P, q-exponent tuple over the nodes outside I_P).  The
    quantum summation requires both the quotient-length condition and the
    full-length condition.
    """
    rs = pd.rs
    if i in pd.nodes:
        raise ValueError("Chevalley node must lie outside the parabolic node set")
    out: dict = {}
    for (w, q), c in sigma.items():
        t = c.packed
        d = omega_diff(rs, i, w).packed
        if d:
            packed_addmul(out, (w, q), t, d)
        ups, quantums, _, _ = cover_table(rs, w)
        # avee[i] == 0 for alpha in R_P^+: Levi coroots are supported on I_P, and i is not in I_P
        for _a, avee, wr in ups:
            if avee[i] and pd.is_minimal_rep(wr):
                packed_axpy(out, (wr, q), t, avee[i])
        for _a, avee, wr in quantums:
            if avee[i]:
                # l(pi_P(w r_alpha)) = l(w) + 1 - <alpha^vee, 2 rho - 2 rho_P>
                pwr = pd.pi_finite(wr)
                if pwr.length() == wr.length() + pd.pair_two_rho_p(avee):
                    packed_axpy(out, (pwr, tuple(map(add, q, pd.eta(avee)))), t, avee[i])
    return from_raw(rs, settle(out))


def pw_lift(pd, lam_p) -> tuple[CorootVec, frozenset, WeylElt]:
    """Lift a parabolic quantum parameter: returns (lam_B, I_P', w_P w_P').

    lam_B is the unique lift pairing to 0 or -1 against every root of R_P^+.
    """
    rs = pd.rs
    v, lam_b, jms = pd.pi_translation_data(pd.coset_coroot(lam_p))
    pr = root_pairings(rs, lam_b)
    if any(pr[k] not in (0, -1) for k in pd.rp_index):
        raise AssertionError("lifted parameter pairs outside {0,-1} on R_P^+")
    ipp = frozenset(pd.nodes) - {j for j in jms if j is not None}
    wp = pd.longest_wp()
    wpp = longest_of(rs, ipp)
    if v != wp * wpp:
        raise AssertionError("component representatives disagree with w_P w_{P'}")
    return lam_b, ipp, v
