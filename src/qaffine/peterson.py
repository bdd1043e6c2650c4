"""Affine Bruhat operators, the Peterson subalgebra, and the homology ring.

The near/far operators act on free S-modules over superregular affine
elements (plain dicts ``AffineElt -> Scalar``); iterating the near operator
over a Weyl-orbit of translations produces central elements, from which
the affine Schubert classes, their products, and the isomorphism onto the
localized quantum ring are computed.  ``B`` and ``C`` are rules (a per-term
margin check, a diagonal, and the near or far rows each weighted by its
coroot) over the Kostant-Kumar kernel ``nilhecke.bruhat_into``, which the
centrality certificate shares.  A j-class is computed once per Weyl element
w, at one canonical depth: the quantum Schubert polynomial of w evaluated at
the commuting operators B^{omega_i} by ``quantum.horner``, which also
evaluates the polynomials on the quantum route, stepping by the kernel on raw
classes keyed by the coordinates (u, v, lam); no b-element is built on the
product path, and the class itself is certified.  Every j-class of w is that
class shifted in lam, and the product xi_x xi_z reads only the terms of j_x in
the chamber v = z.w.
"""

from dataclasses import dataclass
from operator import add, sub

from .cartan import CorootVec, RootSystem, WeightVec, cached
from .coeffring import (Scalar, divide_raw, from_raw, packed_addmul, packed_axpy, require_integral, scalar_one, settle,
                        weight_diff)
from .nilhecke import COROOT, FAR, NEAR, NilHeckeElt, act_on_homology, bruhat_into, from_pairs, is_central, mod_J, to_pairs
from .quantum import QHClass, gw_coefficient, horner, schubert_poly
from .weyl import (
    AffineElt,
    BudgetError,
    WeylElt,
    affine_simple_reflection,
    chamber_decompose,
    coordinates,
    enumerate_weyl,
    from_coordinates,
    is_grassmannian,
    is_superregular,
    length,
    root_pairings,
    superregular_antidominant,
    superregular_margin,
    translation,
    weyl_identity,
)

GroupAlgebraElt = dict  # AffineElt -> Scalar


def _require_margin(x: AffineElt, units: int = 1):
    found = superregular_margin(x)
    if found < 4 * units:
        raise BudgetError(f"superregularity budget exhausted at {x!r}: margin needed {4 * units}, found {found} "
                          f"(pairing units beyond 2|W| + 2)")


def _b_rule(rs, mu, u, v, lam, margin):
    if margin < 4:
        _require_margin(from_coordinates(u, v, lam))
    return weight_diff(rs, mu, u), NEAR, COROOT


def _c_rule(rs, mu, u, v, lam, margin):
    if margin < 4:
        _require_margin(from_coordinates(u, v, lam))
    return weight_diff(rs, mu, v), FAR, COROOT


def b_op(rs: RootSystem, mu: WeightVec, f: GroupAlgebraElt) -> GroupAlgebraElt:
    """Near equivariant affine Bruhat operator B^mu: diagonal mu - u mu, weights <alpha^vee, mu>."""
    return from_pairs(rs, settle(bruhat_into(rs, mu, _b_rule, to_pairs(f), {})))


def c_op(rs: RootSystem, mu: WeightVec, f: GroupAlgebraElt) -> GroupAlgebraElt:
    """Far equivariant affine Bruhat operator C^mu: diagonal mu - v mu, weights <alpha^vee, mu>."""
    return from_pairs(rs, settle(bruhat_into(rs, mu, _c_rule, to_pairs(f), {})))


def sum_translations(rs: RootSystem, lam: CorootVec) -> GroupAlgebraElt:
    """sum_{w in W} t_{w lam}: a singular lam gets its stabilizer's order as coefficient."""
    e, one = weyl_identity(rs), scalar_one(rs).packed
    raw: dict = {}
    for w in enumerate_weyl(rs):
        packed_axpy(raw, AffineElt(e, w.act_coroot(lam)), one, 1)
    return from_raw(rs, settle(raw))


def theta_map(rs: RootSystem, w: WeylElt, lam: CorootVec, sigma: QHClass) -> GroupAlgebraElt:
    """Theta_w^lam: q_mu sigma^v -> v w^{-1} t_{w(lam + mu)}; needs lam-small sigma."""
    out: GroupAlgebraElt = {}
    winv = w.inverse()
    for (v, q), c in sigma.items():
        shifted = tuple(l + m for l, m in zip(lam, q))
        if not (rs.is_antidominant(shifted) and is_superregular(translation(rs, shifted))):
            raise BudgetError("class is not lam-small for this lam")
        # (v, q) -> (v w^{-1}, w(lam + q)) is injective, so each key is set once
        out[AffineElt(v * winv, w.act_coroot(shifted))] = c
    return out


def b_element(rs: RootSystem, lam: CorootVec, mu_seq) -> NilHeckeElt:
    """b(lam; mu^1..mu^k) = Upsilon(B^{mu^k} ... B^{mu^1} sum_w t_{w lam}),
    certified central; Upsilon (x -> A_x) is the identity on the dicts."""
    if not rs.is_antidominant(lam):
        raise ValueError("lam must be antidominant")
    _require_margin(translation(rs, lam), units=len(mu_seq))
    a = sum_translations(rs, lam)
    for mu in mu_seq:
        a = b_op(rs, mu, a)
    if not is_central(rs, a):
        raise AssertionError("b element failed centrality")
    return a


def j_units_needed(rs: RootSystem, w: WeylElt) -> int:
    """Margin units a j-class computation for w t_lam consumes.

    Each operator application costs one unit; the q-shifts in the Schubert
    polynomial move lam away from the deep chamber and are charged too.
    """
    poly = schubert_poly(rs, w)
    worst = 1
    for (qshift, word) in poly.num:
        qpair = max(map(abs, root_pairings(rs, qshift)))
        worst = max(worst, len(word) + (qpair + 3) // 4 + 1)
    return worst


def _j_raw(rs: RootSystem, w: WeylElt, lam: CorootVec) -> dict:
    """The raw class of j_{w t_lam}, keyed by coordinates: the quantum
    Schubert polynomial of w at the operators B^{omega_i}.

    ``quantum.horner`` seeds a term a q^shift omega^word with
    a sum_v t_{v(lam + shift)}, the keys (v, v, lam + shift), and steps by
    B^{omega_i} (S-linear, and the B operators commute), each step
    ``bruhat_into`` under the B rule from a raw node into its parent, on the
    integer numerators; the root is divided by the denominator once, and a
    remainder raises ValueError.
    """
    W = enumerate_weyl(rs)
    poly = schubert_poly(rs, w)

    def seed(acc, q, a):
        top = tuple(map(add, lam, q))
        if not (rs.is_antidominant(top) and rs.is_regular(top)):
            raise BudgetError(f"seed t_{list(top)} of a j-class is not regular antidominant")
        for v in W:
            packed_axpy(acc, (v, v, top), a, 1)

    root = horner(poly, seed, lambda i, raw, out: bruhat_into(rs, rs.fundamental_weight(i), _b_rule, raw, out))
    raw = divide_raw(root, poly.den)
    require_integral(raw.values())
    return raw


@cached("jcanon")
def _canonical_j(rs: RootSystem, w: WeylElt) -> tuple[CorootVec, NilHeckeElt]:
    """(lam_c, j_{w t_lam_c}) at the depth lam_c that the operator steps of w
    need, certified central with Grassmannian part A_{w t_lam_c}."""
    lam = superregular_antidominant(rs, units=j_units_needed(rs, w))
    a = from_pairs(rs, _j_raw(rs, w, lam))
    if mod_J(a) != {AffineElt(w, lam): scalar_one(rs)}:
        raise AssertionError("j class Grassmannian part is not A_x")
    if not is_central(rs, a):
        raise AssertionError("j class is not central")
    return lam, a


def _shift(rs: RootSystem, a: NilHeckeElt, mu: CorootVec) -> NilHeckeElt:
    """S_mu: u t_lam v^{-1} -> u t_{lam + mu} v^{-1}, that is y -> y.w t_{y.t + v mu},
    on a class whose terms have coordinates (u, v, lam).  Every lam + mu must
    be antidominant and superregular, or BudgetError."""
    bound = 2 * rs.weyl_order + 2
    npos = len(rs.positive_roots)
    pmu = root_pairings(rs, mu)[:npos]
    deep: dict = {}  # lam -> lam + mu, checked
    moves: dict = {}  # v -> v mu
    out = {}
    for y, c in a.items():
        u, v, lam = coordinates(y)
        top = deep.get(lam)
        if top is None:
            # antidominant and superregular: <lam + mu, alpha> <= -bound for every alpha > 0
            if max(map(add, root_pairings(rs, lam)[:npos], pmu)) > -bound:
                raise BudgetError(f"j-class term {y!r} shifted by {list(mu)} "
                                  f"leaves the superregular antidominant chamber")
            top = deep[lam] = tuple(map(add, lam, mu))
        vmu = moves.get(v)
        if vmu is None:
            vmu = moves[v] = v.act_coroot(mu)
        out[AffineElt(y.w, tuple(map(add, y.t, vmu)), (u, v, top))] = c
    return out


@cached("jclass")
def j_class(rs: RootSystem, x: AffineElt) -> NilHeckeElt:
    """j(xi_x) for Grassmannian superregular x = w t_lam: the canonical class
    of w shifted in lam, its Grassmannian part certified.

    The class of w is computed once, at lam_c = superregular_antidominant(rs,
    units=j_units_needed(rs, w)), and certified there, central with
    Grassmannian part A_{w t_lam_c}.  x is served as S_mu of it, mu = lam -
    lam_c, S_mu moving each term of coordinates (u, v, lam') to (u, v,
    lam' + mu), that is y to y.w t_{y.t + v mu}.  Why S_mu a is j_x, for a the
    canonical class, with no second centrality check:

    * the kernel reads lam' only through the margin and the targets
      lam' + e alpha^vee; diagonals, rows and weights read u and v alone.  So
      on classes whose terms are all superregular, [rho, S_mu a] = S_mu [rho, a]
      term by term, and S_mu is injective on coordinates; [rho, a] = 0 gives
      [rho, S_mu a] = 0, and ``is_central``'s criterion is exact there.
      ``_shift`` refuses any lam' + mu that is not antidominant and
      superregular;
    * a superregular element is Grassmannian iff v = id, which S_mu keeps, so
      the Grassmannian part of S_mu a is A_x; it is checked all the same;
    * j_x is the unique central element with Grassmannian part A_x (Peterson;
      Lam, J. AMS 21 (2008)).
    """
    if not is_grassmannian(x):
        raise ValueError("j classes are indexed by Grassmannian elements")
    _require_margin(x, units=j_units_needed(rs, x.w))
    lam, a = _canonical_j(rs, x.w)
    out = _shift(rs, a, tuple(map(sub, x.t, lam)))
    if mod_J(out) != {x: scalar_one(rs)}:
        raise AssertionError("j class Grassmannian part is not A_x")
    return out


@dataclass
class HomologyClass:
    """S-combination of Grassmannian Schubert classes over xi_{t_denom}^{-1}."""

    rs: RootSystem
    terms: dict  # AffineElt -> Scalar
    denom: CorootVec = None

    def __post_init__(self):
        if self.denom is None:
            self.denom = self.rs.zero_coroot()
        if not self.rs.is_antidominant(self.denom):
            raise ValueError(f"denominator {self.denom} is not antidominant")
        for x in self.terms:
            if not is_grassmannian(x):
                raise ValueError(f"{x!r} is not Grassmannian")

    def rebase(self, new_denom: CorootVec) -> "HomologyClass":
        shift = tuple(a - b for a, b in zip(new_denom, self.denom))
        if not self.rs.is_antidominant(shift):
            raise ValueError("can only rebase to a deeper denominator")
        if not any(shift):
            return self
        terms = {x.translate(shift): c for x, c in self.terms.items()}
        return HomologyClass(self.rs, terms, tuple(new_denom))

    def __eq__(self, other):
        if not isinstance(other, HomologyClass):
            return NotImplemented
        common = tuple(a + b for a, b in zip(self.denom, other.denom))
        return self.rebase(common).terms == other.rebase(common).terms


def hom_basis(rs: RootSystem, x: AffineElt) -> HomologyClass:
    return HomologyClass(rs, {x: scalar_one(rs)})


@cached("jchamber")
def j_chambers(rs: RootSystem, x: AffineElt) -> dict:
    """j_class(rs, x) split by the chamber coordinate v of its terms:
    dict v -> the part whose terms are u t_lam v^{-1}."""
    parts: dict = {}
    for y, c in j_class(rs, x).items():
        v = coordinates(y)[1]
        part = parts.get(v)
        if part is None:
            part = parts[v] = {}
        part[y] = c
    return parts


def hom_product_basis(rs: RootSystem, x: AffineElt, z: AffineElt) -> dict:
    """xi_x xi_z as an honest class: dict AffineElt -> Scalar.

    When x is not superregular enough, x alone is translated by a deep
    antidominant kappa, and the support is shifted back at the end.

    xi_x xi_z = j_x . xi_z, and only the terms of j_x in the chamber v = z.w
    are read (``j_chambers``).  Why the rest give 0, with A_y . xi_z =
    xi_{yz} when yz is Grassmannian and l(yz) = l(y) + l(z), else 0: let
    y = u t_lam v^{-1} be superregular, so |<lam, beta>| >= 2|W| + 2 for every
    root beta, and z = z.w t_nu Grassmannian, so nu is antidominant.  Write
    g = v^{-1} z.w, so yz = u t_lam g t_nu = (u g) t_{g^{-1} lam + nu}.

    * If g = id, then yz = u t_{lam+nu}.  This is Grassmannian, and
      l(yz) = l(y) + l(z) by l(u t_lam v^{-1}) = l(t_lam) - l(u) + l(v).
    * If g != id, some simple root has g alpha_s < 0.  Then yz Grassmannian
      forces <nu, alpha_s> <= -(2|W| + 2).  So l(t_{g^{-1} lam + nu}) <=
      l(t_lam) + l(t_nu) - (4|W| + 4), and a finite part moves a length by at
      most |R+| each way.  Hence l(yz) < l(y) + l(z).

    The first half is certified: y -> yz is injective and a settled class has
    no zero coefficient, so the product has as many terms as the part read.
    """
    if not (is_grassmannian(x) and is_grassmannian(z)):
        raise ValueError("homology product needs Grassmannian inputs")
    units = j_units_needed(rs, x.w)
    if is_superregular(x, slack=4 * units):
        kappa = rs.zero_coroot()
        xs = x
    else:
        kappa = superregular_antidominant(rs, units=units)
        xs = x.translate(kappa)
    part = j_chambers(rs, xs).get(z.w, {})
    t = act_on_homology(rs, part, {z: scalar_one(rs)})
    if len(t) != len(part):
        raise AssertionError("a term of the chamber v = z.w left the homology product")
    if not any(kappa):
        return t
    back = tuple(-k for k in kappa)
    out = {}
    for y, c in t.items():
        yb = y.translate(back)
        if not is_grassmannian(yb):
            raise AssertionError("translated product term failed to shift back")
        out[yb] = c
    return out


def hom_product(a: HomologyClass, b: HomologyClass) -> HomologyClass:
    rs = a.rs
    out: dict = {}
    for x, cx in a.terms.items():
        for z, cz in b.terms.items():
            c = (cx * cz).packed
            for y, cy in hom_product_basis(rs, x, z).items():
                packed_addmul(out, y, cy.packed, c)
    denom = tuple(p + q for p, q in zip(a.denom, b.denom))
    return HomologyClass(rs, from_raw(rs, settle(out)), denom)


def psi_map(h: HomologyClass) -> QHClass:
    """xi_{w t_lam} xi_{t_nu}^{-1} -> q_{lam - nu} sigma^w."""
    # x -> (x.w, x.t - nu) is injective, so each key is set once
    return {(x.w, tuple(a - b for a, b in zip(x.t, h.denom))): c for x, c in h.terms.items()}


def psi_inverse(rs: RootSystem, sigma: QHClass) -> HomologyClass:
    """Right inverse of psi_map; picks a deep enough common denominator."""
    nu = superregular_antidominant(rs, units=1)
    scale = 1
    while True:
        nus = tuple(scale * c for c in nu)
        ok = True
        for (w, q) in sigma:
            shifted = tuple(a + b for a, b in zip(q, nus))
            if not (rs.is_antidominant(shifted) and rs.is_regular(shifted)):
                ok = False
                break
        if ok:
            break
        scale *= 2
    # (w, q) -> w t_{q + nu} is injective, so each key is set once
    terms = {AffineElt(w, tuple(a + b for a, b in zip(q, nus))): c for (w, q), c in sigma.items()}
    return HomologyClass(rs, terms, nus)


def j_from_gw(rs: RootSystem, x: AffineElt, y: AffineElt) -> Scalar:
    """j^y_x from the quantum side: c_{w,v}^{uv, v^{-1}nu - lam}."""
    if not is_grassmannian(x):
        raise ValueError("x must be Grassmannian")
    if not is_superregular(y):
        raise ValueError("y must be superregular")
    v, nu_anti = chamber_decompose(rs, y.t)
    shift = tuple(a - b for a, b in zip(nu_anti, x.t))
    if any(c < 0 for c in shift):
        return Scalar()
    return gw_coefficient(rs, x.w, v, y.w * v, shift)


def gw_from_j(rs: RootSystem, f: WeylElt, g: WeylElt, h: WeylElt, eta: CorootVec) -> Scalar:
    """c_{f,g}^{h,eta} as the j-coefficient j_{f t_lam}^{h g^{-1} t_{g(eta+lam)}}."""
    pad = max(map(abs, root_pairings(rs, eta)))
    lam = superregular_antidominant(rs, units=j_units_needed(rs, f), shift=pad + 4)
    x = AffineElt(f, lam)
    j = j_class(rs, x)
    target = AffineElt(h * g.inverse(), g.act_coroot(tuple(e + l for e, l in zip(eta, lam))))
    return j.get(target, Scalar())


def pieri_r0(rs: RootSystem, xi: dict) -> dict:
    """Non-equivariant Pieri: xi_{r_0} . xi_x = sum a_i^vee xi_{r_i x}.

    Input and output are integer combinations ``AffineElt -> int``.
    """
    out: dict = {}
    for x, c in xi.items():
        if not is_grassmannian(x):
            raise ValueError("Pieri input must be Grassmannian")
        lx = length(x)
        for i in range(rs.rank + 1):
            y = affine_simple_reflection(rs, i) * x
            if length(y) == lx + 1 and is_grassmannian(y):
                out[y] = out.get(y, 0) + rs.comarks[i] * c
    return {k: v for k, v in out.items() if v}
