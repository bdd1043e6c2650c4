"""Affine Bruhat operators, the Peterson subalgebra, and the homology ring.

The near/far operators act on free S-modules over superregular affine
elements (plain dicts ``AffineElt -> Scalar``); iterating the near operator
over a Weyl-orbit of translations produces central elements, from which
the affine Schubert classes, their products, and the isomorphism onto the
localized quantum ring are computed.  ``B`` and ``C`` are rules (a per-term
margin check, a diagonal, and the near or far rows each weighted by its
coroot) over the Kostant-Kumar kernel ``nilhecke.bruhat_into``, which the
centrality certificate shares.  A j-class is the quantum Schubert polynomial
of its Weyl part evaluated at the commuting operators B^{omega_i} by
``quantum.horner``, which also evaluates the polynomials on the quantum
route, stepping by the kernel on raw classes keyed by (w, t) pairs; no
b-element is built on the product path, and the class itself is certified.
"""

from dataclasses import dataclass
from operator import add

from .cartan import CorootVec, RootSystem, WeightVec, cached
from .coeffring import Scalar, divide_raw, from_raw, packed_addmul, packed_axpy, scalar_one, settle, weight_diff
from .nilhecke import COROOT, FAR, NEAR, NilHeckeElt, act_on_homology, bruhat_into, from_pairs, is_central, mod_J, to_pairs
from .quantum import QHClass, gw_coefficient, horner, schubert_poly
from .weyl import (
    AffineElt,
    BudgetError,
    WeylElt,
    affine_simple_reflection,
    chamber_decompose,
    enumerate_weyl,
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


def _b_rule(rs, mu, w, t, v, wv, margin):
    if margin < 4:
        _require_margin(AffineElt(w, t))
    return weight_diff(rs, mu, wv), NEAR, COROOT


def _c_rule(rs, mu, w, t, v, wv, margin):
    if margin < 4:
        _require_margin(AffineElt(w, t))
    return weight_diff(rs, mu, v), FAR, COROOT


def b_op(rs: RootSystem, mu: WeightVec, f: GroupAlgebraElt) -> GroupAlgebraElt:
    """Near equivariant affine Bruhat operator B^mu: diagonal mu - w v mu, weights <alpha^vee, mu>."""
    return from_pairs(rs, settle(bruhat_into(rs, mu, _b_rule, to_pairs(f), {})))


def c_op(rs: RootSystem, mu: WeightVec, f: GroupAlgebraElt) -> GroupAlgebraElt:
    """Far equivariant affine Bruhat operator C^mu: diagonal mu - v mu, weights <alpha^vee, mu>."""
    return from_pairs(rs, settle(bruhat_into(rs, mu, _c_rule, to_pairs(f), {})))


def _add_translations(rs: RootSystem, acc: dict, lam: CorootVec, a: dict) -> dict:
    """acc += a sum_{w in W} t_{w lam} on a raw class keyed by pairs."""
    e = weyl_identity(rs)
    for w in enumerate_weyl(rs):
        packed_axpy(acc, (e, w.act_coroot(lam)), a, 1)
    return acc


def sum_translations(rs: RootSystem, lam: CorootVec) -> GroupAlgebraElt:
    """sum_{w in W} t_{w lam}."""
    return from_pairs(rs, settle(_add_translations(rs, {}, lam, scalar_one(rs).packed)))


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


@cached("jclass")
def j_class(rs: RootSystem, x: AffineElt) -> NilHeckeElt:
    """j(xi_x) for Grassmannian superregular x = w t_lam: the quantum
    Schubert polynomial of w at the operators B^{omega_i}.

    ``quantum.horner`` seeds a term a q^shift omega^word with
    a sum_v t_{v(lam + shift)} and steps by B^{omega_i} (S-linear, and the B
    operators commute), each step ``bruhat_into`` under the B rule from a
    raw node into its parent, keyed by (w, t) pairs, on the integer numerators;
    the root is divided by the denominator once, and a remainder raises
    ValueError.  Centrality and a Grassmannian part of exactly A_x
    characterize j_x; both are certified on the returned class.
    """
    if not is_grassmannian(x):
        raise ValueError("j classes are indexed by Grassmannian elements")
    _require_margin(x, units=j_units_needed(rs, x.w))
    poly = schubert_poly(rs, x.w)
    root = horner(poly, lambda acc, q, a: _add_translations(rs, acc, tuple(map(add, x.t, q)), a),
                  lambda i, raw, out: bruhat_into(rs, rs.fundamental_weight(i), _b_rule, raw, out))
    raw = divide_raw(root, poly.den)
    bad = next((c for t in raw.values() for c in t.values() if type(c) is not int), None)
    if bad is not None:
        raise ValueError(f"non-integral coefficient {bad}")
    out = from_pairs(rs, raw)
    if mod_J(out) != {x: scalar_one(rs)}:
        raise AssertionError("j class Grassmannian part is not A_x")
    if not is_central(rs, out):
        raise AssertionError("j class is not central")
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


def hom_product_basis(rs: RootSystem, x: AffineElt, z: AffineElt) -> dict:
    """xi_x xi_z as an honest class: dict AffineElt -> Scalar.

    When x is not superregular enough both sides are translated by a deep
    antidominant kappa and the support is shifted back at the end.
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
    j = j_class(rs, xs)
    t = act_on_homology(rs, j, {z: scalar_one(rs)})
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
