"""The affine nilHecke ring on the product path: the Kostant-Kumar kernel,
centrality, mod-J reduction and the action on the homology of the affine
Grassmannian.

Elements are dicts ``AffineElt -> Scalar`` with coefficients written on the
left of the basis.  The W_af-action on weights is the level-zero one
(translations act trivially, the affine node acts by the highest-root
reflection).  ``bruhat_into`` is the one loop that accumulates a class over
superregular cocovers: under a rule it is a Bruhat operator of ``peterson``,
the j-class step, or the commutator with the regular weight rho that
certifies centrality.
"""

from .cartan import RootSystem, WeightVec
from .coeffring import from_raw, packed_addmul, packed_axpy, settle, to_raw, weight_diff
from .weyl import AffineElt, is_grassmannian, length, root_pairings, serialize, superregular_cocovers

NilHeckeElt = dict  # AffineElt -> Scalar


def bruhat_into(rs: RootSystem, mu: WeightVec, rule, raw: dict, out: dict) -> dict:
    """The Kostant-Kumar kernel: adds the image of the raw class ``raw`` into
    the accumulator ``out`` and returns it, unsettled.

    For a superregular x = w t_{v lam}, rule(rs, mu, x, v, w v, near, far)
    on the entries of ``superregular_cocovers`` gives the diagonal Scalar
    d_x and the cocovers (vec, y.w, y.t); c A_x maps to
    c d_x A_x + sum c <vec, mu> A_y, after A_x mu = (x.mu) A_x +
    sum <beta^vee, mu> A_{x r_beta}.  Each distinct vec is paired once per
    call, and a y is built only for a nonzero weight.
    """
    weights: dict = {}  # vec -> <vec, mu>
    for x, t in raw.items():
        diag, covers = rule(rs, mu, x, *superregular_cocovers(rs, x.w, x.t))
        if diag:
            packed_addmul(out, x, t, diag.packed)
        for vec, yw, yt in covers:
            k = weights.get(vec)
            if k is None:
                k = weights[vec] = rs.pair_weight(vec, mu)
            if k:
                packed_axpy(out, AffineElt(yw, yt), t, k)
    return out


def _commutator_rule(rs, mu, x, v, wv, near, far):
    """[mu, A_x]: diagonal mu - x.w mu, every cocover weighted by <d, mu>."""
    return weight_diff(rs, mu, x.w), ((d, yw, yt) for entries in (near, far) for yw, yt, d, _row in entries)


def is_central(rs: RootSystem, a: NilHeckeElt) -> bool:
    """Whether a commutes with all scalars; one regular weight suffices.

    Domain: a is supported on superregular elements, as are the b-elements
    and j-classes the product path certifies; any other term raises
    BudgetError, a ValueError.  The certificate is the commutator
    [rho, a], rho = sum omega_i.  By Kostant and Kumar, A_af embeds in
    Q(S) # W_af, where a = sum f_x x gives [rho, a] = sum f_x (rho - x.rho) x
    and translations act trivially.  As rho is regular, rho - w rho != 0 for
    w != id, and Q(S) is a field; so [rho, a] = 0 iff a is supported on
    translations, that is iff a commutes with every weight.

    ``bruhat_into`` accumulates [rho, a] exactly: c A_x gives c (rho - x.rho)
    at x, and -c <beta^vee, rho> = c <d, rho> at each cocover.  a is central
    iff the commutator settles to 0.
    """
    return not settle(bruhat_into(rs, rs.rho, _commutator_rule, to_raw(a), {}))


def mod_J(a: NilHeckeElt) -> NilHeckeElt:
    """Reduction mod J = sum_{w != id} A_af A_w: keep Grassmannian terms."""
    return {x: c for x, c in a.items() if is_grassmannian(x)}


def act_on_homology(rs: RootSystem, a: NilHeckeElt, xi: dict) -> dict:
    """A_y . xi_z = xi_{yz} when length-additive and yz Grassmannian, else 0.

    yz = (y.w z.w) t_{z.w^{-1} y.t + z.t} is tested for Grassmannian from raw
    data before it is built: at each simple root alpha_s its translation pairs
    to <y.t, z.w alpha_s> + <z.t, alpha_s>, both read from ``root_pairings``,
    and y.w z.w descends at s iff y.w sends the root z.w alpha_s negative.
    """
    out: dict = {}
    npos = len(rs.positive_roots)
    simple = rs.simple_index
    zs = []
    for z, cz in xi.items():
        zpr = root_pairings(rs, z.t)
        zs.append((z, cz.packed, length(z), [(z.w.perm[s], zpr[s]) for s in simple]))
    for y, cy in a.items():
        ly = length(y)
        t = cy.packed
        ypr = root_pairings(rs, y.t)
        yp = y.w.perm
        for z, tz, lz, zsimple in zs:
            for k, q in zsimple:
                p = ypr[k] + q
                if p > 0 or p == 0 and yp[k] >= npos:
                    break
            else:
                yz = y * z
                if ly + lz == length(yz):
                    packed_addmul(out, yz, t, tz)
    return from_raw(rs, settle(out))


def to_json_list(rs: RootSystem, a: NilHeckeElt) -> list:
    items = sorted(a.items(), key=lambda kv: (length(kv[0]), repr(kv[0])))
    return [{"element": serialize(x), "coefficient": str(c)} for x, c in items]
