"""The affine nilHecke ring on the product path: the Kostant-Kumar kernel,
centrality, mod-J reduction and the action on the homology of the affine
Grassmannian.

Elements are dicts ``AffineElt -> Scalar`` with coefficients written on the
left of the basis.  The W_af-action on weights is the level-zero one
(translations act trivially, the affine node acts by the highest-root
reflection).  ``bruhat_into`` is the one loop that accumulates a class over
superregular cocovers, keyed by the superregular coordinates (u, v, lam) of
x = w t_{v lam} = u t_lam v^{-1} (``weyl.coordinates``): under a rule it is a
Bruhat operator of ``peterson``, the j-class step, or the commutator with the
regular weight rho that certifies centrality.
"""

from operator import add

from .cartan import RootSystem, WeightVec
from .coeffring import from_raw, packed_addmul, packed_axpy, settle, weight_diff
from .weyl import (BudgetError, coordinates, cover_table, from_coordinates, is_grassmannian, length, root_pairings,
                   serialize)

NilHeckeElt = dict  # AffineElt -> Scalar

# a rule's row groups (bits): NEAR, the up and quantum out-edges of u; FAR, the
# down and q-up in-edges of v; and its row weight, <alpha^vee, mu> or <d, mu>
# for d = v alpha^vee
NEAR, FAR, BOTH = 1, 2, 3
COROOT, D = False, True


def to_pairs(a: NilHeckeElt) -> dict:
    """The raw class of a, keyed by the coordinates (u, v, lam) of its terms."""
    return {coordinates(x): c.packed for x, c in a.items()}


def from_pairs(rs: RootSystem, raw: dict) -> NilHeckeElt:
    """A settled raw class keyed by coordinates as a NilHeckeElt: its keys are
    built here, each keeping its coordinates for a later ``to_pairs``."""
    return from_raw(rs, {from_coordinates(*key): c for key, c in raw.items()})


def bruhat_into(rs: RootSystem, mu: WeightVec, rule, raw: dict, out: dict) -> dict:
    """The Kostant-Kumar kernel: adds the image of the raw class ``raw``, keyed
    by coordinates (u, v, lam), into the accumulator ``out`` and returns it,
    unsettled.

    A superregular x = u t_lam v^{-1} has two kinds of cocovers: (u r_alpha, v,
    lam + e alpha^vee) over the up (e = 0) and quantum (e = 1) out-edges of u in
    the quantum Bruhat graph, and (u, v r_alpha, lam + e alpha^vee) over the
    down (e = 0) and q-up (e = 1) in-edges of v, all read off ``cover_table``.
    rule(rs, mu, u, v, lam, margin) gives the diagonal Scalar d_x, the row
    groups it reads and its row weight: c A_x maps to c d_x A_x + sum c k A_y,
    k = <alpha^vee, mu> or <v alpha^vee, mu>, after A_x mu = (x.mu) A_x + sum
    <beta^vee, mu> A_{x r_beta}.  Neither rows nor weights depend on lam, which
    enters through the margin, read once per distinct lam, and the shift by
    e alpha^vee.  A term below the superregular bound raises BudgetError.
    """
    bound = 2 * rs.weyl_order + 2
    npos = len(rs.positive_roots)
    margins: dict = {}  # lam -> margin beyond the bound
    weights: dict = {}  # None, or v for the weight d: {alpha^vee: k}
    for key, c in raw.items():
        u, v, lam = key
        margin = margins.get(lam)
        if margin is None:
            margin = margins[lam] = min(map(abs, root_pairings(rs, lam))) - bound
        if margin < 0:
            raise BudgetError(f"{from_coordinates(u, v, lam)!r} is not superregular")
        diag, groups, twisted = rule(rs, mu, u, v, lam, margin)
        if diag:
            packed_addmul(out, key, c, diag.packed)
        wk = v if twisted else None
        wt = weights.get(wk)
        if wt is None:
            # <v alpha^vee, mu> = <alpha^vee, v^{-1} mu>
            nu = v.inverse().act_weight(mu) if twisted else mu
            wt = weights[wk] = {avee: rs.pair_weight(avee, nu) for avee in rs.coroots[:npos]}
        if groups & NEAR:
            ups, quantums, _, _ = cover_table(rs, u)
            for rows, e in ((ups, 0), (quantums, 1)):
                for _a, avee, ur in rows:
                    k = wt[avee]
                    if k:
                        packed_axpy(out, (ur, v, tuple(map(add, lam, avee)) if e else lam), c, k)
        if groups & FAR:
            _, _, downs, qups = cover_table(rs, v)
            for rows, e in ((downs, 0), (qups, 1)):
                for _a, avee, vr in rows:
                    k = wt[avee]
                    if k:
                        packed_axpy(out, (u, vr, tuple(map(add, lam, avee)) if e else lam), c, k)
    return out


def _commutator_rule(rs, mu, u, v, lam, margin):
    """[mu, A_x]: diagonal mu - x.w mu, x.w = u v^{-1}, every cocover weighted by <d, mu>."""
    return weight_diff(rs, mu, u * v.inverse()), BOTH, D


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

    ``bruhat_into`` accumulates [rho, a] exactly, a keyed by coordinates: c A_x
    gives c (rho - x.rho) at x, and -c <beta^vee, rho> = c <d, rho> at each
    cocover.  a is central iff the commutator settles to 0.
    """
    return not settle(bruhat_into(rs, rs.rho, _commutator_rule, to_pairs(a), {}))


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
                if length(y) + lz == length(yz):
                    packed_addmul(out, yz, t, tz)
    return from_raw(rs, settle(out))


def to_json_list(rs: RootSystem, a: NilHeckeElt) -> list:
    items = sorted(a.items(), key=lambda kv: (length(kv[0]), repr(kv[0])))
    return [{"element": serialize(x), "coefficient": str(c)} for x, c in items]
