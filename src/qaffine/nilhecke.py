"""The affine nilHecke ring on the product path: centrality, mod-J
reduction and the action on the homology of the affine Grassmannian.

Elements are dicts ``AffineElt -> Scalar`` with coefficients written on the
left of the basis.  The W_af-action on weights is the level-zero one
(translations act trivially, the affine node acts by the highest-root
reflection).  Centrality is certified by ``is_central`` from one exact
commutator, with the regular weight rho.
"""

from .cartan import RootSystem
from .coeffring import from_raw, packed_addmul, settle, weight_diff
from .weyl import is_grassmannian, length, root_pairings, serialize, superregular_cocovers

NilHeckeElt = dict  # AffineElt -> Scalar


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

    [rho, a] is accumulated exactly, in one pass over a, in one raw class
    keyed by (w, t), the parts of y = w t_lam.  By the Kostant-Kumar
    commutation rule a term c A_x gives c (rho - x.rho) at x, and
    -c <beta^vee, rho> = c sum(d) at each cocover y, read raw from
    ``superregular_cocovers`` with no AffineElt built; sum(d) != 0, as d is
    a coroot.  a is central iff the commutator settles to 0.
    """
    acc: dict = {}
    get = acc.get
    rho = rs.rho
    diffs: dict = {}  # x.w -> packed rho - x.w rho
    for x, cx in a.items():
        t = cx.packed
        xw, xt = x.w, x.t
        d = diffs.get(xw)
        if d is None:
            d = diffs[xw] = weight_diff(rs, rho, xw).packed
        if d:
            packed_addmul(acc, (xw, xt), t, d)
        _v, _wv, near, far = superregular_cocovers(rs, xw, xt)
        for entries in (near, far):
            for yw, yt, dy, _row in entries:
                k = sum(dy)
                key = (yw, yt)
                row = get(key)
                if row is None:
                    acc[key] = {e: c * k for e, c in t.items()}
                else:
                    rget = row.get
                    for e, c in t.items():
                        row[e] = rget(e, 0) + c * k
    return not settle(acc)


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
