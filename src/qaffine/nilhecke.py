"""The affine nilHecke ring on the product path: centrality, mod-J
reduction and the action on the homology of the affine Grassmannian.

Elements are dicts ``AffineElt -> Scalar`` with coefficients written on the
left of the basis.  The W_af-action on weights is the level-zero one
(translations act trivially, the affine node acts by the highest-root
reflection).  Centrality is certified by ``is_central`` in one exact pass
over the element that needs no weight arithmetic.
"""

from .cartan import RootSystem
from .coeffring import from_raw, omega_diff, packed_addmul, packed_axpy, settle
from .weyl import is_grassmannian, length, root_pairings, serialize, superregular_cocovers

NilHeckeElt = dict  # AffineElt -> Scalar


def is_central(rs: RootSystem, a: NilHeckeElt) -> bool:
    """Whether a commutes with all scalars; the generators omega_i suffice.

    Domain: a is supported on superregular elements, as are the b-elements
    and j-classes the product path certifies; any other term raises
    ValueError.  Every commutator [omega_i, a] is accumulated exactly, in one
    pass over a, in one raw class keyed by (i, w, t), the parts of
    y = w t_lam.  By the Kostant-Kumar commutation rule a term c A_x gives
    c (omega_i - x.omega_i) at x, the cached ``omega_diff`` of the finite
    part, and -c <beta^vee, omega_i> = c d[i] at each cocover y, read raw
    from ``superregular_cocovers`` with no AffineElt built.  a is central iff
    every commutator settles to 0.
    """
    acc: dict = {}
    for x, cx in a.items():
        t = cx.packed
        xw, xt = x.w, x.t
        for i in range(rs.rank):
            d = omega_diff(rs, i, xw).packed
            if d:
                packed_addmul(acc, (i, xw, xt), t, d)
        _v, _wv, near, far = superregular_cocovers(rs, xw, xt)
        for entries in (near, far):
            for yw, yt, dy, _row in entries:
                for i, di in enumerate(dy):
                    if di:
                        packed_axpy(acc, (i, yw, yt), t, di)
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
