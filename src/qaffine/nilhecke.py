"""The affine nilHecke ring: A_x basis products, scalar commutation, centrality.

Elements are dicts ``AffineElt -> Scalar`` with coefficients written on the
left of the basis.  The W_af-action on weights is the level-zero one
(translations act trivially, the affine node acts by the highest-root
reflection).  Centrality is certified by ``is_central`` in one exact pass
over the element that needs no weight arithmetic; ``commutator_with_weight``
is the general-weight commutator it agrees with.
"""

from .cartan import CorootVec, RootSystem, WeightVec, cached
from .coeffring import Scalar, from_raw, omega_diff, packed_addmul, packed_axpy, settle, weight_diff
from .weyl import (
    AffineElt,
    WeylElt,
    cocovers,
    is_grassmannian,
    is_superregular,
    length,
    root_pairings,
    serialize,
    superregular_cocovers,
)

NilHeckeElt = dict  # AffineElt -> Scalar


def basis_product(x: AffineElt, y: AffineElt, one: Scalar) -> NilHeckeElt:
    """A_x A_y: A_{xy} when the product is length-additive, else 0."""
    if length(x) + length(y) == length(x * y):
        return {x * y: one}
    return {}


@cached("nh_cocovers")
def _cover_entries(rs: RootSystem, w: WeylElt, t: CorootVec):
    """Entries (y.w, y.t, d, row) over the cocovers y = x r_beta of x = w t_t,
    with d = -beta^vee: those of ``superregular_cocovers`` when x is
    superregular (there -beta = v alpha + n delta, so d = v alpha^vee), else
    the cover enumeration with row None."""
    x = AffineElt(w, t)
    if is_superregular(x):
        _v, _wv, near, far = superregular_cocovers(rs, w, t)
        return near + far
    return tuple((c.target.w, c.target.t, tuple(-e for e in rs.coroot_of(c.reflection_root.finite)), None)
                 for c in cocovers(x))


def commute_scalar(rs: RootSystem, x: AffineElt, mu: WeightVec) -> NilHeckeElt:
    """A_x mu = (x . mu) A_x + sum <beta^vee, mu> A_{x r_beta} over cocovers.

    The diagonal coefficient x . mu is a weight; its root-basis coordinates
    may be fractional, so the resulting Scalar can carry Fractions.
    """
    wmu = x.w.act_weight(mu)
    coords = rs.weight_to_root_basis(wmu)
    diag = Scalar.linear(tuple(int(c) if c.denominator == 1 else c for c in coords))
    # the cocovers of x are distinct and differ from x, so each key is set once
    out: NilHeckeElt = {x: diag} if diag else {}
    for yw, yt, d, _row in _cover_entries(rs, x.w, x.t):
        c = rs.pair_weight(d, mu)
        if c:
            out[AffineElt(yw, yt)] = Scalar.const(-c, rs.rank)
    return out


def commutator_with_weight(rs: RootSystem, a: NilHeckeElt, mu: WeightVec) -> NilHeckeElt:
    """mu a - a mu; its coefficients always lie in Z[alpha]."""
    out: dict = {}
    for x, cx in a.items():
        t = cx.packed
        # (mu - x.mu) A_x part
        packed_addmul(out, x, t, weight_diff(rs, mu, x.w).packed)
        for yw, yt, d, _row in _cover_entries(rs, x.w, x.t):
            c = rs.pair_weight(d, mu)
            if c:
                packed_axpy(out, AffineElt(yw, yt), t, c)
    return from_raw(rs, settle(out))


def is_central(rs: RootSystem, a: NilHeckeElt) -> bool:
    """Whether a commutes with all scalars; the generators omega_i suffice.

    Every commutator [omega_i, a] is accumulated exactly, in one pass over a,
    in one raw class keyed by (i, w.perm, t), the parts of y = w t_lam, so
    that equal elements meet as equal tuples.  A term c A_x gives
    c (omega_i - x.omega_i) at x, the cached ``omega_diff`` of the finite
    part, and -c <beta^vee, omega_i> = c d[i] at each cocover y, read raw
    from ``_cover_entries`` with no AffineElt built.  a is central iff every
    commutator settles to 0.
    """
    acc: dict = {}
    for x, cx in a.items():
        t = cx.packed
        xp, xt = x.w.perm, x.t
        for i in range(rs.rank):
            d = omega_diff(rs, i, x.w).packed
            if d:
                packed_addmul(acc, (i, xp, xt), t, d)
        for yw, yt, dy, _row in _cover_entries(rs, x.w, x.t):
            yp = yw.perm
            for i, di in enumerate(dy):
                if di:
                    packed_axpy(acc, (i, yp, yt), t, di)
    return not settle(acc)


def _push_variable(rs: RootSystem, a: NilHeckeElt, i: int) -> NilHeckeElt:
    """a . alpha_i with the variable moved to the left."""
    out: dict = {}
    alpha = tuple(row[i] for row in rs.cartan)  # alpha_i in the weight basis
    for x, cx in a.items():
        for y, c in commute_scalar(rs, x, alpha).items():
            packed_addmul(out, y, cx.packed, c.packed)
    return from_raw(rs, settle(out))


def scalar_on_right(rs: RootSystem, a: NilHeckeElt, s: Scalar) -> NilHeckeElt:
    """a . s for s in Z[alpha], normalized with all scalars on the left."""
    out: dict = {}
    for exps, coeff in s.terms.items():
        cur = a
        for i, e in enumerate(exps):
            for _ in range(e):
                cur = _push_variable(rs, cur, i)
        for x, cx in cur.items():
            packed_axpy(out, x, cx.packed, coeff)
    return from_raw(rs, settle(out))


def product(rs: RootSystem, a: NilHeckeElt, b: NilHeckeElt) -> NilHeckeElt:
    """Full nilHecke product of left-normalized elements."""
    out: dict = {}
    for y, cy in b.items():
        moved = scalar_on_right(rs, a, cy)
        ly = length(y)
        for x, cx in moved.items():
            if length(x) + ly == length(x * y):
                packed_axpy(out, x * y, cx.packed, 1)
    return from_raw(rs, settle(out))


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
