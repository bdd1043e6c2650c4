"""The affine nilHecke ring on the product path: the Kostant-Kumar kernel,
centrality, mod-J reduction and the action on the homology of the affine
Grassmannian.

Elements are dicts ``AffineElt -> Scalar`` with coefficients written on the
left of the basis.  The W_af-action on weights is the level-zero one
(translations act trivially, the affine node acts by the highest-root
reflection).  ``bruhat_into`` is the one loop that accumulates a class over
superregular cocovers, keyed by (w, t) pairs: under a rule it is a Bruhat
operator of ``peterson``, the j-class step, or the commutator with the regular
weight rho that certifies centrality.
"""

from .cartan import RootSystem, WeightVec
from .coeffring import from_raw, packed_addmul, packed_axpy, settle, weight_diff
from .weyl import (AffineElt, BudgetError, case_level, chamber_decompose, cover_rows, is_grassmannian, length,
                   root_pairings, serialize)

NilHeckeElt = dict  # AffineElt -> Scalar

# a rule's row groups of cover_rows (w v, near, far), and its row weights alpha^vee or d
NEAR, FAR, BOTH, COROOT, D = (1,), (2,), (1, 2), 1, 3


def to_pairs(a: NilHeckeElt) -> dict:
    """The raw class of a, keyed by (x.w, x.t) pairs for the kernel."""
    return {(x.w, x.t): c.packed for x, c in a.items()}


def from_pairs(rs: RootSystem, raw: dict) -> NilHeckeElt:
    """A settled raw class keyed by pairs as a NilHeckeElt: its keys are built here."""
    return from_raw(rs, {AffineElt(w, t): c for (w, t), c in raw.items()})


def bruhat_into(rs: RootSystem, mu: WeightVec, rule, raw: dict, out: dict) -> dict:
    """The Kostant-Kumar kernel: adds the image of the raw class ``raw``, keyed
    by (w, t) pairs, into the accumulator ``out`` and returns it, unsettled.

    For a superregular x = w t, t = v lam with lam antidominant, rule(rs, mu,
    w, t, v, w v, margin) gives the diagonal Scalar d_x, the groups of the
    rows ``cover_rows(rs, w, v)`` it reads and the slot of the vec weighting a
    row: c A_x maps to c d_x A_x + sum c <vec, mu> A_y, after A_x mu =
    (x.mu) A_x + sum <beta^vee, mu> A_{x r_beta}.  A row's cocover y, as
    ``cover_rows`` gives it, is formed only for a nonzero weight, and each vec
    is paired once per call.  A term below the superregular bound raises BudgetError.
    """
    bound = 2 * rs.weyl_order + 2
    weights: dict = {}  # vec -> <vec, mu>
    for (w, t), c in raw.items():
        pr = root_pairings(rs, t)
        margin = min(map(abs, pr)) - bound
        if margin < 0:
            raise BudgetError(f"{AffineElt(w, t)!r} is not superregular")
        v = chamber_decompose(rs, t)[0]
        rows = cover_rows(rs, w, v)
        diag, groups, slot = rule(rs, mu, w, t, v, rows[0], margin)
        if diag:
            packed_addmul(out, (w, t), c, diag.packed)
        for g in groups:
            for row in rows[g]:
                k = weights.get(row[slot])
                if k is None:
                    k = weights[row[slot]] = rs.pair_weight(row[slot], mu)
                if k:
                    p = pr[row[5]]
                    m = case_level(row[4], p) - p
                    packed_axpy(out, (row[2], tuple([a + m * e for a, e in zip(t, row[3])]) if m else t), c, k)
    return out


def _commutator_rule(rs, mu, w, t, v, wv, margin):
    """[mu, A_x]: diagonal mu - x.w mu, every cocover weighted by <d, mu>."""
    return weight_diff(rs, mu, w), BOTH, D


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

    ``bruhat_into`` accumulates [rho, a] exactly, a keyed by pairs: c A_x gives
    c (rho - x.rho) at x, and -c <beta^vee, rho> = c <d, rho> at each
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
