import itertools
import random
from fractions import Fraction

import pytest

from conftest import combo_axpy, to_int_coeffs, weight_to_root_basis
from test_peterson import twisted_b, twisted_c
from qaffine import cartan, nilhecke, peterson
from qaffine.coeffring import MAX_EXP, Scalar, from_raw, packed_addmul, packed_axpy, scalar_one, settle, weight_diff
from qaffine.nilhecke import act_on_homology, is_central, mod_J, to_pairs
from qaffine.quantum import QSchubertPoly, schubert_poly
from qaffine.weyl import (
    AffineElt,
    BudgetError,
    affine_from_word,
    affine_identity,
    affine_simple_reflection,
    chamber_decompose,
    cocovers,
    cocovers_superregular,
    coordinates,
    cover_table,
    enumerate_weyl,
    from_coordinates,
    is_grassmannian,
    is_superregular,
    length,
    reduced_word,
    simple_reflection,
    superregular_antidominant,
    superregular_margin,
    translation,
)


def one(rs):
    return scalar_one(rs)


# The general nilHecke ring, kept here as the reference the product path is
# checked against: the Kostant-Kumar commutation A_x mu = (x . mu) A_x +
# sum <beta^vee, mu> A_{x r_beta} over the cocovers y = x r_beta of x.

def cover_entries(rs, x):
    """(y.w, y.t, d) over the cocovers y = x r_beta of x, d = -beta^vee: where
    x = u t_lam v^{-1} is superregular, the near (u r_alpha, v, lam + e
    alpha^vee) and far (u, v r_alpha, lam + e alpha^vee) cocovers read off
    cover_table, with d = v alpha^vee; else the cover enumeration."""
    if is_superregular(x):
        u, v, lam = coordinates(x)
        ups, quantums, downs, qups = cover_table(rs, u)[:2] + cover_table(rs, v)[2:]
        out = []
        for near, e, rows in ((True, 0, ups), (True, 1, quantums), (False, 0, downs), (False, 1, qups)):
            for _a, avee, r in rows:
                mu = tuple(m + e * c for m, c in zip(lam, avee))
                y = from_coordinates(r, v, mu) if near else from_coordinates(u, r, mu)
                out.append((y.w, y.t, v.act_coroot(avee)))
        return out
    return [(c.target.w, c.target.t, tuple(-e for e in rs.coroot_of(c.reflection_root.finite))) for c in cocovers(x)]


def commute_scalar(rs, x, mu):
    """A_x mu with the scalars moved to the left.

    The diagonal coefficient x . mu is a weight; its root-basis coordinates
    may be fractional, so the resulting Scalar can carry Fractions.
    """
    coords = weight_to_root_basis(rs, x.w.act_weight(mu))
    diag = Scalar.linear(tuple(int(c) if c.denominator == 1 else c for c in coords))
    # the cocovers of x are distinct and differ from x, so each key is set once
    out = {x: diag} if diag else {}
    for yw, yt, d in cover_entries(rs, x):
        c = rs.pair_weight(d, mu)
        if c:
            out[AffineElt(yw, yt)] = Scalar.const(-c, rs.rank)
    return out


def commutator_with_weight(rs, a, mu):
    """mu a - a mu; its coefficients always lie in Z[alpha]."""
    out = {}
    for x, cx in a.items():
        t = cx.packed
        packed_addmul(out, x, t, weight_diff(rs, mu, x.w).packed)
        for yw, yt, d in cover_entries(rs, x):
            c = rs.pair_weight(d, mu)
            if c:
                packed_axpy(out, AffineElt(yw, yt), t, c)
    return from_raw(rs, settle(out))


def push_variable(rs, a, i):
    """a . alpha_i with the variable moved to the left."""
    out = {}
    alpha = tuple(row[i] for row in rs.cartan)  # alpha_i in the weight basis
    for x, cx in a.items():
        for y, c in commute_scalar(rs, x, alpha).items():
            packed_addmul(out, y, cx.packed, c.packed)
    return from_raw(rs, settle(out))


def scalar_on_right(rs, a, s):
    """a . s for s in Z[alpha], normalized with all scalars on the left."""
    out = {}
    for exps, coeff in s.terms.items():
        cur = a
        for i, e in enumerate(exps):
            for _ in range(e):
                cur = push_variable(rs, cur, i)
        for x, cx in cur.items():
            packed_axpy(out, x, cx.packed, coeff)
    return from_raw(rs, settle(out))


def product(rs, a, b):
    """Full nilHecke product of left-normalized elements: A_x A_y is A_{xy}
    when the product is length-additive, else 0."""
    out = {}
    for y, cy in b.items():
        moved = scalar_on_right(rs, a, cy)
        ly = length(y)
        for x, cx in moved.items():
            if length(x) + ly == length(x * y):
                packed_axpy(out, x * y, cx.packed, 1)
    return from_raw(rs, settle(out))


def central_reference(rs, a):
    return all(not commutator_with_weight(rs, a, rs.fundamental_weight(i)) for i in range(rs.rank))


def test_basis_product():
    rs = cartan.build("A1")
    e = affine_identity(rs)
    r1 = affine_simple_reflection(rs, 1)
    r0 = affine_simple_reflection(rs, 0)
    assert product(rs, {e: one(rs)}, {r1: one(rs)}) == {r1: one(rs)}
    assert product(rs, {r1: one(rs)}, {r1: one(rs)}) == {}
    assert product(rs, {r1: one(rs)}, {r0: one(rs)}) == {r1 * r0: one(rs)}


def test_commute_scalar_small():
    rs = cartan.build("A1")
    e = affine_identity(rs)
    om = (1,)
    got = commute_scalar(rs, e, om)
    # omega1 = a1/2 in the root basis of A1
    assert got == {e: Scalar.linear((Fraction(1, 2),))}

    r1 = affine_simple_reflection(rs, 1)
    got = commute_scalar(rs, r1, om)
    # A_i lam = (r_i lam) A_i + <lam, alpha_i^vee> 1
    assert got[e] == one(rs)
    assert got[r1] == Scalar.linear((Fraction(-1, 2),))


def test_commute_scalar_three_terms_a1():
    rs = cartan.build("A1")
    x = affine_from_word(rs, (1, 0))  # r_1 r_0 = t_{-alpha^vee}
    assert x == translation(rs, (-1,))
    got = commute_scalar(rs, x, (1,))
    assert len(got) == 3


def brute_commute(rs, x, mu):
    """Oracle: expand A_x mu through a reduced word using only the
    single-generator relation A_i lam = (r_i lam) A_i + <lam, alpha_i^vee>."""
    word = reduced_word(x)
    if not word:
        coords = weight_to_root_basis(rs, mu)
        return {affine_identity(rs): Scalar.linear(tuple(int(c) if c.denominator == 1 else c for c in coords))}
    head, last = word[:-1], word[-1]
    xp = affine_from_word(rs, head)
    ri = affine_simple_reflection(rs, last)
    # level-zero action of r_last on mu; alpha_0 = delta - theta, so the
    # level-zero part of alpha_0^vee is -theta^vee
    rmu = ri.w.act_weight(mu)
    ivee = tuple(-c for c in rs.theta_vee) if last == 0 else rs.simple_coroot(last - 1)
    pairing = rs.pair_weight(ivee, mu)
    out = {}
    for z, c in brute_commute(rs, xp, rmu).items():
        zi = z * ri
        if length(zi) == length(z) + 1:
            cur = out.get(zi, Scalar())
            s = cur + c
            if s:
                out[zi] = s
            elif zi in out:
                del out[zi]
    if pairing:
        cur = out.get(xp, Scalar())
        s = cur + Scalar.const(pairing, rs.rank)
        if s:
            out[xp] = s
        elif xp in out:
            del out[xp]
    return out


def test_commute_scalar_vs_reduced_word_expansion():
    rs = cartan.build("A2")
    rng = random.Random(17)
    W = enumerate_weyl(rs)
    xs = [AffineElt(w, t) for w in W for t in [(0, 0), (-1, 0), (0, -1), (-1, -1)]]
    xs = [x for x in xs if length(x) <= 6]
    for x in xs:
        for i in range(2):
            mu = rs.fundamental_weight(i)
            assert commute_scalar(rs, x, mu) == brute_commute(rs, x, mu)


def test_scalar_commutation_correction():
    # product(a1 A_id, A_{r1}) vs product(A_{r1}, a1 A_id) differ by the
    # commutation correction term
    rs = cartan.build("A1")
    e = affine_identity(rs)
    r1 = affine_simple_reflection(rs, 1)
    aid = {e: Scalar.var(0, 1)}
    ar1 = {r1: one(rs)}
    left = product(rs, aid, ar1)   # a1 A_{r1}
    right = product(rs, ar1, aid)  # A_{r1} a1 = (r1 a1) A_{r1} + <a1, a1^vee> A_id
    assert left == {r1: Scalar.var(0, 1)}
    assert right == {r1: -Scalar.var(0, 1), e: Scalar.const(2, 1)}


def test_product_identity_and_associativity():
    rs = cartan.build("A2")
    rng = random.Random(23)
    W = enumerate_weyl(rs)

    def rand_elt():
        out = {}
        for _ in range(rng.randint(1, 3)):
            x = AffineElt(rng.choice(W), (rng.randint(-1, 1), rng.randint(-1, 1)))
            s = Scalar({(rng.randint(0, 1), rng.randint(0, 1)): rng.randint(-2, 2)})
            if s:
                out[x] = out.get(x, Scalar()) + s
        return {k: v for k, v in out.items() if v}

    e = {affine_identity(rs): one(rs)}
    for _ in range(50):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert product(rs, e, a) == a
        assert product(rs, a, e) == a
        assert product(rs, product(rs, a, b), c) == product(rs, a, product(rs, b, c))
        # S-bilinearity in the left argument
        s = Scalar.var(0, 2)
        assert product(rs, {k: v * s for k, v in a.items()}, b) == {k: v * s for k, v in product(rs, a, b).items()}


def test_is_central():
    # these elements lie below the superregular margin, which is the domain
    # of is_central: the reference decides them
    rs = cartan.build("A1")
    e = affine_identity(rs)
    r1 = affine_simple_reflection(rs, 1)
    assert central_reference(rs, {e: Scalar.var(0, 1)})
    assert not central_reference(rs, {r1: one(rs)})
    tplus = translation(rs, (1,))
    tminus = translation(rs, (-1,))
    assert central_reference(rs, {tplus: one(rs), tminus: one(rs)})
    assert not central_reference(rs, {tplus: one(rs)})
    with pytest.raises(ValueError, match="not superregular"):
        is_central(rs, {tplus: one(rs), tminus: one(rs)})


def test_is_central_certifies_the_exponent_fields():
    # omega_1 - s1.omega_1 = a1, so the commutator at s1 t_lam needs a1^(MAX_EXP + 1)
    rs = cartan.build("A2")
    x = AffineElt(simple_reflection(rs, 0), superregular_antidominant(rs, units=1))
    with pytest.raises(OverflowError):
        is_central(rs, {x: Scalar({(MAX_EXP, 0): 1})})


def test_mod_J():
    rs = cartan.build("A1")
    r0 = affine_simple_reflection(rs, 0)
    r1 = affine_simple_reflection(rs, 1)
    tminus = translation(rs, (-2,))
    a = {tminus: one(rs), r1: one(rs), r0: Scalar.var(0, 1)}
    assert mod_J(a) == {tminus: one(rs), r0: Scalar.var(0, 1)}
    assert mod_J({r1: one(rs)}) == {}


def test_act_on_homology():
    rs = cartan.build("A1")
    e = affine_identity(rs)
    r0 = affine_simple_reflection(rs, 0)
    r1 = affine_simple_reflection(rs, 1)
    xi = {r0: one(rs)}
    assert act_on_homology(rs, {e: one(rs)}, xi) == xi
    assert act_on_homology(rs, {r1: one(rs)}, xi) == {r1 * r0: one(rs)}
    assert act_on_homology(rs, {r0: one(rs)}, xi) == {}


def test_central_product_respects_mod_J():
    # for central a and Grassmannian-supported b, mod_J(a b) only depends on
    # mod_J(b); realized here as: mod_J(a b) = mod_J(a mod_J(b))
    rs = cartan.build("A1")
    tplus = translation(rs, (1,))
    tminus = translation(rs, (-1,))
    a = {tplus: one(rs), tminus: one(rs)}
    assert central_reference(rs, a)
    r0 = affine_simple_reflection(rs, 0)
    b = {r0: one(rs), tminus: Scalar.var(0, 1)}
    ab = product(rs, a, b)
    assert mod_J(ab) == mod_J(product(rs, a, mod_J(b)))


def test_commutator_with_weight_integral():
    rs = cartan.build("B2")
    rng = random.Random(29)
    W = enumerate_weyl(rs)
    for _ in range(10):
        x = AffineElt(rng.choice(W), (rng.randint(-2, 2), rng.randint(-2, 2)))
        for i in range(2):
            c = commutator_with_weight(rs, {x: one(rs)}, rs.fundamental_weight(i))
            for s in c.values():
                to_int_coeffs(s)


def test_superregular_cocover_pairs_match_enumeration():
    # at margin >= 0, the threshold that cocovers_superregular certifies, the
    # records read off cover_table give the enumeration's cocovers with
    # d = v alpha^vee, the negated coroot of the positive reflection root;
    # below it the reader raises and caches nothing
    rng = random.Random(31)
    for lbl in ["A2", "B2", "G2"]:
        rs = cartan.build(lbl)
        W = enumerate_weyl(rs)
        lam = superregular_antidominant(rs, units=1)
        elements = [AffineElt(rng.choice(W), rng.choice(W).act_coroot(lam)) for _ in range(30)]
        # jitter the least deep superregular lam across the margin boundary
        base = superregular_antidominant(rs)
        for jit in itertools.product(range(-2, 3), repeat=rs.rank):
            x = AffineElt(rng.choice(W), rng.choice(W).act_coroot(tuple(b + j for b, j in zip(base, jit))))
            if superregular_margin(x) <= 0:
                elements.append(x)
        seen = {"positive": 0, "zero": 0, "negative": 0}
        for x in elements:
            m = superregular_margin(x)
            seen["positive" if m > 0 else "zero" if m == 0 else "negative"] += 1
            if m < 0:
                before = set(rs._cache)
                with pytest.raises(ValueError, match="not superregular"):
                    cocovers_superregular(x)
                assert set(rs._cache) == before, (lbl, x)
                continue
            v = coordinates(x)[1]
            got = [(c.target, v.act_coroot(rs.coroot_of(c.alpha))) for c in cocovers_superregular(x)]
            want = {(c.target, tuple(-e for e in rs.coroot_of(c.reflection_root.finite))) for c in cocovers(x)}
            assert len(got) == len(want) and set(got) == want, (lbl, x)
        assert all(seen.values()), (lbl, seen)


def test_bruhat_operator_and_centrality_share_one_reader_entry():
    # b_op and is_central read the cocovers of x = u t_lam v^{-1} off the
    # quantum Bruhat graph at u and at v, and cache nothing per (w, t) or per
    # chamber pair; the chamber of x is derived once, and the elements b_op
    # returns keep their coordinates, so certifying them derives none
    rs = cartan.build("B2")
    W = enumerate_weyl(rs)
    x = AffineElt(W[3], W[5].act_coroot(superregular_antidominant(rs, units=1)))
    f = {x: one(rs)}
    before = set(rs._cache)
    img = peterson.b_op(rs, rs.fundamental_weight(0), f)
    is_central(rs, f)
    added = set(rs._cache) - before
    u, v, _lam = coordinates(x)
    assert {k[0] for k in added} <= {"chamber", "covers", "refl", "tpair", "weight-diff"}, added
    assert [k for k in added if k[0] == "chamber"] == [("chamber", x.t)]
    assert {k for k in added if k[0] == "covers"} <= {("covers", u), ("covers", v)}
    assert not [k for k in added if k[1:] == (x.w, x.t)], added
    assert all(y._key is not None for y in img)
    before = set(rs._cache)
    is_central(rs, img)
    assert not [k for k in set(rs._cache) - before if k[0] == "chamber"]


def test_kernel_targets_are_the_enumerated_cocovers():
    # the commutator rule reads every row and weights it by <d, rho> != 0, so
    # on the single term x the kernel's off-diagonal keys are exactly the
    # coordinates of the cocovers y of x; all four edge kinds are seen: a near
    # cocover moves u, a far one v, and a quantum or q-up edge also moves lam
    rng = random.Random(61)
    for lbl in ["A2", "B2", "G2", "A3"]:
        rs = cartan.build(lbl)
        W = enumerate_weyl(rs)
        kinds = set()
        for units in (0, 2, 5):
            lam = superregular_antidominant(rs, units=units)
            for _ in range(8):
                x = AffineElt(rng.choice(W), rng.choice(W).act_coroot(lam))
                key = coordinates(x)
                out = nilhecke.bruhat_into(rs, rs.rho, nilhecke._commutator_rule, {key: one(rs).packed}, {})
                targets = set(out) - {key}
                got = {(y.w, y.t) for y in (from_coordinates(*k) for k in targets)}
                assert got == {(c.target.w, c.target.t) for c in cocovers(x)}, (lbl, x)
                assert targets == {coordinates(c.target) for c in cocovers(x)}, (lbl, x)
                u, v, lam_x = key
                for yu, yv, ylam in targets:
                    assert (yu is u) != (yv is v), (lbl, x)
                    kinds.add(("far" if yu is u else "near", ylam != lam_x))
        assert len(kinds) == 4, (lbl, kinds)


def _random_class(rng, rs, W, lam, size):
    """A raw class keyed by coordinates over lam and its neighbours lam - alpha_i^vee."""
    raw = {}
    lams = [lam] + [tuple(c - (k == i) for k, c in enumerate(lam)) for i in range(rs.rank)]
    for _ in range(size):
        key = (rng.choice(W), rng.choice(W), rng.choice(lams))
        s = Scalar.var(rng.randrange(rs.rank), rs.rank) * rng.randint(-2, 2) + one(rs) * rng.randint(1, 3)
        packed_axpy(raw, key, s.packed, 1)
    return settle(raw)


def _shifted(raw, mu):
    """S_mu on a raw class keyed by coordinates: (u, v, lam) -> (u, v, lam + mu)."""
    return {(u, v, tuple(a + b for a, b in zip(lam, mu))): t for (u, v, lam), t in raw.items()}


def test_kernel_is_shift_equivariant():
    # the kernel reads lam only through the margin and lam + e alpha^vee, so on
    # superregular classes it commutes with S_mu: (u, v, lam) -> (u, v, lam + mu),
    # under the B, C and commutator rules, mu any antidominant coroot
    rng = random.Random(67)
    rules = [(peterson._b_rule, False), (peterson._c_rule, False), (nilhecke._commutator_rule, True)]
    for lbl in ["A2", "B2", "G2", "A3"]:
        rs = cartan.build(lbl)
        W = enumerate_weyl(rs)
        lam = superregular_antidominant(rs, units=2)
        moved = 0
        for _ in range(6):
            raw = _random_class(rng, rs, W, lam, rng.randint(1, 6))
            mu = chamber_decompose(rs, tuple(rng.randint(-3, 3) for _ in range(rs.rank)))[1]
            for rule, regular in rules:
                weight = rs.rho if regular else tuple(rng.randint(-2, 2) for _ in range(rs.rank))
                image = settle(nilhecke.bruhat_into(rs, weight, rule, raw, {}))
                shifted = settle(nilhecke.bruhat_into(rs, weight, rule, _shifted(raw, mu), {}))
                assert shifted == _shifted(image, mu), (lbl, rule.__name__, mu)
                moved += bool(any(mu) and image)
        assert moved, lbl


def test_commutator_is_twisted_b_minus_twisted_c():
    # [mu, a] = twisted B^mu - twisted C^mu on any superregular a, central or not
    rng = random.Random(37)
    for lbl in ["A1", "A2", "B2", "G2"]:
        rs = cartan.build(lbl)
        W = enumerate_weyl(rs)
        lam = superregular_antidominant(rs, units=2)
        for _ in range(25):
            a = {}
            for _ in range(rng.randint(1, 3)):
                x = AffineElt(rng.choice(W), rng.choice(W).act_coroot(lam))
                combo_axpy(a, x, Scalar.var(rng.randrange(rs.rank), rs.rank) * rng.randint(-2, 2) + one(rs))
            mu = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
            want = twisted_b(rs, mu, a)
            for y, c in twisted_c(rs, mu, a).items():
                combo_axpy(want, y, -c)
            assert commutator_with_weight(rs, a, mu) == want, (lbl, mu)


def _jclass_input(rs, w):
    return AffineElt(w, superregular_antidominant(rs, units=peterson.j_units_needed(rs, w)))


def _central_samples(rs, max_len):
    """Central elements: uncertified B^omega_i images of sum_w t_{w lam} first,
    then b-elements and the j-classes of every w up to max_len."""
    lam = superregular_antidominant(rs, units=3)
    f = peterson.sum_translations(rs, lam)
    yield f
    for i in range(rs.rank):
        yield peterson.b_op(rs, rs.fundamental_weight(i), f)
    for i in range(rs.rank):
        yield peterson.b_element(rs, lam, [rs.fundamental_weight(i)])
        b = peterson.b_element(rs, lam, [rs.fundamental_weight(i), rs.fundamental_weight(rs.rank - 1 - i)])
        yield b
        yield {k: v * Fraction(1, 3) for k, v in b.items()}  # rational coefficients
    for w in enumerate_weyl(rs):
        if w.length() <= max_len:
            yield peterson.j_class(rs, _jclass_input(rs, w))


def test_is_central_matches_commutator_reference():
    rng = random.Random(41)
    seen = set()
    for lbl, max_len in [("A2", 3), ("B2", 4), ("G2", 3), ("A3", 2)]:
        rs = cartan.build(lbl)
        for a in _central_samples(rs, max_len):
            x = rng.choice(sorted(a, key=repr))
            bumped = dict(a)
            combo_axpy(bumped, x, Scalar.var(rng.randrange(rs.rank), rs.rank) * rng.choice((1, -1)))
            dropped = {k: v for k, v in a.items() if k != x}
            for elt in (a, bumped, dropped):
                got = is_central(rs, elt)
                assert got == central_reference(rs, elt), (lbl, len(elt), got)
                seen.add(got)
    assert seen == {True, False}


def test_is_central_rejects_an_element_commuting_with_one_node():
    # 1 - alpha_2 A_2 is the group element s_2, which fixes omega_1; so
    # a = (sum_w t_{w lam}) s_2 commutes with omega_1 and not with omega_2, and
    # a certificate on omega_1 alone would pass it: rho is regular, omega_1 is not
    rs = cartan.build("A2")
    e, r2 = affine_identity(rs), affine_simple_reflection(rs, 2)
    a2 = Scalar.var(1, rs.rank)
    s2 = {e: one(rs), r2: -a2}
    assert commutator_with_weight(rs, s2, rs.fundamental_weight(0)) == {}
    want = {e: a2, r2: -a2 * a2}
    assert commutator_with_weight(rs, s2, rs.fundamental_weight(1)) == want
    assert commutator_with_weight(rs, s2, rs.rho) == want
    for lbl, size in [("A2", 9), ("B2", 12), ("G2", 18), ("A3", 36)]:
        rs = cartan.build(lbl)
        e, r2 = affine_identity(rs), affine_simple_reflection(rs, 2)
        s2 = {e: one(rs), r2: -Scalar.var(1, rs.rank)}
        a = product(rs, peterson.sum_translations(rs, superregular_antidominant(rs, units=2)), s2)
        assert all(is_superregular(x) for x in a), lbl
        assert len(a) == size, (lbl, len(a))
        assert not commutator_with_weight(rs, a, rs.fundamental_weight(0)), lbl
        assert commutator_with_weight(rs, a, rs.fundamental_weight(1)), lbl
        assert not central_reference(rs, a) and not is_central(rs, a), lbl


def j_class_over_fractions(rs, x):
    """j(xi_x) the direct way: the b-elements weighted by the Schubert
    polynomial's coefficients, Fractions where they are, then made integral."""
    out = {}
    for (qshift, word), c in schubert_poly(rs, x.w).terms.items():
        shifted = tuple(l + s for l, s in zip(x.t, qshift))
        for y, cy in peterson.b_element(rs, shifted, [rs.fundamental_weight(i) for i in word]).items():
            combo_axpy(out, y, cy * c)
    return {y: to_int_coeffs(c) for y, c in out.items()}


def test_j_class_matches_the_fraction_route():
    # every Weyl element of each type; B2 and G2 have Schubert polynomials
    # with denominator 2
    dens = set()
    for lbl in ["A2", "B2", "G2", "A3"]:
        rs = cartan.build(lbl)
        for w in enumerate_weyl(rs):
            x = _jclass_input(rs, w)
            j = peterson.j_class(rs, x)
            assert j == j_class_over_fractions(rs, x), (lbl, w)
            assert all(type(c) is int for s in j.values() for c in s.packed.values()), (lbl, w)
            dens.update(c.denominator for s in schubert_poly(rs, w).terms.values() for c in s.packed.values())
    assert dens == {1, 2}


def _depths(rs, w):
    """Two depths for w beyond its canonical one: one unit of margin deeper,
    and a shift that is not a multiple of the canonical direction."""
    lam = _jclass_input(rs, w).t
    tilt = chamber_decompose(rs, tuple(range(1, rs.rank + 1)))[1]
    return [tuple(a + b for a, b in zip(lam, superregular_antidominant(rs, units=1))),
            tuple(a + b for a, b in zip(lam, tilt))]


def _direct_j(rs, x):
    """j_x by Horner at the depth of x itself, no shift."""
    return nilhecke.from_pairs(rs, peterson._j_raw(rs, x.w, x.t))


def test_j_class_at_two_depths_is_the_direct_computation():
    # every request is the canonical class of its Weyl part shifted in lam; at
    # two further depths it equals Horner run at that depth, and it passes
    # both certificates, for every Weyl element of each type
    for lbl in ["A2", "B2", "G2", "A3"]:
        rs = cartan.build(lbl)
        for w in enumerate_weyl(rs):
            for lam in _depths(rs, w):
                x = AffineElt(w, lam)
                j = peterson.j_class(rs, x)
                assert j == _direct_j(rs, x), (lbl, w, lam)
                assert mod_J(j) == {x: one(rs)} and is_central(rs, j), (lbl, w, lam)
        assert len({k[1] for k in rs._cache if k[0] == "jcanon"}) == len(enumerate_weyl(rs)), lbl


def test_shifting_t_instead_of_lam_fails(monkeypatch):
    # mutant: move each term y to y.w t_{y.t + mu}, where the shift is
    # y.w t_{y.t + v_y mu}; each class has terms off the identity chamber, so
    # it keeps its Grassmannian part but differs from the direct computation
    # and is not central
    def shift_t(rs, a, mu):
        return {y.translate(mu): c for y, c in a.items()}

    monkeypatch.setattr(peterson, "_shift", shift_t)
    for lbl in ["A2", "B2", "G2"]:
        rs = cartan.build(lbl)
        for w in enumerate_weyl(rs):
            x = AffineElt(w, _depths(rs, w)[1])
            j = peterson.j_class(rs, x)
            assert j != _direct_j(rs, x) and not is_central(rs, j), (lbl, w)


def test_shift_refuses_terms_that_leave_the_superregular_chamber(monkeypatch):
    # planted: with the margin charged up front waived, a shallow request is
    # served by shifting the deep canonical class up to it, and some terms land
    # below the superregular bound, where the shift is not proven to commute
    # with the kernel and no centrality certificate applies; the per-term
    # check refuses them, and without it such a class is returned
    rs = cartan.build("A2")
    w = simple_reflection(rs, 0) * simple_reflection(rs, 1)
    x = AffineElt(w, superregular_antidominant(rs))
    assert 0 <= superregular_margin(x) < 4 * peterson.j_units_needed(rs, w)
    monkeypatch.setattr(peterson, "_require_margin", lambda x, units=1: None)
    with pytest.raises(BudgetError, match="leaves the superregular antidominant chamber"):
        peterson.j_class(rs, x)
    assert not [k for k in rs._cache if k[0] == "jclass"]

    def unchecked(rs, a, mu):
        return nilhecke.from_pairs(rs, _shifted(nilhecke.to_pairs(a), mu))

    monkeypatch.setattr(peterson, "_shift", unchecked)
    j = peterson.j_class(rs, x)
    assert not all(is_superregular(y) for y in j)
    with pytest.raises(BudgetError, match="not superregular"):
        is_central(rs, j)


def test_j_class_refuses_a_non_integral_sum(monkeypatch):
    # a planted 1/2 on the one coefficient 1 of A2's s_1 makes every
    # coefficient of the sum 3/2 times an integral one
    rs = cartan.build("A2")
    w = simple_reflection(rs, 0)
    poly = schubert_poly(rs, w)
    assert list(poly.terms.values()) == [one(rs)]
    planted = QSchubertPoly(w, {key: {0: 3} for key in poly.num}, 2)
    monkeypatch.setattr(peterson, "schubert_poly", lambda rs, v: planted if v is w else schubert_poly(rs, v))
    with pytest.raises(ValueError, match="non-integral coefficient 3/2"):
        peterson.j_class(rs, _jclass_input(rs, w))


def test_j_classes_make_one_check_each_and_one_b_step_per_prefix(monkeypatch):
    # the class of w is computed once: its polynomial at the B operators over
    # the word trie, one raw kernel step with the B rule per distinct
    # non-empty prefix, no b-element, and one centrality certificate; a second
    # depth of the same w is a shift, with no step and no certificate
    central = steps = 0
    real_bruhat_into = peterson.bruhat_into

    def counting_central(rs, a):
        nonlocal central
        central += 1
        return is_central(rs, a)

    def counting_bruhat_into(rs, mu, rule, raw, out):
        nonlocal steps
        steps += rule is peterson._b_rule
        return real_bruhat_into(rs, mu, rule, raw, out)

    monkeypatch.setattr(nilhecke, "is_central", counting_central)
    monkeypatch.setattr(peterson, "is_central", counting_central)
    monkeypatch.setattr(peterson, "bruhat_into", counting_bruhat_into)
    monkeypatch.setattr(peterson, "b_op", None)  # the step must not go through b_op
    for lbl, max_len in [("B2", 4), ("G2", 3)]:
        rs = cartan.build(lbl)
        deeper = superregular_antidominant(rs, units=1)
        for w in enumerate_weyl(rs):
            if w.length() <= max_len:
                x = _jclass_input(rs, w)
                words = {word for _q, word in schubert_poly(rs, w).num}
                central = steps = 0
                peterson.j_class(rs, x)
                assert central == 1, (lbl, w)
                assert steps == len({word[:k] for word in words for k in range(1, len(word) + 1)}), (lbl, w)
                central = steps = 0
                peterson.j_class(rs, x.translate(deeper))
                assert central == steps == 0, (lbl, w)


def test_raw_j_class_step_keeps_its_margin_check(monkeypatch):
    # with no margin charged up front, the first term of a step below 4 units
    # raises from the B rule's per-term check, and nothing is cached
    rs = cartan.build("A2")
    w = simple_reflection(rs, 0) * simple_reflection(rs, 1)
    assert w.length() >= 2
    x = AffineElt(w, superregular_antidominant(rs))
    assert 0 <= superregular_margin(x) < 4
    real_units = peterson.j_units_needed
    monkeypatch.setattr(peterson, "j_units_needed", lambda rs, v: 0 if v is w else real_units(rs, v))
    with pytest.raises(BudgetError, match="margin needed 4"):
        peterson.j_class(rs, x)
    assert not [k for k in rs._cache if k[0] == "jclass"]


def test_j_class_seeds_must_be_regular_antidominant():
    # a seed sum_v t_{v(lam + q)} is keyed (v, v, lam + q), which names |W|
    # distinct translations only for lam + q regular antidominant
    rs = cartan.build("A2")
    for lam in [(-1, 0), (-2, -1)]:
        with pytest.raises(BudgetError, match="not regular antidominant"):
            peterson._j_raw(rs, simple_reflection(rs, 0), lam)


def test_commutator_through_the_kernel_is_the_reference_value():
    # [rho, a] from bruhat_into with the commutator rule on pair keys, settled,
    # is the reference commutator keyed by pairs, on central and non-central
    # elements
    rng = random.Random(53)
    seen = set()
    for lbl in ["A2", "B2", "G2"]:
        rs = cartan.build(lbl)
        W = enumerate_weyl(rs)
        lam = superregular_antidominant(rs, units=2)
        bs = [peterson.b_element(rs, lam, [rs.fundamental_weight(i)]) for i in range(rs.rank)]
        samples = []
        for _ in range(12):
            # an S-combination of b-elements is central; random terms are not
            central = {}
            for b in bs:
                s = Scalar.var(rng.randrange(rs.rank), rs.rank) * rng.randint(-2, 2) + one(rs)
                for y, c in b.items():
                    combo_axpy(central, y, s * c)
            a = {}
            for _ in range(rng.randint(1, 4)):
                x = AffineElt(rng.choice(W), rng.choice(W).act_coroot(lam))
                combo_axpy(a, x, Scalar.var(rng.randrange(rs.rank), rs.rank) * rng.randint(-2, 2) + one(rs))
            samples += [central, a]
        for a in samples:
            got = settle(nilhecke.bruhat_into(rs, rs.rho, nilhecke._commutator_rule, to_pairs(a), {}))
            assert got == to_pairs(commutator_with_weight(rs, a, rs.rho)), lbl
            seen.add(not got)
    assert seen == {True, False}


def naive_act_on_homology(rs, a, xi):
    """A_y . xi_z summed pair by pair, every length recomputed."""
    out = {}
    for y, cy in a.items():
        for z, cz in xi.items():
            yz = y * z
            if length(y) + length(z) == length(yz) and is_grassmannian(yz):
                combo_axpy(out, yz, cy * cz)
    return out


def test_act_on_homology_matches_naive_reference():
    # act_on_homology decides "yz Grassmannian" from raw data before building
    # yz; z with nontrivial finite part makes z.w alpha_s negative, and the
    # rejections must include both a positive pairing and a zero pairing with
    # a descent
    rng = random.Random(43)
    for lbl in ["A2", "B2", "G2", "A3"]:
        seen = {"grass only": 0, "additive only": 0, "positive": 0, "zero with descent": 0, "z.w alpha_s < 0": 0}
        rs = cartan.build(lbl)
        W = enumerate_weyl(rs)
        rank = rs.rank
        boxes = list(itertools.product(range(-3, 2), repeat=rank))
        by_len = {}
        for x in (AffineElt(w, t) for w in W for t in boxes):
            if is_grassmannian(x):
                by_len.setdefault(length(x), []).append(x)
        for _ in range(40 if rank == 2 else 15):
            zs = [rng.choice(by_len[l]) for l in rng.sample(sorted(by_len), 4)]
            zs.append(rng.choice([z for zl in by_len.values() for z in zl if not z.w.is_identity()]))
            xi = {z: Scalar({tuple(rng.randint(0, 1) for _ in range(rank)): rng.choice((1, -2, 3))}) for z in zs}
            a = {}
            for _ in range(rng.randint(2, 6)):
                y = AffineElt(rng.choice(W), rng.choice(boxes))
                combo_axpy(a, y, Scalar({(rng.randint(0, 1),) + (0,) * (rank - 1): rng.choice((1, -1, 2))}))
            assert act_on_homology(rs, a, xi) == naive_act_on_homology(rs, a, xi)
            for y in a:
                for z in xi:
                    yz = y * z
                    additive = length(y) + length(z) == length(yz)
                    grassmannian = is_grassmannian(yz)
                    seen["grass only"] += grassmannian and not additive
                    seen["additive only"] += additive and not grassmannian
                    simple = [(rs.pair_root(yz.t, rs.simple_root(i)), yz.w.descends(i)) for i in range(rank)]
                    positive = any(p > 0 for p, _ in simple)
                    seen["positive"] += positive
                    seen["zero with descent"] += not positive and any(p == 0 and d for p, d in simple)
                    seen["z.w alpha_s < 0"] += any(z.w.descends(i) for i in range(rank))
        assert all(seen.values()), (lbl, seen)
