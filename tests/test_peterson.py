import random
from itertools import product

import pytest

from conftest import combo_axpy
from qaffine import cartan, peterson, quantum
from qaffine.coeffring import Scalar, scalar_one, settle, weight_diff
from qaffine.nilhecke import D, FAR, NEAR, act_on_homology, bruhat_into, from_pairs, is_central, mod_J, to_pairs
from qaffine.peterson import (
    BudgetError,
    HomologyClass,
    b_element,
    b_op,
    c_op,
    gw_from_j,
    hom_basis,
    hom_product,
    hom_product_basis,
    j_class,
    j_from_gw,
    pieri_r0,
    psi_inverse,
    psi_map,
    sum_translations,
    theta_map,
)
from qaffine.quantum import product_basis, qh_basis, schubert_poly
from qaffine.weyl import (
    AffineElt,
    affine_from_word,
    affine_simple_reflection,
    enumerate_weyl,
    from_coordinates,
    is_grassmannian,
    simple_reflection,
    superregular_antidominant,
    translation,
    weyl_identity,
)


def one(rs):
    return scalar_one(rs)


# The twisted Bruhat operators, kept here as references: rules over the
# Kostant-Kumar kernel that weight each row by its d = v alpha^vee.  Their
# difference is the commutator with the weight (test_nilhecke).  A term has
# coordinates (u, v, lam) and Weyl part w = u v^{-1}.

def _twisted_b_rule(rs, mu, u, v, lam, margin):
    if margin < 4:
        peterson._require_margin(from_coordinates(u, v, lam))
    return weight_diff(rs, mu, u * v.inverse()) - weight_diff(rs, mu, v.inverse()), NEAR, D


def _twisted_c_rule(rs, mu, u, v, lam, margin):
    # called with -mu, so its diagonal is -(mu - v^{-1} mu)
    if margin < 4:
        peterson._require_margin(from_coordinates(u, v, lam))
    return weight_diff(rs, mu, v.inverse()), FAR, D


def twisted_b(rs, mu, f):
    """Twisted near operator: diagonal v^{-1} mu - w mu, weights <v alpha^vee, mu> (the row's d)."""
    return from_pairs(rs, settle(bruhat_into(rs, mu, _twisted_b_rule, to_pairs(f), {})))


def twisted_c(rs, mu, f):
    """Twisted far operator: diagonal v^{-1} mu - mu, weights -<v alpha^vee, mu> = <v alpha^vee, -mu>."""
    return from_pairs(rs, settle(bruhat_into(rs, tuple(-m for m in mu), _twisted_c_rule, to_pairs(f), {})))


def test_sum_translations_counts_stabilizers():
    # sum_w t_{w lam} has coefficient |Stab_W(lam)| at each point of the orbit
    singular = 0
    for lbl in ["A1", "A2", "B2", "G2"]:
        rs = cartan.build(lbl)
        W = enumerate_weyl(rs)
        zero = rs.zero_coroot()
        assert sum_translations(rs, zero) == {translation(rs, zero): Scalar.const(len(W), rs.rank)}
        for lam in product(range(-2, 3), repeat=rs.rank):
            stab = sum(1 for w in W if w.act_coroot(lam) == lam)
            orbit = {w.act_coroot(lam) for w in W}
            assert stab * len(orbit) == len(W)
            want = {translation(rs, mu): Scalar.const(stab, rs.rank) for mu in orbit}
            assert sum_translations(rs, lam) == want
            singular += 1 < stab < len(W)
    assert singular


def test_b_op_three_terms_a1():
    rs = cartan.build("A1")
    lam = superregular_antidominant(rs, units=2)
    f = sum_translations(rs, lam)
    assert len(f) == 2
    got = b_op(rs, (1,), f)
    # (omega1 - w omega1) vanishes at w = id and the only other term is a1 t_{s lam};
    # near covers contribute r_alpha t_lam (case 1) and r_alpha t_{s(lam+avee)} (case 2)
    assert len(got) == 3
    s = simple_reflection(rs, 0)
    r_t_lam = AffineElt(s, lam)
    t_slam = translation(rs, s.act_coroot(lam))
    shifted = AffineElt(s, s.act_coroot((lam[0] + 1,)))
    assert got[r_t_lam] == one(rs)
    assert got[t_slam] == Scalar.var(0, 1)
    assert got[shifted] == one(rs)


def test_bruhat_operators_accept_a_list_weight():
    # the diagonals are cached per weight; a list weight is read as its tuple
    rs = cartan.build("A2")
    W = enumerate_weyl(rs)
    lam = superregular_antidominant(rs, units=2)
    f = {AffineElt(w, W[3].act_coroot(lam)): one(rs) for w in W[:3]}
    for op in (b_op, c_op, twisted_b, twisted_c):
        assert op(rs, [1, -1], f) == op(rs, (1, -1), f)


def test_b_op_budget():
    rs = cartan.build("A2")
    x = translation(rs, (-1, -1))
    with pytest.raises(BudgetError):
        b_op(rs, (1, 0), {x: one(rs)})


def test_b_commutativity():
    # B^mu B^nu = B^nu B^mu on random superregular singletons
    rng = random.Random(19)
    for lbl in ["A1", "A2", "B2"]:
        rs = cartan.build(lbl)
        W = enumerate_weyl(rs)
        lam = superregular_antidominant(rs, units=4)
        for _ in range(100 if lbl != "B2" else 30):
            w, v = rng.choice(W), rng.choice(W)
            x = {AffineElt(w, v.act_coroot(lam)): one(rs)}
            mu = tuple(rng.randint(-2, 2) for _ in range(rs.rank))
            nu = tuple(rng.randint(-2, 2) for _ in range(rs.rank))
            assert b_op(rs, nu, b_op(rs, mu, x)) == b_op(rs, mu, b_op(rs, nu, x))


def test_theta_intertwines_chevalley():
    # Theta_w^lam(sigma * [mu]) = B^mu(Theta_w^lam(sigma))
    from qaffine.quantum import chevalley_weight

    for lbl in ["A1", "A2"]:
        rs = cartan.build(lbl)
        W = enumerate_weyl(rs)
        lam = superregular_antidominant(rs, units=4)
        for w in W:
            for v in W:
                for i in range(rs.rank):
                    mu = rs.fundamental_weight(i)
                    sigma = qh_basis(rs, v)
                    lhs = theta_map(rs, w, lam, chevalley_weight(rs, mu, sigma))
                    rhs = b_op(rs, mu, theta_map(rs, w, lam, sigma))
                    assert lhs == rhs


def test_theta_intertwines_with_q_classes():
    rs = cartan.build("A2")
    from qaffine.quantum import chevalley_weight

    lam = superregular_antidominant(rs, units=6)
    rng = random.Random(21)
    W = enumerate_weyl(rs)
    for _ in range(10):
        w, v = rng.choice(W), rng.choice(W)
        q = (rng.randint(0, 1), rng.randint(0, 1))
        i = rng.randrange(2)
        sigma = qh_basis(rs, v, q)
        mu = rs.fundamental_weight(i)
        lhs = theta_map(rs, w, lam, chevalley_weight(rs, mu, sigma))
        rhs = b_op(rs, mu, theta_map(rs, w, lam, sigma))
        assert lhs == rhs


def test_cb_exchange():
    # C^mu(B^{mu_k} ... sum_w t_{w lam}) = B^{mu_k} ... (B^mu sum_w t_{w lam})
    for lbl in ["A1", "A2"]:
        rs = cartan.build(lbl)
        rng = random.Random(23)
        for k in range(3):
            lam = superregular_antidominant(rs, units=k + 2)
            seq = [tuple(rng.randint(-1, 2) for _ in range(rs.rank)) for _ in range(k)]
            mu = tuple(rng.randint(-1, 2) for _ in range(rs.rank))
            f = sum_translations(rs, lam)
            lhs = f
            for m in seq:
                lhs = b_op(rs, m, lhs)
            lhs = c_op(rs, mu, lhs)
            rhs = b_op(rs, mu, f)
            for m in seq:
                rhs = b_op(rs, m, rhs)
            assert lhs == rhs


def test_twisted_agree_identity_chamber():
    rs = cartan.build("A2")
    lam = superregular_antidominant(rs, units=2)
    for w in enumerate_weyl(rs):
        x = {AffineElt(w, lam): one(rs)}  # v = id chamber
        for i in range(2):
            mu = rs.fundamental_weight(i)
            assert twisted_b(rs, mu, x) == b_op(rs, mu, x)


def test_centrality_criterion():
    # Upsilon(f) central iff twisted B and C agree on f, for all generators
    rs = cartan.build("A2")
    lam = superregular_antidominant(rs, units=3)
    f = sum_translations(rs, lam)
    g = b_op(rs, (1, 0), f)
    for h, expect in [(f, True), (g, True), ({translation(rs, lam): one(rs)}, False)]:
        agree = all(
            twisted_b(rs, rs.fundamental_weight(i), h) == twisted_c(rs, rs.fundamental_weight(i), h)
            for i in range(2)
        )
        assert agree == expect
        assert is_central(rs, h) == expect


def test_b_element_empty_and_singleton():
    rs = cartan.build("A1")
    lam = superregular_antidominant(rs, units=2)
    b0 = b_element(rs, lam, [])
    s = simple_reflection(rs, 0)
    assert b0 == {translation(rs, lam): one(rs), translation(rs, s.act_coroot(lam)): one(rs)}
    assert is_central(rs, b0)

    b1 = b_element(rs, lam, [(1,)])
    # three terms: A_{r1 t_lam} + a1 A_{t_{s lam}} + A_{r1 t_{(s lam) - alpha^vee}}
    assert len(b1) == 3
    assert b1[AffineElt(s, lam)] == one(rs)
    assert b1[translation(rs, s.act_coroot(lam))] == Scalar.var(0, 1)
    assert mod_J(b1) == {AffineElt(s, lam): one(rs)}


def test_b_element_random_central():
    rng = random.Random(29)
    for lbl in ["A2", "B2"]:
        rs = cartan.build(lbl)
        for _ in range(8):
            k = rng.randint(0, 3)
            lam = superregular_antidominant(rs, units=k + 1)
            seq = [tuple(rng.randint(-1, 2) for _ in range(rs.rank)) for _ in range(k)]
            b_element(rs, lam, seq)  # asserts centrality internally


def _uncached_b(rs, lam, seq):
    f = sum_translations(rs, lam)
    for mu in seq:
        f = b_op(rs, mu, f)
    return f


@pytest.mark.parametrize("lbl", ["A2", "B2", "G2"])
def test_b_element_matches_uncached_chain(lbl):
    rng = random.Random(31)
    rs = cartan.build(lbl)
    lam = superregular_antidominant(rs, units=4)
    stems = [[tuple(rng.randint(-1, 2) for _ in range(rs.rank)) for _ in range(rng.randint(1, 2))] for _ in range(3)]
    seqs = [[]] + [rng.choice(stems)[:rng.randint(1, 2)] + [rs.fundamental_weight(rng.randrange(rs.rank))
                                                           for _ in range(rng.randint(0, 1))] for _ in range(10)]
    for seq in seqs:
        assert b_element(rs, lam, seq) == _uncached_b(rs, lam, seq), (lbl, seq)


def test_failed_b_certificate_raises(monkeypatch):
    rs = cartan.build("A2")
    lam = superregular_antidominant(rs, units=2)
    seq = [(1, 0), (0, 1)]
    monkeypatch.setattr(peterson, "is_central", lambda rs, a: False)
    with pytest.raises(AssertionError, match="b element failed centrality"):
        b_element(rs, lam, seq)
    monkeypatch.undo()
    assert b_element(rs, lam, seq) == _uncached_b(rs, lam, seq)


def test_j_class_translation():
    rs = cartan.build("A2")
    lam = superregular_antidominant(rs, units=1)
    j = j_class(rs, translation(rs, lam))
    expect = {}
    for w in enumerate_weyl(rs):
        combo_axpy(expect, translation(rs, w.act_coroot(lam)), one(rs))
    assert j == expect


def test_j_class_simple_a1():
    rs = cartan.build("A1")
    s = simple_reflection(rs, 0)
    lam = superregular_antidominant(rs, units=3)
    m = -lam[0]
    x = AffineElt(s, lam)
    j = j_class(rs, x)
    assert j == {
        x: one(rs),
        translation(rs, (m,)): Scalar.var(0, 1),
        AffineElt(s, (m - 1,)): one(rs),
    }
    assert mod_J(j) == {x: one(rs)}


def test_j_class_matches_b_element():
    rs = cartan.build("A2")
    lam = superregular_antidominant(rs, units=3)
    for i in range(2):
        x = AffineElt(simple_reflection(rs, i), lam)
        assert j_class(rs, x) == b_element(rs, lam, [rs.fundamental_weight(i)])


def _skipping_first_step(horner):
    """A mutant of ``horner`` that drops the step of the first node it
    pushes, a longest word of the polynomial, with that node's subtree."""
    def mutant(poly, put, step):
        pushed = []

        def skipping(i, raw, out):
            if pushed:
                step(i, raw, out)
            pushed.append(i)

        return horner(poly, put, skipping)
    return mutant


@pytest.mark.parametrize("lbl", ["A2", "B2", "G2"])
def test_horner_skipping_one_step_fails_both_certificates(lbl, monkeypatch):
    def long_elements(rs):
        return [w for w in enumerate_weyl(rs) if w.length() >= 2]

    rs = cartan.build(lbl)
    with monkeypatch.context() as m:
        m.setattr(quantum, "horner", _skipping_first_step(quantum.horner))
        for w in long_elements(rs):
            with pytest.raises(AssertionError, match="round-trip failed"):
                schubert_poly(rs, w)
    rs = cartan.build(lbl)
    ws = long_elements(rs)
    assert len(ws) == {"A2": 3, "B2": 5, "G2": 9}[lbl]
    for w in ws:
        schubert_poly(rs, w)  # certified through the real routine
    monkeypatch.setattr(peterson, "horner", _skipping_first_step(quantum.horner))
    for w in ws:
        x = AffineElt(w, superregular_antidominant(rs, units=peterson.j_units_needed(rs, w)))
        with pytest.raises((AssertionError, ValueError), match="Grassmannian part|non-integral|not central"):
            j_class(rs, x)


def test_hom_product_translation():
    rs = cartan.build("A2")
    lam = superregular_antidominant(rs, units=1)
    nu = (-2, -3)
    s = simple_reflection(rs, 0)
    x = AffineElt(s, lam)
    got = hom_product_basis(rs, x, translation(rs, nu))
    assert got == {x.translate(nu): one(rs)}


def test_hom_product_a1_r0_squared():
    rs = cartan.build("A1")
    r0 = affine_simple_reflection(rs, 0)
    got = hom_product_basis(rs, r0, r0)
    r1r0 = affine_simple_reflection(rs, 1) * r0
    s = simple_reflection(rs, 0)
    # equivariantly: xi_{t_{-alpha^vee}} + a1 xi_{s t_{-2 alpha^vee}}; the
    # equivariant term deepens the translation (psi sends it to a1 q^{-2} sigma^s)
    assert got == {r1r0: one(rs), AffineElt(s, (-2,)): Scalar.var(0, 1)}
    nonequiv = {k: v.eval_zero() for k, v in got.items() if v.eval_zero()}
    assert nonequiv == {r1r0: 1}


def _grassmannian_pool(rs):
    """Grassmannian z: affine words up to length 5, and w t_deep for every w."""
    pool = set()
    for n in range(6):
        for word in product(range(rs.rank + 1), repeat=n):
            z = affine_from_word(rs, word)
            if is_grassmannian(z):
                pool.add(z)
    deep = superregular_antidominant(rs, units=1)
    pool.update(AffineElt(w, deep) for w in enumerate_weyl(rs))
    return pool


@pytest.mark.parametrize("lbl", ["A2", "B2", "G2", "A3"])
def test_j_chamber_part_acts_as_the_whole_class(lbl):
    # A_y . xi_z survives only for y = u t_lam v^{-1} with v = z.w (the
    # hom_product_basis docstring): on every canonical j-class and every z of
    # the pool, the part read gives the whole product; the part of the wrong
    # chamber, v = z.w^{-1}, does not
    rs = cartan.build(lbl)
    pool = _grassmannian_pool(rs)
    mutant_caught = 0
    for w in enumerate_weyl(rs):
        lam, _ = peterson._canonical_j(rs, w)
        x = AffineElt(w, lam)
        whole, parts = j_class(rs, x), peterson.j_chambers(rs, x)
        assert sum(map(len, parts.values())) == len(whole)
        for z in pool:
            xi = {z: one(rs)}
            want = act_on_homology(rs, whole, xi)
            assert act_on_homology(rs, parts.get(z.w, {}), xi) == want
            assert hom_product_basis(rs, x, z) == want
            mutant_caught += act_on_homology(rs, parts.get(z.w.inverse(), {}), xi) != want
    assert mutant_caught


def test_hom_product_borel_chevalley_structure():
    # xi_{r_i t_lam} xi_{w t_mu} expands per the equivariant Chevalley pattern
    rs = cartan.build("A2")
    lam = superregular_antidominant(rs, units=3)
    mu = superregular_antidominant(rs, units=4)
    from qaffine.weyl import cover_table

    for i in range(2):
        for w in enumerate_weyl(rs):
            x = AffineElt(simple_reflection(rs, i), lam)
            z = AffineElt(w, mu)
            got = hom_product_basis(rs, x, z)
            expect = {}
            lam_mu = tuple(a + b for a, b in zip(lam, mu))
            d = weight_diff(rs, rs.fundamental_weight(i), w)
            if d:
                combo_axpy(expect, AffineElt(w, lam_mu), d)
            ups, quantums, _, _ = cover_table(rs, w)
            for a, avee, wr in ups:
                if avee[i]:
                    combo_axpy(expect, AffineElt(wr, lam_mu), Scalar.const(avee[i], 2))
            for a, avee, wr in quantums:
                if avee[i]:
                    t2 = tuple(p + q for p, q in zip(lam_mu, avee))
                    combo_axpy(expect, AffineElt(wr, t2), Scalar.const(avee[i], 2))
            assert got == expect


def test_psi_map_basics():
    rs = cartan.build("A1")
    lam = superregular_antidominant(rs, units=1)
    h = HomologyClass(rs, {translation(rs, lam): one(rs)}, lam)
    assert psi_map(h) == {(weyl_identity(rs), (0,)): one(rs)}

    r0 = affine_simple_reflection(rs, 0)
    h = hom_basis(rs, r0)
    assert psi_map(h) == {(simple_reflection(rs, 0), (-1,)): one(rs)}


def test_psi_ring_map_a1():
    rs = cartan.build("A1")
    r0 = affine_simple_reflection(rs, 0)
    lhs = psi_map(hom_product(hom_basis(rs, r0), hom_basis(rs, r0)))
    s = simple_reflection(rs, 0)
    rhs = {}
    for (w, q), c in product_basis(rs, s, s).items():
        combo_axpy(rhs, (w, (q[0] - 2,)), c)
    assert lhs == rhs


def test_psi_inverse_roundtrip():
    rs = cartan.build("A2")
    sigma = {}
    s1, s2 = simple_reflection(rs, 0), simple_reflection(rs, 1)
    combo_axpy(sigma, (s1, (0, 0)), one(rs))
    combo_axpy(sigma, (s2, (-1, 2)), Scalar.var(0, 2))
    h = psi_inverse(rs, sigma)
    assert psi_map(h) == sigma


def test_j_from_gw_diagonal_and_a1():
    rs = cartan.build("A1")
    s = simple_reflection(rs, 0)
    lam = superregular_antidominant(rs, units=3)
    x = AffineElt(s, lam)
    j = j_class(rs, x)
    # diagonal normalization j_x^x = 1
    assert j[x] == one(rs)
    assert j_from_gw(rs, x, x) == one(rs)
    # c_{s,s}^{id, alpha^vee} = 1 equals the matching j coefficient
    assert gw_from_j(rs, s, s, weyl_identity(rs), (1,)) == one(rs)
    assert gw_from_j(rs, s, s, s, (0,)) == Scalar.var(0, 1)


def test_j_vs_gw_dictionary_sweep_a1():
    rs = cartan.build("A1")
    W = enumerate_weyl(rs)
    for f in W:
        for g in W:
            for h in W:
                for e in range(0, 3):
                    eta = (e,)
                    lhs = gw_from_j(rs, f, g, h, eta)
                    rhs = product_basis(rs, f, g).get((h, eta), Scalar())
                    assert lhs == rhs


def test_pieri_r0():
    rs = cartan.build("A1")
    r0 = affine_simple_reflection(rs, 0)
    r1r0 = affine_simple_reflection(rs, 1) * r0
    from qaffine.weyl import affine_identity

    assert pieri_r0(rs, {affine_identity(rs): 1}) == {r0: 1}
    assert pieri_r0(rs, {r0: 1}) == {r1r0: 1}


def test_identity_class_acts_as_identity():
    rs = cartan.build("A2")
    from qaffine.weyl import affine_identity

    e = affine_identity(rs)
    x = AffineElt(simple_reflection(rs, 0), (-2, -1))
    assert hom_product_basis(rs, e, x) == {x: one(rs)}


def test_error_paths():
    rs = cartan.build("A2")
    # theta_map rejects classes that are not lam-small
    lam = (-1, -1)
    with pytest.raises(BudgetError):
        theta_map(rs, weyl_identity(rs), lam, qh_basis_local(rs))
    # path endpoints refuse exhausted budgets
    from qaffine.qbruhat import build_qbg, path_endpoint

    g = build_qbg(rs)
    e = next(iter(g.out_edges(weyl_identity(rs))))
    with pytest.raises(ValueError):
        path_endpoint([e], (-1, -1))
    # homology products demand Grassmannian inputs
    bad = AffineElt(simple_reflection(rs, 0), rs.zero_coroot())
    with pytest.raises(ValueError):
        hom_product_basis(rs, bad, bad)
    with pytest.raises(ValueError):
        j_class(rs, bad)
    # j_class of a Grassmannian but shallow element exhausts the budget
    with pytest.raises(BudgetError):
        j_class(rs, AffineElt(simple_reflection(rs, 0), (-2, -2)))


def qh_basis_local(rs):
    from qaffine.quantum import qh_basis as qb

    return qb(rs, weyl_identity(rs))


def test_psi_is_ring_isomorphism_general_products():
    # psi(xi_x xi_z) = psi(xi_x) * psi(xi_z) for ALL pairs of Schubert classes,
    # not just divisors: the affine side goes through j_class + the nilHecke
    # action, the quantum side through Chevalley recursion. Exhaustive in A2,
    # exhaustive in B2.
    for lbl in ["A2", "B2"]:
        rs = cartan.build(lbl)
        W = enumerate_weyl(rs)
        lam = superregular_antidominant(rs, units=8)
        mu = superregular_antidominant(rs, units=9)
        for w in W:
            x = AffineElt(w, lam)
            for v in W:
                z = AffineElt(v, mu)
                prod = hom_product_basis(rs, x, z)
                lhs = {(y.w, y.t): c for y, c in prod.items()}
                rhs = {}
                shift = tuple(a + b for a, b in zip(lam, mu))
                for (uu, q), c in product_basis(rs, w, v).items():
                    combo_axpy(rhs, (uu, tuple(a + b for a, b in zip(q, shift))), c)
                assert lhs == rhs, (lbl, w, v)


def test_psi_is_ring_isomorphism_a3_sample():
    rs = cartan.build("A3")
    W = enumerate_weyl(rs)
    lam = superregular_antidominant(rs, units=10)
    mu = superregular_antidominant(rs, units=11)
    shift = tuple(a + b for a, b in zip(lam, mu))
    for w in [x for x in W if x.length() <= 3]:
        x = AffineElt(w, lam)
        for v in W:
            z = AffineElt(v, mu)
            lhs = {(y.w, y.t): c for y, c in hom_product_basis(rs, x, z).items()}
            rhs = {}
            for (uu, q), c in product_basis(rs, w, v).items():
                combo_axpy(rhs, (uu, tuple(a + b for a, b in zip(q, shift))), c)
            assert lhs == rhs, (w, v)


def test_j_coefficient_degrees():
    # j^y_x is homogeneous of degree l(y) - l(x) in the simple roots
    from qaffine.weyl import length as alen

    for lbl in ["A2", "B2"]:
        rs = cartan.build(lbl)
        lam = superregular_antidominant(rs, units=8)
        for w in enumerate_weyl(rs):
            x = AffineElt(w, lam)
            lx = alen(x)
            for y, c in j_class(rs, x).items():
                assert c.is_homogeneous(alen(y) - lx)


def test_structure_constant_degrees():
    from qaffine.weyl import length as alen

    rs = cartan.build("A2")
    lam = superregular_antidominant(rs, units=8)
    mu = superregular_antidominant(rs, units=9)
    for w in enumerate_weyl(rs):
        x = AffineElt(w, lam)
        z = AffineElt(weyl_identity(rs), mu)
        d = alen(x) + alen(z)
        for y, c in hom_product_basis(rs, x, z).items():
            assert c.is_homogeneous(d - alen(y))


def test_hom_product_commutative():
    # xi_x xi_z = xi_z xi_x, computed through two different j classes
    rs = cartan.build("A2")
    W = enumerate_weyl(rs)
    lam = superregular_antidominant(rs, units=8)
    mu = superregular_antidominant(rs, units=9)
    for w in W:
        for v in W:
            x = AffineElt(w, lam)
            z = AffineElt(v, mu)
            assert hom_product_basis(rs, x, z) == hom_product_basis(rs, z, x)


def test_hom_product_associative_small():
    rs = cartan.build("A1")
    s = simple_reflection(rs, 0)
    lam = superregular_antidominant(rs, units=6)
    classes = [
        hom_basis(rs, AffineElt(weyl_identity(rs), lam)),
        hom_basis(rs, AffineElt(s, lam)),
        hom_basis(rs, AffineElt(s, (lam[0] - 1,))),
    ]
    for a in classes:
        for b in classes:
            for c in classes:
                assert hom_product(hom_product(a, b), c) == hom_product(a, hom_product(b, c))


def test_psi_divisor_products_g2():
    # triple-bond pairings through the full pipeline: affine divisor products
    # match the Chevalley expansion in G2
    from qaffine.quantum import chevalley
    from qaffine.quantum import qh_basis as qb

    rs = cartan.build("G2")
    W = enumerate_weyl(rs)
    lam = superregular_antidominant(rs, units=3)
    mu = superregular_antidominant(rs, units=4)
    shift = tuple(a + b for a, b in zip(lam, mu))
    for i in range(2):
        x = AffineElt(simple_reflection(rs, i), lam)
        for w in W:
            z = AffineElt(w, mu)
            lhs = {(y.w, y.t): c for y, c in hom_product_basis(rs, x, z).items()}
            rhs = {}
            for (v, q), c in chevalley(rs, i, qb(rs, w)).items():
                combo_axpy(rhs, (v, tuple(a + b for a, b in zip(q, shift))), c)
            assert lhs == rhs, (i, w)


def test_hom_product_with_denominators():
    rs = cartan.build("A1")
    r0 = affine_simple_reflection(rs, 0)
    nu = (-3,)
    a = HomologyClass(rs, {r0.translate(nu): one(rs)}, nu)  # equals xi_{r0} after localization
    b = hom_basis(rs, r0)
    prod = hom_product(a, b)
    assert prod.denom == nu
    assert prod == hom_product(hom_basis(rs, r0), b)
    assert psi_map(prod) == psi_map(hom_product(hom_basis(rs, r0), b))


def test_pieri_matches_hom_product():
    rs = cartan.build("A2")
    r0 = affine_simple_reflection(rs, 0)
    from qaffine.weyl import affine_identity, length

    # all Grassmannian classes of length <= 6
    frontier = [affine_identity(rs)]
    seen = {affine_identity(rs)}
    for _ in range(6):
        nxt = []
        for x in frontier:
            for i in range(3):
                y = affine_simple_reflection(rs, i) * x
                from qaffine.weyl import is_grassmannian

                if length(y) == length(x) + 1 and is_grassmannian(y) and y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    for x in sorted(seen, key=length):
        via_pieri = pieri_r0(rs, {x: 1})
        full = hom_product_basis(rs, r0, x)
        nonequiv = {k: v.eval_zero() for k, v in full.items() if v.eval_zero()}
        assert via_pieri == nonequiv


def test_centrality_certificate_survives_python_O(run_python):
    # the certificate is an explicit check, so python -O cannot strip it
    code = "\n".join([
        "import sys",
        "from qaffine import cartan, peterson",
        "from qaffine.weyl import superregular_antidominant",
        "rs = cartan.build('A1')",
        "peterson.is_central = lambda rs, a: False",
        "try:",
        "    peterson.b_element(rs, superregular_antidominant(rs, units=1), [(1,)])",
        "except AssertionError as e:",
        "    print(sys.flags.optimize, e)",
    ])
    out = run_python("-O", "-c", code).stdout
    assert out.strip() == "1 b element failed centrality"


def test_homology_class_validation_survives_python_O(run_python):
    # input validation raises ValueError, so python -O cannot strip it
    code = "\n".join([
        "import sys",
        "from qaffine import cartan",
        "from qaffine.peterson import HomologyClass",
        "from qaffine.weyl import AffineElt, simple_reflection",
        "rs = cartan.build('A2')",
        "for terms, denom in [({AffineElt(simple_reflection(rs, 0), (0, 0)): 1}, None), ({}, (1, 0))]:",
        "    try:",
        "        HomologyClass(rs, terms, denom)",
        "    except ValueError as e:",
        "        print(sys.flags.optimize, e)",
    ])
    out = run_python("-O", "-c", code).stdout
    assert out.splitlines() == ["1 s1 t[0, 0] is not Grassmannian", "1 denominator (1, 0) is not antidominant"]


def test_chamber_read_certificate_survives_python_O(run_python):
    # a part holding a term of another chamber leaves the product short, and
    # the count check is an explicit raise, so python -O cannot strip it
    code = "\n".join([
        "import sys",
        "from qaffine import cartan, peterson",
        "from qaffine.weyl import AffineElt, enumerate_weyl, simple_reflection, superregular_antidominant",
        "rs = cartan.build('A2')",
        "x = AffineElt(simple_reflection(rs, 0), superregular_antidominant(rs, units=3))",
        "z = AffineElt(simple_reflection(rs, 1), superregular_antidominant(rs, units=1))",
        "whole = peterson.j_class(rs, x)",
        "peterson.j_chambers = lambda rs, x: {v: whole for v in enumerate_weyl(rs)}",
        "try:",
        "    peterson.hom_product_basis(rs, x, z)",
        "except AssertionError as e:",
        "    print(sys.flags.optimize, e)",
    ])
    out = run_python("-O", "-c", code).stdout
    assert out.strip() == "1 a term of the chamber v = z.w left the homology product"
