import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaffine import cartan, parabolic
from qaffine.cartan import AffineRoot, solve_rational
from qaffine.coeffring import Scalar, scalar_one
from qaffine.nilhecke import act_on_homology
from qaffine.parabolic import (
    bott_generator,
    build_parabolic,
    factor_parabolic,
    highest_root_product,
    in_JP,
    in_WPaff,
    lm_map,
    parabolic_basis_element,
    partition_to_affine,
    partition_to_wp,
    perp_antidominant,
    pi_P,
    pi_P_translation,
    quotient_generator,
    quotient_product,
    star,
    strange_duality,
    tau,
    theta_cominuscule,
)
from qaffine.peterson import hom_product_basis
from qaffine.quantum import parabolic_chevalley, pw_lift
from qaffine.weyl import (
    AffineElt,
    _inversions,
    affine_from_word,
    affine_identity,
    affine_simple_reflection,
    bruhat_leq,
    enumerate_weyl,
    from_word,
    is_grassmannian,
    length,
    longest_element,
    longest_of,
    reduced_word,
    simple_reflection,
    superregular_antidominant,
    translation,
    weyl_identity,
)


def gr24():
    rs = cartan.build("A3")
    return rs, build_parabolic(rs, [0, 2])  # Gr(2,4): I_P = {1,3} 1-based


def _pi_translation_data_fractions(pd, lam):
    """Reference: the closed form of pi_P(t_lam) with each component's inverse
    Cartan matrix in Fractions."""
    rs = pd.rs
    phi = [0] * rs.rank
    v = weyl_identity(rs)
    jms = []
    for comp in pd.components:
        idx = range(len(comp))
        # solving C^T x = e_k gives row k of C^{-1}
        inv = solve_rational(idx, idx, {(r, c): rs.cartan[comp[c]][comp[r]] for r in idx for c in idx},
                             [{k: 1} for k in idx])
        cws = [rs.pair(lam, rs.simple_root(j)) for j in comp]
        psi = [sum(Fraction(cws[j]) * inv[j][k] for j in idx) for k in idx]
        jm, omega = None, [Fraction(0)] * len(comp)
        if any(c.denominator != 1 for c in psi):
            jm, omega = next((cand, inv[pos]) for pos, cand in enumerate(comp)
                             if cand in pd.component_special_nodes(comp)
                             and all((c + o).denominator == 1 for c, o in zip(psi, inv[pos])))
        for k, pos in enumerate(comp):
            val = -psi[k] - omega[k]
            assert val.denominator == 1
            phi[pos] = int(val)
        if jm is not None:
            v = v * longest_of(rs, comp) * longest_of(rs, [k for k in comp if k != jm])
        jms.append(jm)
    return v, tuple(a + b for a, b in zip(lam, phi)), tuple(jms)


PI_P_PARABOLICS = [("A3", (1, 2)), ("B3", (1, 2)), ("C3", (1, 2)), ("A4", (0, 2, 3)), ("G2", (0,)),
                   ("D4", (0, 2, 3))]  # D4: three components
PI_P_DATA = {label: build_parabolic(cartan.build(label), nodes) for label, nodes in PI_P_PARABOLICS}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(PI_P_DATA)), st.data())
def test_pi_translation_data_matches_fraction_reference(label, data):
    pd = PI_P_DATA[label]
    lam = tuple(data.draw(st.lists(st.integers(-6, 6), min_size=pd.rs.rank, max_size=pd.rs.rank)))
    assert pd.pi_translation_data(lam) == _pi_translation_data_fractions(pd, lam)


def test_pi_P_certificate_survives_python_O(run_python):
    # explicit raises, so python -O cannot strip them
    code = "\n".join([
        "import sys",
        "from qaffine import cartan, parabolic",
        "pd = parabolic.build_parabolic(cartan.build('A3'), [1, 2])",
        "parabolic.in_WPaff = lambda pd, x: False",
        "try:",
        "    parabolic.pi_P_translation(pd, (-1, 0, 0))",
        "except AssertionError as e:",
        "    print(sys.flags.optimize, e)",
    ])
    out = run_python("-O", "-c", code).stdout
    assert out.strip() == "1 closed form of pi_P(t_lam) left (W^P)_af"


def test_pi_p_paper_examples():
    rs = cartan.build("A3")
    pd = build_parabolic(rs, [1, 2])
    got = pi_P_translation(pd, (-1, 0, 0))
    assert got == AffineElt(from_word(rs, [1, 2]), (-1, -1, -1))

    pd2 = build_parabolic(rs, [0, 2])
    got = pi_P_translation(pd2, (0, -1, 0))
    assert got == AffineElt(from_word(rs, [0, 2]), (-1, -1, -1))

    rsc = cartan.build("C3")
    pdc = build_parabolic(rsc, [1, 2])
    got = pi_P_translation(pdc, (-1, 0, 0))
    assert got == translation(rsc, tuple(-c for c in rsc.theta_vee))

    rsb = cartan.build("B3")
    pdb = build_parabolic(rsb, [1, 2])
    got = pi_P_translation(pdb, (-1, 0, 0))
    assert got == AffineElt(from_word(rsb, [1, 2, 1]), tuple(-c for c in rsb.theta_vee))


def test_pi_p_strip_matches_closed_form():
    rng = random.Random(31)
    for lbl, nodes in [("A3", [1, 2]), ("A3", [0, 2]), ("B3", [1, 2]), ("C3", [1, 2])]:
        rs = cartan.build(lbl)
        pd = build_parabolic(rs, nodes)
        for _ in range(500):
            lam = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
            assert pi_P(pd, translation(rs, lam)) == pi_P_translation(pd, lam)


def test_in_wpaff():
    rs = cartan.build("A3")
    pd = build_parabolic(rs, [1, 2])
    assert in_WPaff(pd, affine_identity(rs))
    assert in_WPaff(pd, affine_simple_reflection(rs, 0))  # r_0, P != G
    assert not in_WPaff(pd, AffineElt(simple_reflection(rs, 1), rs.zero_coroot()))


def test_index_readers_match_the_action_on_affine_roots():
    # in_WPaff, in_wp and the R_P inversions that pi_P strips, each against a
    # reference that builds the roots and acts on them
    rng = random.Random(64)
    seen = set()
    for lbl, nodes in [("A2", [0]), ("B2", [1]), ("G2", [0]), ("A3", [1, 2]), ("A3", [0, 2])]:
        rs = cartan.build(lbl)
        pd = build_parabolic(rs, nodes)
        assert pd.rp_positive == tuple(rs.roots[k] for k in pd.rp_index)
        betas = [AffineRoot(a, 0) for a in pd.rp_positive]
        betas += [AffineRoot(tuple(-c for c in a), 1) for a in pd.rp_positive]
        W = enumerate_weyl(rs)
        for k in range(60):
            if k % 3 == 2:
                t = rng.choice(W).act_coroot(superregular_antidominant(rs))
            else:
                t = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
            x = AffineElt(rng.choice(W), t)
            for y in (x, pi_P(pd, x)):
                inside = all(y.act(beta).is_positive() for beta in betas)
                assert in_WPaff(pd, y) == inside
                want = []
                for a in pd.rp_positive:
                    for alpha, nmin in ((a, 0), (tuple(-c for c in a), 1)):
                        top = rs.pair_root(y.t, alpha) + any(c < 0 for c in y.w.act_root(alpha))
                        want += [AffineRoot(alpha, n) for n in range(nmin, top)]
                assert list(_inversions(y, pd.rp_index)) == want
                assert (not want) == inside  # pi_P stops exactly on (W^P)_af
                seen.add(inside)
            inverted = [a for a in rs.positive_roots if any(c < 0 for c in x.w.act_root(a))]
            assert pd.in_wp(x.w) == all(a in pd.rp_positive for a in inverted)
        assert pd.in_wp(pd.longest_wp()) and not pd.in_wp(longest_element(rs))
    assert seen == {True, False}


def test_pi_p_properties():
    rs = cartan.build("A3")
    pd = build_parabolic(rs, [1, 2])
    rng = random.Random(33)
    W = enumerate_weyl(rs)
    for _ in range(25):
        x = AffineElt(rng.choice(W), tuple(rng.randint(-2, 2) for _ in range(3)))
        p = pi_P(pd, x)
        assert pi_P(pd, p) == p
        assert bruhat_leq(p, x)
        # the complementary factor lies in (W_P)_af
        m = p.inverse() * x
        assert pd.in_wp(m.w)
        assert all(c == 0 for i, c in enumerate(m.t) if i not in pd.nodes)
        # multiplicativity over translations
        lam = tuple(rng.randint(-2, 2) for _ in range(3))
        assert pi_P(pd, x * translation(rs, lam)) == p * pi_P(pd, translation(rs, lam))
    # Grassmannian preservation
    for _ in range(25):
        lam = tuple(-rng.randint(0, 3) for _ in range(3))
        x = AffineElt(rng.choice(W), lam)
        if is_grassmannian(x):
            assert is_grassmannian(pi_P(pd, x))


def test_factorization_unique_small():
    rs = cartan.build("A3")
    pd = build_parabolic(rs, [1, 2])
    seen = set()
    frontier = [affine_identity(rs)]
    seen.add(frontier[0])
    for _ in range(6):
        nxt = []
        for x in frontier:
            for i in range(4):
                y = x * affine_simple_reflection(rs, i)
                if length(y) == length(x) + 1 and y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    for x in seen:
        p = pi_P(pd, x)
        assert in_WPaff(pd, p)
        m = p.inverse() * x
        assert pd.in_wp(m.w) and all(c == 0 for i, c in enumerate(m.t) if i not in pd.nodes)


def test_in_jp():
    rs, pd = gr24()
    lam = perp_antidominant(pd, 2)
    assert not in_JP(pd, pi_P_translation(pd, lam))
    assert not in_JP(pd, affine_identity(rs))
    # a Grassmannian element with an R_P-inversion
    x = AffineElt(simple_reflection(rs, 0), (-1, -1, -1))
    assert is_grassmannian(x)
    if not in_WPaff(pd, x):
        assert in_JP(pd, x)


def test_jp_ideal_stability():
    # if x in W_af^- has x alpha < 0 and r_i x is a Grassmannian cover
    # then r_i x alpha < 0 as well
    rs, pd = gr24()
    rng = random.Random(35)
    W = enumerate_weyl(rs)

    # K(beta) membership for beta over (R_P)_af^+ at levels 0 and 1
    betas = [AffineRoot(a, 0) for a in pd.rp_positive]
    betas += [AffineRoot(tuple(-c for c in a), 1) for a in pd.rp_positive]
    checked = 0
    for _ in range(500):
        x = AffineElt(rng.choice(W), tuple(-rng.randint(0, 3) for _ in range(3)))
        if not is_grassmannian(x):
            continue
        for beta in betas:
            if x.act(beta).is_positive():
                continue
            for i in range(4):
                y = affine_simple_reflection(rs, i) * x
                if length(y) == length(x) + 1 and is_grassmannian(y):
                    assert not y.act(beta).is_positive()
                    checked += 1
    assert checked > 30


def test_nilhecke_kills_pi_p_translations_mod_jp():
    # A_i . xi_{pi_P(t_lam)} = 0 mod J_P for finite i
    rs, pd = gr24()
    one = scalar_one(rs)
    lam = perp_antidominant(pd, 2)
    xi = {pi_P_translation(pd, lam): one}
    for i in range(1, 4):
        img = act_on_homology(rs, {affine_simple_reflection(rs, i): one}, xi)
        for y in img:
            assert in_JP(pd, y)


def test_parabolic_basis_and_factor_roundtrip():
    rs, pd = gr24()
    for v in pd.minimal_reps():
        x = parabolic_basis_element(pd, v)
        u, q = factor_parabolic(pd, x)
        assert u == v


def test_quotient_product_identity():
    rs, pd = gr24()
    e = weyl_identity(rs)
    for v in pd.minimal_reps():
        got = quotient_product(pd, v, e)
        assert got == {(v, (0,)): scalar_one(rs)}


def test_quotient_product_matches_parabolic_chevalley_gr24():
    rs, pd = gr24()
    r2 = simple_reflection(rs, 1)
    for w in pd.minimal_reps():
        got = quotient_product(pd, r2, w)
        want = parabolic_chevalley(pd, 1, {(w, (0,)): scalar_one(rs)})
        assert got == want


def test_parabolic_chevalley_identity():
    rs, pd = gr24()
    got = parabolic_chevalley(pd, 1, {(weyl_identity(rs), (0,)): scalar_one(rs)})
    assert got == {(simple_reflection(rs, 1), (0,)): scalar_one(rs)}
    with pytest.raises(ValueError):
        parabolic_chevalley(pd, 0, {})


def test_pw_lift():
    rs = cartan.build("A3")
    pd = build_parabolic(rs, [1, 2])
    lam_b, ipp, v = pw_lift(pd, (0,))
    assert lam_b == (0, 0, 0) and ipp == pd.nodes and v.is_identity()
    lam_b, ipp, v = pw_lift(pd, (-1,))
    assert lam_b == (-1, -1, -1)
    assert ipp == frozenset({1})
    assert v == from_word(rs, [1, 2])


def test_coset_of_the_wrong_length_is_rejected():
    # a coset has one coordinate per node off I_P; extra or missing ones were
    # once dropped or padded silently
    rs = cartan.build("A3")
    pd = build_parabolic(rs, [1, 2])
    assert pd.coset_coroot((-1,)) == (-1, 0, 0)
    for bad in [(), (-1, 5, 7)]:
        with pytest.raises(ValueError, match="coordinates"):
            pw_lift(pd, bad)


def test_pw_transport_gr24():
    # d^{z, lam_P, P}_{x,y} = d^{z w_P w_P', lam_B}_{x,y} non-equivariantly
    rs, pd = gr24()
    from qaffine.quantum import gw_coefficient

    reps = pd.minimal_reps()
    for x in reps:
        for y in reps:
            prod = quotient_product(pd, x, y)
            for (z, q), c in prod.items():
                lam_b, ipp, v = pw_lift(pd, q)
                borel = gw_coefficient(rs, x, y, z * v, lam_b)
                assert c.eval_zero() == borel.eval_zero()


def test_tau_and_star():
    rs = cartan.build("A3")
    assert tau(rs, 0) == (0, 1, 2, 3)
    assert tau(rs, 2) == (2, 3, 0, 1)  # i -> i - 2 mod 4 on the affine 4-cycle
    assert star(rs) == (0, 3, 2, 1)  # i -> n - i on I, fixing 0
    with pytest.raises(ValueError):
        tau(cartan.build("B3"), 1 + 1)  # node 2 of B3 has mark 2


def _tau_reference(rs, i):
    vi = longest_element(rs) * longest_of(rs, [k for k in range(rs.rank) if k != i - 1])
    simple = [rs.simple_root(k) for k in range(rs.rank)]
    neg_theta = tuple(-c for c in rs.theta)
    out = [simple.index(tuple(-c for c in vi.act_root(rs.theta))) + 1]
    for a in simple:
        img = vi.act_root(a)
        out.append(0 if img == neg_theta else simple.index(img) + 1)
    return tuple(out)


def _star_reference(rs):
    w0 = longest_element(rs)
    simple = [rs.simple_root(k) for k in range(rs.rank)]
    return (0,) + tuple(simple.index(tuple(-c for c in w0.act_root(a))) + 1 for a in simple)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C2", "C3", "C4",
                                   "D4", "D5", "E6", "E7"])
def test_tau_and_star_match_the_vector_reference(label):
    rs = cartan.build(label)
    specials = [i for i in range(1, rs.rank + 1) if rs.marks[i] == 1]
    assert specials
    for i in specials:
        assert tau(rs, i) == _tau_reference(rs, i)
    assert star(rs) == _star_reference(rs)


def test_theta_cominuscule_sl4():
    rs = cartan.build("A3")
    pd = build_parabolic(rs, [0, 2])
    y = from_word(rs, [0, 1])  # r1 r2
    got = theta_cominuscule(pd, y)
    assert got == affine_from_word(rs, (1, 0))  # r_1 r_0 = h_[2]
    assert got == bott_generator(rs, 2)


def test_theta_cominuscule_sl7_example():
    rs = cartan.build("A6")
    pd = build_parabolic(rs, [k for k in range(6) if k != 3])
    y = from_word(rs, [3, 4, 1, 2, 3])
    got = theta_cominuscule(pd, y)
    assert reduced_word(got) == (0, 6, 2, 1, 0)
    assert got.t == (-1, -2, -2, -2, -2, -1)
    pit = pi_P_translation(pd, got.t)
    assert pit.w == from_word(rs, [1, 2, 0, 1, 5, 4])
    assert pd.pi_finite(got.w) == partition_to_wp(pd, (3, 3, 2, 1))


def test_theta_bruhat_isomorphism():
    rs, pd = gr24()
    reps = pd.minimal_reps()
    z = rs.zero_coroot()
    for y1 in reps:
        for y2 in reps:
            finite = bruhat_leq(AffineElt(y1, z), AffineElt(y2, z))
            affine = bruhat_leq(theta_cominuscule(pd, y1), theta_cominuscule(pd, y2))
            assert finite == affine


def test_theta_lands_in_stratum_spot_checks():
    # Gr(2,5) and Gr(4,7); membership asserts live inside theta_cominuscule
    for n, j in [(5, 2), (7, 4)]:
        rs = cartan.build(f"A{n - 1}")
        pd = build_parabolic(rs, [k for k in range(n - 1) if k != j - 1])
        for y in pd.minimal_reps():
            theta_cominuscule(pd, y)


def test_strange_duality_involution_and_ring():
    rs, pd = gr24()
    one = scalar_one(rs)
    reps = pd.minimal_reps()
    # sigma_P^id maps to q^0 sigma_P^{pi_P(w_P)} = sigma_P^id
    e = weyl_identity(rs)
    assert strange_duality(pd, {(e, (0,)): one}) == {(e, (0,)): one}
    # involution
    for w in reps:
        cls = {(w, (0,)): one}
        assert strange_duality(pd, strange_duality(pd, cls)) == cls
    # ring map at q = 1 on all products, non-equivariantly
    for u in reps:
        for v in reps:
            prod = quotient_product(pd, u, v)
            image_of_prod = strange_duality(pd, prod)
            dual_prod = quotient_product(pd, _sd_target(pd, u), _sd_target(pd, v))
            lhs = _collapse_q1_a0(image_of_prod)
            rhs = _collapse_q1_a0(dual_prod)
            assert lhs == rhs


def test_strange_duality_rejects_keys_outside_WP():
    rs, pd = gr24()
    one = scalar_one(rs)
    reps = set(pd.minimal_reps())
    outside = [w for w in enumerate_weyl(rs) if w not in reps]
    assert len(outside) == 18
    for w in outside:
        with pytest.raises(ValueError, match=r"does not lie in W\^P$"):
            strange_duality(pd, {(weyl_identity(rs), (0,)): one, (w, (1,)): one})


def _sd_target(pd, w):
    return pd.pi_finite(pd.longest_wp() * w)


def _collapse_q1_a0(cls):
    out = {}
    for (w, q), c in cls.items():
        z = c.eval_zero() if isinstance(c, Scalar) else c
        if z:
            out[w] = out.get(w, 0) + z
    return {k: v for k, v in out.items() if v}


def test_highest_root_product_identity_case():
    rs, pd = gr24()
    e = weyl_identity(rs)
    got = highest_root_product(pd, e)
    # only the first term survives at w = id
    assert len(got) == 1
    ((target, q), coeff) = next(iter(got.items()))
    assert coeff == 1
    assert target == pd.pi_finite(from_word(rs, [0, 1, 2, 1, 0]))  # pi_P(r_theta)


def test_highest_root_product_needs_a_proper_parabolic():
    rs = cartan.build("A3")
    pd = build_parabolic(rs, range(rs.rank))
    with pytest.raises(ValueError, match="proper"):
        highest_root_product(pd, weyl_identity(rs))


def test_highest_root_product_vs_quotient():
    rs, pd = gr24()
    rtheta_p = pd.pi_finite(from_word(rs, [0, 1, 2, 1, 0]))
    for w in pd.minimal_reps():
        closed = highest_root_product(pd, w)
        via_quotient = quotient_product(pd, rtheta_p, w)
        got = {}
        for (u, q), c in via_quotient.items():
            z = c.eval_zero()
            if z:
                got[(u, q)] = z
        # the closed formula describes sigma^{pi(r_theta)} * sigma^w up to the
        # localization shift q_{eta(theta_vee)} ... both sides as computed share it
        assert got == closed


def test_partition_to_affine():
    rs = cartan.build("A6")
    x = partition_to_affine(rs, (3, 2), 7)
    assert reduced_word(x) == (0, 6, 2, 1, 0)
    assert partition_to_affine(rs, (), 7) == affine_identity(rs)
    with pytest.raises(ValueError):
        partition_to_affine(rs, (7,), 7)
    with pytest.raises(ValueError):
        partition_to_affine(rs, (1, 2), 7)
    for parts in [(3, -1), (-2,), (0, -1)]:
        with pytest.raises(ValueError, match="partition parts must be nonnegative"):
            partition_to_affine(rs, parts, 7)


def test_partition_to_wp_examples():
    rs = cartan.build("A6")
    pd = build_parabolic(rs, [k for k in range(6) if k != 3])
    assert partition_to_wp(pd, (2, 2, 1, 0)) == from_word(rs, [3, 4, 1, 2, 3])
    with pytest.raises(ValueError):
        partition_to_wp(pd, (4,))  # exceeds n - j = 3
    for parts in [(2, -1), (-1,), (0, -3)]:
        with pytest.raises(ValueError, match="partition parts must be nonnegative"):
            partition_to_wp(pd, parts)


def test_bott_and_quotient_generators():
    rs = cartan.build("A3")
    pd = build_parabolic(rs, [0, 2])
    j = 2
    for m in range(0, j + 1):
        assert theta_cominuscule(pd, quotient_generator(pd, m)) == bott_generator(rs, m)
    # single-row partitions map to the Bott generators
    for m in range(1, 4):
        assert partition_to_affine(rs, (m,), 4) == bott_generator(rs, m)


def test_lm_map_generators():
    for n, j in [(4, 2), (5, 2), (5, 3)]:
        rs = cartan.build(f"A{n - 1}")
        pd = build_parabolic(rs, [k for k in range(n - 1) if k != j - 1])
        for m in range(1, n):
            img = lm_map(pd, {bott_generator(rs, m): 1})
            if m <= j:
                assert img == {quotient_generator(pd, m): 1}
            else:
                assert img == {}


def test_lm_map_transpose_rule():
    rs = cartan.build("A3")
    pd = build_parabolic(rs, [0, 2])
    # lambda inside the (n-j) x j = 2 x 2 rectangle maps to sigma_P^{w_{lambda^t}}
    for lam, lamt in [((1,), (1,)), ((2,), (1, 1)), ((1, 1), (2,)), ((2, 1), (2, 1)), ((2, 2), (2, 2))]:
        x = partition_to_affine(rs, lam, 4)
        assert lm_map(pd, {x: 1}) == {partition_to_wp(pd, lamt): 1}


def test_lm_map_single_class_images():
    # every bounded partition maps to 0 or to a single class with coefficient 1,
    # including the straightening regime (parts of size j in front)
    rs = cartan.build("A3")
    pd = build_parabolic(rs, [0, 2])
    partitions = [
        (1,), (2,), (3,), (1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3),
        (2, 2, 1), (2, 1, 1), (1, 1, 1), (2, 2, 2), (3, 2, 1),
    ]
    for parts in partitions:
        img = lm_map(pd, {partition_to_affine(rs, parts, 4): 1})
        assert img == {} or list(img.values()) == [1]
        if parts[0] > 2:  # a part exceeding j is killed
            assert img == {}


def test_lm_map_ring_homomorphism_small():
    rs = cartan.build("A3")
    pd = build_parabolic(rs, [0, 2])
    xs = [bott_generator(rs, 1), bott_generator(rs, 2), partition_to_affine(rs, (1, 1), 4)]
    for a in xs:
        for b in xs:
            prod = hom_product_basis(rs, a, b)
            prod0 = {k: v.eval_zero() for k, v in prod.items() if v.eval_zero()}
            lhs = lm_map(pd, prod0)
            ia, ib = lm_map(pd, {a: 1}), lm_map(pd, {b: 1})
            rhs = {}
            for ya, ca in ia.items():
                for yb, cb in ib.items():
                    for (z, q), c in quotient_product(pd, ya, yb).items():
                        z0 = c.eval_zero() * ca * cb
                        if z0:
                            rhs[z] = rhs.get(z, 0) + z0
            assert lhs == {k: v for k, v in rhs.items() if v}


def _bounded_partitions(size: int, bound: int):
    """Partitions of ``size`` with parts at most ``bound``, largest part first."""
    if size == 0:
        yield ()
        return
    for first in range(min(size, bound), 0, -1):
        for rest in _bounded_partitions(size - first, first):
            yield (first, *rest)


def _lm_preimage_scan(pd, x):
    """Reference: try every y in W^P against x = theta(y) pi_P(t_lam)."""
    for y in pd.minimal_reps():
        z = theta_cominuscule(pd, y).inverse() * x
        v, lam_b, _ = pd.pi_translation_data(z.t)
        if lam_b == z.t and AffineElt(v, lam_b) == z:
            return y
    return None


def test_lm_preimage_matches_scan_reference():
    images = {"zero": 0, "nonzero": 0}
    for n in range(3, 7):
        rs = cartan.build(f"A{n - 1}")
        for j in range(1, n):
            pd = build_parabolic(rs, [k for k in range(n - 1) if k != j - 1])
            for size in range(7):
                for parts in _bounded_partitions(size, n - 1):
                    x = partition_to_affine(rs, parts, n)
                    want = _lm_preimage_scan(pd, x)
                    assert parabolic._lm_preimage(pd, x) == want, (n, j, parts)
                    images["zero" if want is None else "nonzero"] += 1
    assert images["zero"] and images["nonzero"]


def test_lm_map_zero_image_builds_one_theta(monkeypatch):
    calls = []
    real = parabolic.theta_cominuscule

    def counting(pd, y):
        calls.append(y)
        return real(pd, y)

    monkeypatch.setattr(parabolic, "theta_cominuscule", counting)
    rs = cartan.build("A4")
    pd = build_parabolic(rs, [0, 2, 3])  # Gr(2, 5)
    assert lm_map(pd, {partition_to_affine(rs, (3,), 5): 1}) == {}  # a part exceeding j is killed
    assert len(calls) <= 1


def test_v_special_certificate_survives_python_O(run_python):
    # explicit raise, so python -O cannot strip it
    code = "\n".join([
        "import sys",
        "from qaffine import cartan, parabolic",
        "pd = parabolic.build_parabolic(cartan.build('A3'), [1, 2])",
        "pd.in_wp = lambda v: False",
        "try:",
        "    pd.v_special((1, 2), 1)",
        "except AssertionError as e:",
        "    print(sys.flags.optimize, e)",
    ])
    out = run_python("-O", "-c", code).stdout
    assert out.strip() == "1 v_special left W_P"
