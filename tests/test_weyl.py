import copy
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaffine import cartan, peterson
from qaffine.cartan import AffineRoot
from qaffine.coeffring import scalar_one
from qaffine.qbruhat import build_qbg, endpoint_for_pair, path_endpoint
from qaffine.weyl import (
    AffineElt,
    BudgetError,
    _inversions,
    affine_from_word,
    affine_identity,
    affine_simple_reflection,
    bruhat_leq,
    chamber_decompose,
    cocovers,
    cocovers_superregular,
    cover_rows,
    enumerate_weyl,
    from_word,
    inversions,
    is_grassmannian,
    is_superregular,
    length,
    length_regular,
    longest_element,
    reduced_word,
    reflection_of,
    reflection_of_affine,
    root_pairings,
    simple_reflection,
    superregular_antidominant,
    superregular_cocovers,
    superregular_margin,
    translation,
    weyl_identity,
)


def neg_theta_vee(rs):
    return tuple(-c for c in rs.theta_vee)


def test_equal_finite_elements_are_one_object():
    rs = cartan.build("A2")
    assert from_word(rs, (0, 1, 0)) is from_word(rs, (1, 0, 1))
    rng = random.Random(23)
    for lbl in ["B2", "G2"]:
        rs = cartan.build(lbl)
        W = enumerate_weyl(rs)
        for w in W:
            assert w.inverse().inverse() is w
        for _ in range(40):
            x, y, z = rng.choice(W), rng.choice(W), rng.choice(W)
            assert (x * y) * z is x * (y * z)


def test_a_j_class_adds_no_finite_element():
    rs = cartan.build("A3")
    W = enumerate_weyl(rs)
    assert len(rs._elts) == 24
    w = next(w for w in W if w.length() == 2)
    x = AffineElt(w, superregular_antidominant(rs, units=peterson.j_units_needed(rs, w)))
    assert peterson.j_class(rs, x)
    assert len(rs._elts) == 24


def test_finite_elements_of_two_builds_stay_apart():
    rs1, rs2 = cartan.build("A2"), cartan.build("A2")
    for u, v in zip(enumerate_weyl(rs1), enumerate_weyl(rs2)):
        assert u.perm == v.perm
        assert u is not v and u != v
    assert not set(enumerate_weyl(rs1)) & set(enumerate_weyl(rs2))


def test_threads_racing_on_new_permutations_share_one_element():
    words = [tuple(random.Random(k).choices(range(3), k=9)) for k in range(200)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            rs = cartan.build("B3")  # a fresh table each time, so every thread races on new perms
            got = [[] for _ in range(4)]
            start = threading.Barrier(len(got))

            def work(out, rs=rs, start=start):
                start.wait(timeout=60)
                for word in words:
                    out.append(from_word(rs, word))

            threads = [threading.Thread(target=work, args=(out,)) for out in got]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert all(len(out) == len(words) for out in got)
            for elts in zip(*got):
                assert all(e is elts[0] for e in elts)
            assert all(rs._elts[e.perm] is e for e in got[0])
    finally:
        sys.setswitchinterval(old)


def test_length_basics():
    rs = cartan.build("A2")
    assert length(affine_identity(rs)) == 0
    x = translation(rs, neg_theta_vee(rs))
    assert length(x) == 4
    # oracle: <lam, -2 rho> for antidominant lam
    assert length(x) == -rs.pair(neg_theta_vee(rs), rs.two_rho)
    for lbl in ["A1", "A2", "B2", "C3", "G2"]:
        r = cartan.build(lbl)
        r0 = affine_simple_reflection(r, 0)
        assert length(r0) == 1


def test_length_vs_inversions():
    rng = random.Random(1)
    for lbl in ["A2", "B2"]:
        rs = cartan.build(lbl)
        W = enumerate_weyl(rs)
        for _ in range(25):
            x = AffineElt(rng.choice(W), tuple(rng.randint(-3, 3) for _ in range(rs.rank)))
            assert len(inversions(x)) == length(x)


def _root_sum_length(x):
    # l(w t_lam) = sum over alpha > 0 of |<lam, alpha> + chi(w alpha < 0)|
    rs = x.rs
    return sum(abs(rs.pair(x.t, a) + any(c < 0 for c in x.w.act_root(a))) for a in rs.positive_roots)


def test_memoized_length_matches_root_sum():
    rng = random.Random(17)
    for lbl in ["A2", "B2", "G2"]:
        rs = cartan.build(lbl)
        W = enumerate_weyl(rs)
        for _ in range(20):
            x = affine_from_word(rs, [rng.randrange(rs.rank + 1) for _ in range(rng.randint(0, 8))])
            z = AffineElt(rng.choice(W), tuple(rng.randint(-3, 3) for _ in range(rs.rank)))
            lam = tuple(rng.randint(-2, 2) for _ in range(rs.rank))
            # memoize x and z before deriving from them, so that a derived
            # element cannot inherit a stale length unseen
            assert (length(x), length(z)) == (_root_sum_length(x), _root_sum_length(z))
            for y in [x * z, z * x, x.inverse(), z.inverse(), x.translate(lam), z.translate(lam)]:
                assert length(y) == length(y) == _root_sum_length(y), (lbl, y)


def test_grassmannian():
    rs1 = cartan.build("A1")
    r0 = affine_simple_reflection(rs1, 0)
    assert r0.w == simple_reflection(rs1, 0) and r0.t == (-1,)
    assert is_grassmannian(r0)
    # oracle: r0 . alpha_1 > 0
    assert r0.act(AffineRoot((1,), 0)).is_positive()

    rs = cartan.build("A2")
    assert is_grassmannian(affine_identity(rs))
    assert not is_grassmannian(AffineElt(simple_reflection(rs, 0), rs.zero_coroot()))


def test_grassmannian_is_coset_minimum():
    for lbl in ["A2", "B2", "A3"]:
        rs = cartan.build(lbl)
        W = enumerate_weyl(rs)
        rng = random.Random(3)
        for _ in range(40):
            x = AffineElt(rng.choice(W), tuple(rng.randint(-2, 2) for _ in range(rs.rank)))
            # x u as affine elements: (w t_lam) u = w u t_{u^{-1} lam}
            coset = [AffineElt(x.w * u, u.inv_act_coroot(x.t)) for u in W]
            lmin = min(length(y) for y in coset)
            # the minimum-length coset representative is unique
            assert sum(1 for y in coset if length(y) == lmin) == 1
            assert is_grassmannian(x) == (length(x) == lmin)


def test_length_regular():
    rs = cartan.build("A2")
    lam = tuple(-2 * c for c in rs.theta_vee)
    e = weyl_identity(rs)
    assert length_regular(e, e, lam) == length(translation(rs, lam))
    r1 = simple_reflection(rs, 0)
    assert length_regular(r1, e, lam) == length(translation(rs, lam)) - 1
    w0 = longest_element(rs)
    # u = id, w = w0: the -l(uw) and +l(w) contributions cancel
    assert length_regular(e, w0, lam) == length(translation(rs, lam))
    # u = w = w0: l(u w) = 0, so the formula gains l(w0) = 3
    assert length_regular(w0, w0, lam) == length(translation(rs, lam)) + 3
    with pytest.raises(ValueError):
        length_regular(e, e, rs.zero_coroot())


def brute_force_cocovers(x):
    """Oracle: scan all reflections r_{alpha + n delta} in a window."""
    rs = x.rs
    lx = length(x)
    found = set()
    for a in rs.positive_roots:
        for n in range(-lx - 2, lx + 3):
            y = x * reflection_of_affine(rs, AffineRoot(a, n))
            if length(y) == lx - 1:
                found.add(y)
    return found


def test_cocovers_small():
    rs1 = cartan.build("A1")
    assert cocovers(affine_identity(rs1)) == []
    cc = cocovers(affine_simple_reflection(rs1, 0))
    assert [c.target for c in cc] == [affine_identity(rs1)]

    rs = cartan.build("A2")
    x = translation(rs, neg_theta_vee(rs))
    got = {c.target for c in cocovers(x)}
    assert got == brute_force_cocovers(x)
    assert len(got) == 3


def test_cocover_records():
    rs = cartan.build("A2")
    x = translation(rs, neg_theta_vee(rs))
    for c in cocovers(x):
        assert c.source == x
        assert c.target == x * reflection_of_affine(rs, c.reflection_root)
        assert length(c.target) == length(x) - 1
        assert c.reflection_root.is_positive()


def test_superregular_classification_example():
    rs = cartan.build("A2")
    lam = tuple(-20 * c for c in (1, 1))
    assert min(abs(rs.pair(lam, a)) for a in rs.positive_roots) >= 2 * rs.weyl_order + 2
    x = translation(rs, lam)
    cc = cocovers_superregular(x)
    near = [c for c in cc if c.kind == "near"]
    far = [c for c in cc if c.kind == "far"]
    assert len(near) == 2 and all(c.case == 1 for c in near)
    assert {c.alpha for c in near} == {rs.simple_root(0), rs.simple_root(1)}
    assert len(far) == 3 and all(c.case == 4 for c in far)
    assert {c.alpha for c in far} == {rs.simple_root(0), rs.simple_root(1), rs.theta}


def test_superregular_case2_condition():
    # case 2 requires l(w v) = l(w v r_alpha) + <alpha^vee, 2 rho> - 1
    rs = cartan.build("B2")
    lam = superregular_antidominant(rs, units=2)
    W = enumerate_weyl(rs)
    for w in W:
        x = AffineElt(w, lam)
        for c in cocovers_superregular(x):
            if c.case == 2:
                v, _ = chamber_decompose(rs, x.t)
                ra = reflection_of(rs, c.alpha)
                a2rho = rs.pair(rs.coroot_of(c.alpha), rs.two_rho)
                assert (x.w * v).length() == (x.w * v * ra).length() + a2rho - 1


def test_superregular_reflection_root_form():
    # the positive affine root of the reflection is -(v alpha) - n delta
    rs = cartan.build("A2")
    lam = superregular_antidominant(rs, units=1)
    rng = random.Random(5)
    W = enumerate_weyl(rs)
    for _ in range(10):
        v = rng.choice(W)
        x = AffineElt(rng.choice(W), v.act_coroot(lam))
        for c in cocovers_superregular(x):
            fin = c.reflection_root.finite
            assert not AffineRoot(tuple(-f for f in fin), -c.reflection_root.level).is_positive()


def test_superregular_matches_generic_random():
    rng = random.Random(11)
    for lbl in ["A1", "A2", "B2"]:
        rs = cartan.build(lbl)
        W = enumerate_weyl(rs)
        base = superregular_antidominant(rs, units=2)
        for _ in range(200 if lbl != "B2" else 60):
            w = rng.choice(W)
            v = rng.choice(W)
            jitter = tuple(b - rng.randint(0, 2) for b in base)
            x = AffineElt(w, v.act_coroot(jitter))
            if not is_superregular(x):
                continue
            got = {c.target for c in cocovers_superregular(x)}
            want = {c.target for c in cocovers(x)}
            assert got == want


def test_superregular_matches_generic_g2():
    # the triple bond stresses the pairing bounds in the classification
    rs = cartan.build("G2")
    W = enumerate_weyl(rs)
    rng = random.Random(14)
    lam = superregular_antidominant(rs, units=1)
    for _ in range(25):
        w, v = rng.choice(W), rng.choice(W)
        x = AffineElt(w, v.act_coroot(lam))
        cocovers_superregular(x)  # validates against the generic enumeration


def test_cocovers_superregular_rejects():
    rs = cartan.build("A2")
    with pytest.raises(ValueError):
        cocovers_superregular(translation(rs, neg_theta_vee(rs)))


def test_inversions_r0():
    for lbl in ["A2", "B2"]:
        rs = cartan.build(lbl)
        inv = inversions(affine_simple_reflection(rs, 0))
        assert inv == [AffineRoot(tuple(-c for c in rs.theta), 1)]


def _vector_inversions(x, roots):
    # the reference: build each root, act on it, test its sign and pair it
    rs = x.rs
    out = []
    for a in roots:
        for alpha, nmin in ((a, 0), (tuple(-c for c in a), 1)):
            top = rs.pair_root(x.t, alpha) + any(c < 0 for c in x.w.act_root(alpha))
            out += [AffineRoot(alpha, n) for n in range(nmin, top)]
    return out


def _vector_reduced_word(x):
    # the reference: right descents read off x . alpha_i through AffineElt.act
    rs = x.rs
    simple = [AffineRoot(tuple(-c for c in rs.theta), 1)]
    simple += [AffineRoot(rs.simple_root(i), 0) for i in range(rs.rank)]
    out = []
    while not x.is_identity():
        i = next(i for i, beta in enumerate(simple) if not x.act(beta).is_positive())
        out.append(i)
        x = x * affine_simple_reflection(rs, i)
    return tuple(reversed(out))


def _random_elements(rs, rng, count):
    # shallow translations, on walls or not, and deep superregular ones
    W = enumerate_weyl(rs)
    for k in range(count):
        if k % 3 == 2:
            t = rng.choice(W).act_coroot(superregular_antidominant(rs, units=rng.randint(0, 1)))
        else:
            t = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
        yield AffineElt(rng.choice(W), t)


def test_inversions_read_indices_as_the_vector_reference():
    rng = random.Random(61)
    for lbl in ["A2", "B2", "G2", "A3"]:
        rs = cartan.build(lbl)
        npos = len(rs.positive_roots)
        for x in _random_elements(rs, rng, 30):
            assert inversions(x) == _vector_inversions(x, rs.positive_roots)
            # over a subset of the positive roots, as pi_P reads R_P^+
            ks = sorted(rng.sample(range(npos), rng.randint(0, npos)))
            assert list(_inversions(x, ks)) == _vector_inversions(x, [rs.roots[k] for k in ks])


def test_reduced_word_matches_the_action_on_affine_roots():
    rng = random.Random(62)
    for lbl in ["A2", "B2", "G2", "A3"]:
        rs = cartan.build(lbl)
        for x in _random_elements(rs, rng, 12):
            word = reduced_word(x)
            assert word == _vector_reduced_word(x)
            assert len(word) == length(x) and affine_from_word(rs, word) == x


def test_antidominant_and_regular_match_pair_root():
    rng = random.Random(63)
    seen = set()
    for lbl in ["A2", "B2", "G2", "A3", "C3"]:
        rs = cartan.build(lbl)
        W = enumerate_weyl(rs)
        for _ in range(60):
            t = tuple(rng.randint(-2, 2) for _ in range(rs.rank))
            if rng.random() < 0.3:
                t = rng.choice(W).act_coroot(superregular_antidominant(rs))
            anti = all(rs.pair_root(t, rs.simple_root(i)) <= 0 for i in range(rs.rank))
            regular = all(rs.pair_root(t, a) != 0 for a in rs.positive_roots)
            assert rs.is_antidominant(t) == anti and rs.is_regular(t) == regular
            seen.add((anti, regular))
        with pytest.raises(ValueError, match="dimension"):
            rs.is_antidominant((0,) * (rs.rank + 1))
        with pytest.raises(ValueError, match="dimension"):
            rs.is_regular((1,) * (rs.rank + 1))
    assert len(seen) == 4


def test_an_exhausted_margin_raises_budget_error():
    rs = cartan.build("A2")
    e = weyl_identity(rs)
    assert peterson.BudgetError is BudgetError and issubclass(BudgetError, ValueError)
    with pytest.raises(BudgetError, match="not superregular"):
        superregular_cocovers(rs, e, (-1, -1))
    with pytest.raises(BudgetError):
        cocovers_superregular(translation(rs, (-1, -1)))
    g = build_qbg(rs)
    with pytest.raises(BudgetError, match="superregular enough"):
        path_endpoint([g.edges[e][0]], (-1, -1))


def test_copies_of_elements_are_the_elements():
    rs = cartan.build("A2")
    w = from_word(rs, (0, 1))
    assert copy.copy(w) is w and copy.deepcopy(w) is w
    x = AffineElt(w, (-1, 2))
    d = {x: scalar_one(rs), translation(rs, (0, -1)): scalar_one(rs)}
    d2 = copy.deepcopy(d)
    assert d2 == d
    key = next(iter(d2))
    assert key == x and key.w is w and hash(key) == hash(x)


def test_pickling_an_element_fails_at_dumps():
    # elements are canonical per root system; a pickle would carry a copy of
    # the whole RootSystem and could not be loaded
    rs = cartan.build("A2")
    w = simple_reflection(rs, 0)
    for obj in (w, AffineElt(w, (-1, 2))):
        with pytest.raises(TypeError, match="canonical per root system"):
            pickle.dumps(obj)


def test_reduced_word_translation_a1():
    rs = cartan.build("A1")
    x = translation(rs, (-1,))
    assert reduced_word(x) == (1, 0)
    assert affine_from_word(rs, (1, 0)) == x


def test_reduced_word_roundtrip():
    rng = random.Random(2)
    rs = cartan.build("B2")
    W = enumerate_weyl(rs)
    for _ in range(20):
        x = AffineElt(rng.choice(W), tuple(rng.randint(-2, 2) for _ in range(2)))
        word = reduced_word(x)
        assert len(word) == length(x)
        assert affine_from_word(rs, word) == x


def test_bruhat_leq():
    rs = cartan.build("A2")
    rng = random.Random(4)
    W = enumerate_weyl(rs)
    e = affine_identity(rs)
    for _ in range(15):
        x = AffineElt(rng.choice(W), tuple(rng.randint(-2, 2) for _ in range(2)))
        assert bruhat_leq(e, x)
        assert bruhat_leq(x, x)
    # oracle: subword characterization on small elements
    xs = [AffineElt(w, t) for w in W for t in [(0, 0), (-1, 0), (0, -1)]]
    xs = [x for x in xs if length(x) <= 4]
    for x in xs:
        for y in xs:
            wy = reduced_word(y)
            expect = _subword_leq(rs, reduced_word(x), wy)
            assert bruhat_leq(x, y) == expect


def _subword_leq(rs, wx, wy):
    if len(wx) > len(wy):
        return False
    target = affine_from_word(rs, wx)
    from itertools import combinations

    for picks in combinations(range(len(wy)), len(wx)):
        if affine_from_word(rs, tuple(wy[i] for i in picks)) == target:
            return True
    return not wx


def _bruhat_leq_by_lengths(x, y):
    """Reference: the left-descent recursion on AffineElt, with every descent
    found by comparing lengths."""
    rs = x.rs
    lx, ly = length(x), length(y)
    while True:
        if lx > ly:
            return False
        if ly == 0:
            return lx == 0 and x.is_identity()
        if x == y:
            return True
        for i in range(rs.rank + 1):
            ri = affine_simple_reflection(rs, i)
            yi = ri * y
            if length(yi) < ly:
                y, ly = yi, ly - 1
                xi = ri * x
                if length(xi) < lx:
                    x, lx = xi, lx - 1
                break
        else:
            raise AssertionError("no descent found for a non-identity element")


SHORT_TYPES = {label: cartan.build(label) for label in ("A2", "B2", "G2")}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(SHORT_TYPES)), st.lists(st.integers(0, 2), max_size=6), st.data())
def test_bruhat_leq_matches_subword_oracle(label, raw, data):
    # y from letters mod |I_af|; x from a subword of a reduced word of y (so
    # x <= y) or from letters of its own
    rs = SHORT_TYPES[label]
    y = affine_from_word(rs, tuple(i % (rs.rank + 1) for i in raw))
    wy = reduced_word(y)
    if data.draw(st.booleans()):
        keep = data.draw(st.lists(st.booleans(), min_size=len(wy), max_size=len(wy)))
        x = affine_from_word(rs, tuple(i for i, k in zip(wy, keep) if k))
    else:
        x = affine_from_word(rs, tuple(i % (rs.rank + 1) for i in data.draw(st.lists(st.integers(0, 2), max_size=4))))
    assert bruhat_leq(x, y) == _subword_leq(rs, reduced_word(x), wy)
    assert bruhat_leq(y, x) == _subword_leq(rs, wy, reduced_word(x))


DEEP_TYPES = {label: cartan.build(label) for label in ("A3", "G2")}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(DEEP_TYPES)), st.data())
def test_bruhat_leq_matches_length_recursion_on_deep_endpoints(label, data):
    # the endpoints x(u, w) of the tilted-order check: superregular elements
    # whose lengths run into the hundreds
    rs = DEEP_TYPES[label]
    g = build_qbg(rs)
    W = enumerate_weyl(rs)
    u, w, v = (data.draw(st.sampled_from(W)) for _ in range(3))
    lam = superregular_antidominant(rs, units=max(g.distances_from(u).values()) + 1)
    xw, xv = endpoint_for_pair(g, u, w, lam), endpoint_for_pair(g, u, v, lam)
    assert bruhat_leq(xv, xw) == _bruhat_leq_by_lengths(xv, xw)
    assert bruhat_leq(xw, xv) == _bruhat_leq_by_lengths(xw, xv)


def test_group_law():
    rs = cartan.build("B2")
    rng = random.Random(6)
    W = enumerate_weyl(rs)
    for w in W:
        lam = tuple(rng.randint(-3, 3) for _ in range(2))
        # t_{w lam} = w t_lam w^{-1}
        lhs = translation(rs, w.act_coroot(lam))
        rhs = AffineElt(w, rs.zero_coroot()) * translation(rs, lam) * AffineElt(w.inverse(), rs.zero_coroot())
        assert lhs == rhs
    for _ in range(30):
        xs = [AffineElt(rng.choice(W), tuple(rng.randint(-2, 2) for _ in range(2))) for _ in range(3)]
        assert (xs[0] * xs[1]) * xs[2] == xs[0] * (xs[1] * xs[2])
        assert (xs[0] * xs[0].inverse()).is_identity()


def test_length_subadditive():
    rs = cartan.build("A2")
    rng = random.Random(8)
    W = enumerate_weyl(rs)
    for _ in range(40):
        x = AffineElt(rng.choice(W), tuple(rng.randint(-2, 2) for _ in range(2)))
        y = AffineElt(rng.choice(W), tuple(rng.randint(-2, 2) for _ in range(2)))
        assert length(x * y) <= length(x) + length(y)
        # concatenated reduced words multiply to x y; equality iff reduced
        if length(x * y) == length(x) + length(y):
            assert affine_from_word(rs, reduced_word(x) + reduced_word(y)) == x * y


def test_antidominant_translation_length():
    for lbl in ["A2", "B2", "C3"]:
        rs = cartan.build(lbl)
        rng = random.Random(9)
        for _ in range(10):
            lam = tuple(-rng.randint(0, 3) for _ in range(rs.rank))
            if not rs.is_antidominant(lam):
                continue
            assert length(translation(rs, lam)) == -rs.pair(lam, rs.two_rho)


def test_chamber_decompose():
    rs = cartan.build("B2")
    rng = random.Random(10)
    W = enumerate_weyl(rs)
    for _ in range(30):
        tau = tuple(rng.randint(-5, 5) for _ in range(2))
        v, lam = chamber_decompose(rs, tau)
        assert rs.is_antidominant(lam)
        assert v.act_coroot(lam) == tau


def test_root_pairings_match_per_root_formulas():
    # length, is_grassmannian, superregular_margin and chamber_decompose read one
    # cached tuple of pairings; here each is recomputed root by root from the
    # Cartan form and the action on roots
    rng = random.Random(53)
    seen = {"zero": 0, "mixed": 0, "margin": 0, "grassmannian": 0, "not grassmannian": 0}
    for lbl in ["A2", "B2", "G2", "A3"]:
        rs = cartan.build(lbl)
        W = enumerate_weyl(rs)
        for _ in range(80):
            kind = rng.randrange(3)
            if kind == 0:
                t = tuple(rng.randint(-3, 3) for _ in range(rs.rank))
            elif kind == 1:  # on a wall: orthogonal roots pair to 0
                t = tuple(rng.randint(-3, 3) * c for c in rs.coroot_of(rng.choice(rs.positive_roots)))
            else:
                t = rng.choice(W).act_coroot(superregular_antidominant(rs, units=rng.randint(0, 2)))
            x = AffineElt(rng.choice(W), t)
            pairs = [rs.pair_root(t, a) for a in rs.positive_roots]
            negative = [any(c < 0 for c in x.w.act_root(a)) for a in rs.positive_roots]
            assert root_pairings(rs, t) == tuple(rs.pair_root(t, a) for a in rs.roots)
            assert length(x) == sum(abs(p + n) for p, n in zip(pairs, negative))
            simple = [(rs.pair_root(t, rs.simple_root(i)), any(c < 0 for c in x.w.act_root(rs.simple_root(i))))
                      for i in range(rs.rank)]
            assert is_grassmannian(x) == all(p < 0 or p == 0 and not neg for p, neg in simple)
            assert superregular_margin(x) == min(map(abs, pairs)) - (2 * rs.weyl_order + 2)
            v, lam = chamber_decompose(rs, t)
            assert v.act_coroot(lam) == t and rs.is_antidominant(lam)
            assert v.length() == sum(p > 0 for p in pairs)  # v is minimal
            seen["zero"] += 0 in pairs
            seen["mixed"] += min(pairs) < 0 < max(pairs)
            seen["margin"] += superregular_margin(x) >= 0
            seen["grassmannian" if is_grassmannian(x) else "not grassmannian"] += 1
    assert all(seen.values()), seen


def test_cover_rows_are_shared_across_depths():
    # the superregular cocovers of w t_{v lam} are read from one cached row
    # table per (w, v), by one reader cached per (w, t); lam only moves the
    # translations
    rng = random.Random(59)
    cases = set()
    for lbl in ["A3", "G2"]:
        rs = cartan.build(lbl)
        W = enumerate_weyl(rs)
        depths = [superregular_antidominant(rs, units=k) for k in (1, 3, 6)]
        elements = {}  # perm -> the row element, across chamber pairs
        for _ in range(8):
            w, v = rng.choice(W), rng.choice(W)
            finite_parts = []
            for lam in depths:
                x = AffineElt(w, v.act_coroot(lam))
                assert chamber_decompose(rs, x.t) == (v, lam)
                vv, wv, near, far = superregular_cocovers(rs, x.w, x.t)
                assert (vv, wv) == (v, w * v)
                assert superregular_cocovers(rs, x.w, x.t)[2] is near
                got = [AffineElt(yw, yt) for yw, yt, _d, _row in near + far]
                assert len(set(got)) == len(got)
                assert set(got) == {c.target for c in cocovers(x)}
                cases |= {row[4] for *_, row in near + far}
                finite_parts.append([yw for yw, *_ in near + far])
                assert [k for k in rs._cache if k[0] == "coverrows" and k[1:] == (w, v)] == [("coverrows", w, v)]
            # every depth reads the finite parts of the same row objects
            _wv, near_rows, far_rows = cover_rows(rs, w, v)
            shared = [id(row[2]) for row in near_rows + far_rows]
            assert all(list(map(id, parts)) == shared for parts in finite_parts)
            for row in near_rows + far_rows:
                assert elements.setdefault(row[2].perm, row[2]) is row[2]
    assert cases == {1, 2, 3, 4}


def test_affine_action_eq2():
    # w t_lam . (mu + n delta) = w mu + (n - <lam, mu>) delta
    rs = cartan.build("A2")
    rng = random.Random(12)
    W = enumerate_weyl(rs)
    for _ in range(30):
        x = AffineElt(rng.choice(W), tuple(rng.randint(-3, 3) for _ in range(2)))
        mu = rng.choice(rs.positive_roots)
        n = rng.randint(-2, 2)
        img = x.act(AffineRoot(mu, n))
        assert img.finite == x.w.act_root(mu)
        assert img.level == n - rs.pair(x.t, mu)
