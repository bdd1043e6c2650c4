import hashlib
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import combo_axpy, mutant, to_int_coeffs
from qaffine import cartan, quantum
from qaffine.coeffring import Scalar, from_raw, packed_axpy, scalar_one, settle
from qaffine.quantum import (
    QSchubertPoly,
    chevalley,
    chevalley_weight,
    evaluate_poly,
    gw_coefficient,
    product,
    product_basis,
    qh_basis,
    schubert_poly,
)
from qaffine.weyl import enumerate_weyl, from_word, longest_element, simple_reflection, weyl_identity


def s(rs, i):
    return simple_reflection(rs, i)


def specialize(rs, sigma, mode):
    """Evaluation maps: "q1" sets q = 1, "a0" sets alpha = 0, "both" does both."""
    if mode == "q1":
        out: dict = {}
        for (w, q), c in sigma.items():
            packed_axpy(out, w, c.packed, 1)
        return from_raw(rs, settle(out))
    if mode == "a0":
        return {k: c.eval_zero() for k, c in sigma.items() if c.eval_zero()}
    if mode == "both":
        out = {}
        for (w, q), c in sigma.items():
            z = c.eval_zero()
            if z:
                out[w] = out.get(w, 0) + z
        return {k: v for k, v in out.items() if v}
    raise ValueError(f"unknown specialization {mode!r}")


def integer_poly(w, terms):
    """The QSchubertPoly of terms (qshift, word) -> Scalar, over the lcm of
    its coefficient denominators."""
    den = lcm(*(c.denominator for a in terms.values() for c in a.packed.values()))
    num = {k: {e: int(c * den) for e, c in a.packed.items()} for k, a in terms.items()}
    return QSchubertPoly(w, num, den)


def test_chevalley_identity_class():
    for lbl in ["A2", "B2"]:
        rs = cartan.build(lbl)
        for i in range(rs.rank):
            assert chevalley(rs, i, qh_basis(rs, weyl_identity(rs))) == qh_basis(rs, s(rs, i))


def test_chevalley_a1():
    rs = cartan.build("A1")
    got = chevalley(rs, 0, qh_basis(rs, s(rs, 0)))
    assert got == {
        (s(rs, 0), (0,)): Scalar.var(0, 1),
        (weyl_identity(rs), (1,)): scalar_one(rs),
    }


def test_chevalley_a2_s1_by_omega2():
    rs = cartan.build("A2")
    got = chevalley(rs, 1, qh_basis(rs, s(rs, 0)))
    s1s2 = s(rs, 0) * s(rs, 1)
    s2s1 = s(rs, 1) * s(rs, 0)
    assert got == {(s1s2, (0, 0)): scalar_one(rs), (s2s1, (0, 0)): scalar_one(rs)}


def test_chevalley_weight():
    rs = cartan.build("A2")
    sig = qh_basis(rs, s(rs, 0))
    assert chevalley_weight(rs, (1, 0), sig) == chevalley(rs, 0, sig)
    assert chevalley_weight(rs, (0, 0), sig) == {}
    for mu in [(1,), (0, 0, 1)]:
        with pytest.raises(ValueError, match="coordinates"):
            chevalley_weight(rs, mu, sig)
    rng = random.Random(3)
    for _ in range(5):
        mu = (rng.randint(-2, 2), rng.randint(-2, 2))
        nu = (rng.randint(-2, 2), rng.randint(-2, 2))
        both = chevalley_weight(rs, tuple(a + b for a, b in zip(mu, nu)), sig)
        parts = chevalley_weight(rs, mu, sig)
        for k, c in chevalley_weight(rs, nu, sig).items():
            cur = parts.get(k, Scalar())
            tot = cur + c
            if tot:
                parts[k] = tot
            elif k in parts:
                del parts[k]
        assert both == parts


def test_chevalley_matches_qbg_edges():
    # divisor multiplication uses exactly the quantum Bruhat graph edges at w
    from qaffine.qbruhat import build_qbg

    rs = cartan.build("B2")
    g = build_qbg(rs)
    for w in g.vertices:
        img = {}
        for i in range(rs.rank):
            for (v, q), c in chevalley(rs, i, qh_basis(rs, w)).items():
                if v != w:
                    img[(v, any(q))] = True
        edges = {(e.target, e.kind == "quantum") for e in g.out_edges(w)}
        assert set(img) == edges


def test_schubert_poly_simple():
    rs = cartan.build("A2")
    e = weyl_identity(rs)
    p = schubert_poly(rs, e)
    assert p.terms == {((0, 0), ()): scalar_one(rs)}
    for i in range(2):
        p = schubert_poly(rs, s(rs, i))
        assert p.terms == {((0, 0), (i,)): scalar_one(rs)}


def test_schubert_poly_roundtrip():
    for lbl in ["A1", "A2", "B2"]:
        rs = cartan.build(lbl)
        for w in enumerate_weyl(rs):
            poly = schubert_poly(rs, w)
            assert evaluate_poly(rs, poly) == qh_basis(rs, w)


def test_schubert_poly_roundtrip_a3_spot():
    rs = cartan.build("A3")
    rng = random.Random(5)
    W = enumerate_weyl(rs)
    for w in [longest_element(rs)] + rng.sample(W, 6):
        poly = schubert_poly(rs, w)
        assert evaluate_poly(rs, poly) == qh_basis(rs, w)


def test_schubert_poly_roundtrip_rank3_low_length():
    # round-trip holds through length 6 in the rank-3 non-simply-laced types
    for lbl in ["B3", "C3"]:
        rs = cartan.build(lbl)
        for w in enumerate_weyl(rs):
            if w.length() <= 6:
                poly = schubert_poly(rs, w)
                assert evaluate_poly(rs, poly) == qh_basis(rs, w)


POLY_DIGESTS = {
    "A2": "e8f45a4b8f1598e6",
    "B2": "5c0eeabb7ca45c45",
    "G2": "06ed37c34482ebf4",
    "A3": "986a0a7dc33a76fe",
    "B3": "44ee1fb66efc4895",
    "C3": "2d331ea56d8d9780",
    "D4": "61087c3b93a728ca",
}


def poly_digest(label: str) -> str:
    """sha256 over every Weyl element w, by length and then reduced word, of
    its certified Schubert polynomial: w, the denominator and the sorted
    integer numerators."""
    rs = cartan.build(label)
    h = hashlib.sha256()
    for w in sorted(enumerate_weyl(rs), key=lambda w: (w.length(), w.word())):
        p = schubert_poly(rs, w)
        num = sorted((k, sorted(t.items())) for k, t in p.num.items())
        h.update(f"{w.word()}|{p.den}|{num};".encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_schubert_polynomials_match_their_pinned_digest(label):
    # every polynomial of the table, pinned; CI checks D4's 192 the same way
    assert poly_digest(label) == POLY_DIGESTS[label]


PRODUCT_DIGESTS = {
    "A2": "57ad9339d77cc85e",
    "B2": "af070399032539cc",
    "G2": "50bc914f34459028",
    "A3": "2abbed4855b36498",
    "B3": "e0440f55e93d6847",
    "C3": "a3cfa40ff2e04cd9",
}


def product_digest(label: str) -> str:
    """sha256 over every ordered pair (u, v) of Weyl elements, each by length
    and then reduced word, of product_basis(u, v): its terms sorted by (w,
    q-exponent), each with its sorted packed coefficients."""
    rs = cartan.build(label)
    W = sorted(enumerate_weyl(rs), key=lambda w: (w.length(), w.word()))
    h = hashlib.sha256()
    for u in W:
        for v in W:
            terms = sorted((w.word(), q, sorted(c.packed.items())) for (w, q), c in product_basis(rs, u, v).items())
            h.update(f"{u.word()}|{v.word()}|{terms};".encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_product_table_matches_its_pinned_digest(label):
    # every ordered pair, pinned; CI checks B3's and C3's the same way
    assert product_digest(label) == PRODUCT_DIGESTS[label]


def test_product_identity():
    rs = cartan.build("A2")
    for v in enumerate_weyl(rs):
        assert product_basis(rs, weyl_identity(rs), v) == qh_basis(rs, v)


def test_product_a1():
    rs = cartan.build("A1")
    got = product_basis(rs, s(rs, 0), s(rs, 0))
    assert got == {
        (s(rs, 0), (0,)): Scalar.var(0, 1),
        (weyl_identity(rs), (1,)): scalar_one(rs),
    }
    assert gw_coefficient(rs, s(rs, 0), s(rs, 0), weyl_identity(rs), (1,)) == scalar_one(rs)
    assert gw_coefficient(rs, s(rs, 0), s(rs, 0), s(rs, 0), (0,)) == Scalar.var(0, 1)


def test_commutativity_exhaustive():
    # product_basis runs one evaluation for both orders, so compare the two
    # evaluation orders directly
    for lbl in ["A1", "A2", "B2"]:
        rs = cartan.build(lbl)
        W = enumerate_weyl(rs)
        for u in W:
            for v in W:
                uv = evaluate_poly(rs, schubert_poly(rs, u), qh_basis(rs, v))
                assert uv == evaluate_poly(rs, schubert_poly(rs, v), qh_basis(rs, u))
                assert product_basis(rs, u, v) == product_basis(rs, v, u) == uv


@pytest.mark.parametrize("lbl,maxlen", [("A3", None), ("G2", None), ("B3", 3), ("C3", 3)])
def test_both_evaluation_orders_agree_with_product_basis(lbl, maxlen):
    rs = cartan.build(lbl)
    W = [w for w in enumerate_weyl(rs) if maxlen is None or w.length() <= maxlen]
    polys = {w: schubert_poly(rs, w) for w in W}
    for u in W:
        for v in W:
            uv = evaluate_poly(rs, polys[u], qh_basis(rs, v))
            assert uv == evaluate_poly(rs, polys[v], qh_basis(rs, u)), (lbl, u, v)
            assert product_basis(rs, u, v) == uv, (lbl, u, v)


def test_product_basis_evaluates_the_smaller_polynomial(monkeypatch):
    rs = cartan.build("A3")
    w0, s1 = longest_element(rs), s(rs, 0)
    small, big = schubert_poly(rs, s1), schubert_poly(rs, w0)
    assert len(small.num) < len(big.num)
    prefixes = {word[:k] for (_q, word) in small.num for k in range(1, len(word) + 1)}
    expected = evaluate_poly(rs, big, qh_basis(rs, s1))
    calls = []
    real = quantum.chevalley_into

    def counting(rs, i, raw, out):
        calls.append(i)
        return real(rs, i, raw, out)

    monkeypatch.setattr(quantum, "chevalley_into", counting)
    first = product_basis(rs, w0, s1)
    assert len(calls) == len(prefixes) == 1
    assert first == expected
    # both orders name the same evaluation, so the second reads the cached one
    calls.clear()
    assert product_basis(rs, s1, w0) is first
    assert not calls


# evaluations in an all-pairs sweep: one per unordered pair, plus one more
# for each tie pair, whose two orders name different evaluations (equal
# lengths and a tie in terms)
SWEEP_EVALUATIONS = {"A2": (22, 1), "B2": (37, 1), "G2": (79, 1), "A3": (307, 7)}


def _assert_product_cache(lbl, product_basis, monkeypatch):
    """Every ordered pair of ``lbl`` through ``product_basis``, with every
    polynomial certified first: each result is the cached evaluation that
    the rule of ``quantum.product_basis`` names for that ordered pair, each
    named evaluation runs once, and both of a tie pair's evaluations run."""
    count, ties = SWEEP_EVALUATIONS[lbl]
    rs = cartan.build(lbl)
    W = sorted(enumerate_weyl(rs), key=lambda w: (w.length(), w.word()))
    polys = {w: schubert_poly(rs, w) for w in W}

    def named(u, v):
        # the shorter factor's polynomial (u's on equal lengths), or the
        # other's where it has fewer terms, applied to the other class
        short, other = (v, u) if v.length() < u.length() else (u, v)
        return (other, short) if len(polys[other].num) < len(polys[short].num) else (short, other)

    ran = []
    real = quantum.evaluate_poly

    def recording(rs, poly, start=None):
        (v, _q), = start
        ran.append((poly.w, v))
        return real(rs, poly, start)

    monkeypatch.setattr(quantum, "evaluate_poly", recording)
    rule = {}
    for u in W:
        for v in W:
            got = product_basis(rs, u, v)
            owner, start = rule[(u, v)] = named(u, v)
            assert got == real(rs, polys[owner], qh_basis(rs, start)), (lbl, u, v)
            assert got is rs._cache.get(("qhprod", owner, start)), (lbl, u, v)
    assert len(ran) == len(set(ran)) == count
    assert set(ran) == set(rule.values())
    tie_pairs = [(u, v) for (u, v), e in rule.items() if e != rule[(v, u)]]
    assert len(tie_pairs) == 2 * ties
    assert all(rule[p] in ran for p in tie_pairs)


@pytest.mark.parametrize("lbl", sorted(SWEEP_EVALUATIONS))
def test_product_cache_holds_the_evaluation_each_order_names(lbl, monkeypatch):
    _assert_product_cache(lbl, quantum.product_basis, monkeypatch)


def test_a_product_cache_keyed_by_the_unordered_pair_fails_the_invariant(monkeypatch):
    # planted fault: a cache in front keyed by {u, v} hands the second order
    # of a tie pair the first order's evaluation
    keyed = mutant(quantum.product_basis, "return _evaluated_product(rs, owner, start)",
                   "return rs._cache[k] if (k := ('pair', frozenset((u, v)))) in rs._cache"
                   " else rs._cache.setdefault(k, _evaluated_product(rs, owner, start))")
    for lbl in SWEEP_EVALUATIONS:
        with pytest.raises(AssertionError):
            _assert_product_cache(lbl, keyed, monkeypatch)
        monkeypatch.undo()


def test_product_basis_extracts_only_the_shorter_polynomial():
    # a product with w0 builds the table no further than its short factor
    rs = cartan.build("B3")
    w0, s1 = longest_element(rs), s(rs, 0)
    for u, v in [(s1, w0), (w0, s1)]:
        got = product_basis(rs, u, v)
        assert quantum._poly_table(rs).built == 1
        assert got == evaluate_poly(rs, schubert_poly(rs, s1), qh_basis(rs, w0))
    gw_coefficient(rs, w0, s1, w0, (0, 0, 0))
    assert quantum._poly_table(rs).built == 1


def test_product_basis_reads_a_longer_polynomial_once_certified(monkeypatch):
    rs = cartan.build("A3")
    short, long_ = from_word(rs, (0, 1, 2, 1)), from_word(rs, (0, 1, 2, 1, 0))
    seen = []
    real = quantum.evaluate_poly

    def recording(rs, poly, start=None):
        if start is not None:
            seen.append(poly.w)
        return real(rs, poly, start)

    monkeypatch.setattr(quantum, "evaluate_poly", recording)
    # the longer polynomial has fewer terms, but is not read before it is certified
    cold = product_basis(rs, long_, short)
    assert seen == [short] and quantum._poly_table(rs).built == 4
    assert len(schubert_poly(rs, long_).num) < len(schubert_poly(rs, short).num)
    seen.clear()
    assert product_basis(rs, short, long_) == cold
    assert seen == [long_]


def test_planted_wrong_coefficient_fails_the_round_trip():
    rs = cartan.build("B3")
    table = quantum._poly_table(rs)
    table.extend(rs, 4)
    w = next(w for w in table.by_len[4] if table.polys[w].den > 1)
    poly = table.polys[w]
    key, t = next(iter(poly.num.items()))
    e = next(iter(t))
    poly.num[key] = {**t, e: t[e] + 1}
    with pytest.raises(AssertionError, match="round-trip failed"):
        schubert_poly(rs, w)
    # the untouched polynomials of the same layer still certify
    for u in table.by_len[4]:
        if u != w:
            assert evaluate_poly(rs, schubert_poly(rs, u)) == qh_basis(rs, u)


@pytest.mark.parametrize("lbl", ["B2", "G2", "B3", "C3"])
def test_an_elimination_without_its_exact_division_fails_the_round_trip(lbl, monkeypatch):
    # planted fault in the one elimination: rows scaled by the pivot and never
    # divided back leave the pivot entries at different multiples of d, so
    # the layer's solutions read over d are wrong.  (A2 and A3 cannot show
    # it: they pivot only on +-1.)
    rs = cartan.build(lbl)
    monkeypatch.setattr(cartan, "_eliminate", mutant(cartan._eliminate, "// d", "// 1"))
    with pytest.raises(AssertionError, match="Schubert polynomial round-trip failed"):
        for w in sorted(enumerate_weyl(rs), key=lambda w: w.length()):
            schubert_poly(rs, w)


def test_product_basis_refuses_a_non_integral_product():
    # a planted denominator 2 on A2's sigma^{s1} makes the product with
    # sigma^{s2} carry halves, which the one integrality pass refuses
    rs = cartan.build("A2")
    s1, s2 = simple_reflection(rs, 0), simple_reflection(rs, 1)
    poly = schubert_poly(rs, s1)
    rs._cache[("qschub", s1)] = QSchubertPoly(s1, poly.num, 2)
    with pytest.raises(ValueError, match="non-integral coefficient 1/2"):
        product_basis(rs, s1, s2)


def test_divisor_associativity():
    # chevalley(i, chevalley(j, .)) = chevalley(j, chevalley(i, .))
    for lbl in ["A2", "B2"]:
        rs = cartan.build(lbl)
        for w in enumerate_weyl(rs):
            sig = qh_basis(rs, w)
            for i in range(rs.rank):
                for j in range(rs.rank):
                    assert chevalley(rs, i, chevalley(rs, j, sig)) == chevalley(rs, j, chevalley(rs, i, sig))


def test_degree_homogeneity():
    for lbl in ["A2", "B2"]:
        rs = cartan.build(lbl)
        W = enumerate_weyl(rs)
        for u in W:
            for v in W:
                for (w, q), c in product_basis(rs, u, v).items():
                    d = u.length() + v.length() - w.length() - rs.pair(q, rs.two_rho)
                    assert d >= 0
                    assert c.is_homogeneous(d)


def test_nonequivariant_nonnegativity():
    for lbl in ["A2", "B2"]:
        rs = cartan.build(lbl)
        W = enumerate_weyl(rs)
        for u in W:
            for v in W:
                for val in specialize(rs, product_basis(rs, u, v), "a0").values():
                    assert isinstance(val, int) and val >= 0


def test_specialize():
    rs = cartan.build("A1")
    prod = product_basis(rs, s(rs, 0), s(rs, 0))
    a0 = specialize(rs, prod, "a0")
    assert a0 == {(weyl_identity(rs), (1,)): 1}
    q1 = specialize(rs, prod, "q1")
    assert q1 == {s(rs, 0): Scalar.var(0, 1), weyl_identity(rs): scalar_one(rs)}
    both = specialize(rs, prod, "both")
    assert both == {weyl_identity(rs): 1}
    # idempotence of repeated evaluation
    assert {k: v.eval_zero() for k, v in q1.items() if v.eval_zero()} == both


def test_general_product_bilinear():
    rs = cartan.build("A2")
    a = qh_basis(rs, s(rs, 0))
    b = qh_basis(rs, s(rs, 1), (1, 0))
    ab = product(rs, a, b)
    expect = {}
    for (w, q), c in product_basis(rs, s(rs, 0), s(rs, 1)).items():
        combo_axpy(expect, (w, (q[0] + 1, q[1])), c)
    assert ab == expect


def _reference_evaluate(rs, terms, start):
    # one Chevalley chain per term (qshift, word) -> Scalar, from start, with
    # no sharing between terms
    out = {}
    for (q, word), c in terms.items():
        cur = start
        for i in word:
            cur = chevalley(rs, i, cur)
        for (v, qv), t in cur.items():
            combo_axpy(out, (v, tuple(x + y for x, y in zip(qv, q))), t * c)
    return out


def test_product_and_evaluate_match_per_term_reference():
    for lbl, maxlen in [("A2", None), ("B2", None), ("G2", None), ("B3", 3)]:
        rs = cartan.build(lbl)
        W = [w for w in enumerate_weyl(rs) if maxlen is None or w.length() <= maxlen]
        for u in W:
            poly = schubert_poly(rs, u)
            ref = _reference_evaluate(rs, poly.terms, qh_basis(rs, weyl_identity(rs)))
            assert evaluate_poly(rs, poly) == ref == qh_basis(rs, u)
            for v in W:
                ref = _reference_evaluate(rs, poly.terms, qh_basis(rs, v))
                assert evaluate_poly(rs, poly, qh_basis(rs, v)) == ref
                got = product_basis(rs, u, v)
                assert got == {k: to_int_coeffs(c) for k, c in ref.items()}
                assert all(type(x) is int for c in got.values() for x in c.terms.values())


def test_evaluate_poly_one_chevalley_call_per_prefix(monkeypatch):
    calls = []
    real = quantum.chevalley_into

    def counting(rs, i, raw, out):
        calls.append(i)
        return real(rs, i, raw, out)

    monkeypatch.setattr(quantum, "chevalley_into", counting)
    for lbl in ["A3", "B3", "G2"]:
        rs = cartan.build(lbl)
        for w in [longest_element(rs)] + random.Random(3).sample(enumerate_weyl(rs), 4):
            poly = schubert_poly(rs, w)
            prefixes = {word[:k] for (_q, word) in poly.terms for k in range(1, len(word) + 1)}
            calls.clear()
            assert evaluate_poly(rs, poly) == qh_basis(rs, w)
            assert len(calls) == len(prefixes)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["A2", "B2", "G2", "A3"]), st.data())
def test_evaluate_poly_matches_per_term_reference_on_synthetic_polys(label, data):
    # Horner over the trie against one chain per term: arbitrary words (sorted
    # or not), q-shifts and coefficients, on a start class of several keys
    rs = cartan.build(label)
    r = rs.rank
    words = st.lists(st.integers(0, r - 1), max_size=4).flatmap(
        lambda w: st.sampled_from([tuple(w), tuple(sorted(w))]))
    shifts = st.tuples(*[st.integers(0, 2)] * r)
    coeffs = st.one_of(
        st.integers(-3, 3).filter(bool).map(lambda n: Scalar.const(n, r)),
        st.fractions(-3, 3, max_denominator=6).filter(bool).map(lambda x: Scalar.const(x, r)),
        st.lists(st.integers(-2, 2), min_size=r, max_size=r).filter(any).map(Scalar.linear),
    )
    terms = data.draw(st.dictionaries(st.tuples(shifts, words), coeffs, min_size=1, max_size=6))
    keys = data.draw(st.lists(st.tuples(st.sampled_from(enumerate_weyl(rs)), st.tuples(*[st.integers(0, 1)] * r)),
                              min_size=2, max_size=3, unique=True))
    start = {k: data.draw(coeffs) for k in keys}
    poly = integer_poly(weyl_identity(rs), terms)
    assert poly.terms == terms
    assert evaluate_poly(rs, poly, start) == _reference_evaluate(rs, terms, start)


def test_integral_poly_coefficients_stored_as_int():
    rs = cartan.build("B3")
    rational = 0
    for w in enumerate_weyl(rs):
        poly = schubert_poly(rs, w)
        # integer numerators over the lcm of the coefficient denominators
        assert all(type(x) is int for t in poly.num.values() for x in t.values())
        dens = [x.denominator for c in poly.terms.values() for x in c.terms.values()]
        assert poly.den == lcm(*dens)
        for c in poly.terms.values():
            for x in c.terms.values():
                assert type(x) is int or (type(x) is Fraction and x.denominator != 1)
                rational += type(x) is Fraction
    # B3 needs honestly rational coefficients, so the division at the root stays in use
    assert rational > 0


def test_certificates_survive_python_O(run_python):
    # explicit raises, so python -O cannot strip them
    code = "\n".join([
        "import sys",
        "from qaffine import cartan, quantum",
        "from qaffine.parabolic import build_parabolic",
        "from qaffine.weyl import simple_reflection",
        "pd = build_parabolic(cartan.build('A3'), [1, 2])",
        "real = quantum.longest_of",
        "quantum.longest_of = lambda rs, nodes: real(rs, nodes) * simple_reflection(rs, 0)",
        "try:",
        "    quantum.pw_lift(pd, (-1,))",
        "except AssertionError as e:",
        "    print(sys.flags.optimize, e)",
    ])
    out = run_python("-O", "-c", code).stdout
    assert out.strip() == "1 component representatives disagree with w_P w_{P'}"
