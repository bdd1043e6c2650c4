import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import combo_axpy
from qaffine import cartan, quantum
from qaffine.coeffring import Scalar, scalar_one
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
    specialize,
)
from qaffine.weyl import enumerate_weyl, longest_element, simple_reflection, weyl_identity


def s(rs, i):
    return simple_reflection(rs, i)


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
    for lbl in ["A1", "A2", "B2"]:
        rs = cartan.build(lbl)
        W = enumerate_weyl(rs)
        for u in W:
            for v in W:
                assert product_basis(rs, u, v) == product_basis(rs, v, u)


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


def _reference_evaluate(rs, poly, start):
    # one Chevalley chain per term, from start, with no sharing between terms
    out = {}
    for (q, word), c in poly.terms.items():
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
            ref = _reference_evaluate(rs, poly, qh_basis(rs, weyl_identity(rs)))
            assert evaluate_poly(rs, poly) == ref == qh_basis(rs, u)
            for v in W:
                ref = _reference_evaluate(rs, poly, qh_basis(rs, v))
                assert evaluate_poly(rs, poly, qh_basis(rs, v)) == ref
                got = product_basis(rs, u, v)
                assert got == {k: c.to_int_coeffs() for k, c in ref.items()}
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
    poly = QSchubertPoly(weyl_identity(rs), terms)
    assert evaluate_poly(rs, poly, start) == _reference_evaluate(rs, poly, start)


def test_integral_poly_coefficients_stored_as_int():
    rs = cartan.build("B3")
    rational = 0
    for w in enumerate_weyl(rs):
        for c in schubert_poly(rs, w).terms.values():
            for x in c.terms.values():
                assert type(x) is int or (type(x) is Fraction and x.denominator != 1)
                rational += type(x) is Fraction
    # B3 needs honestly rational coefficients, so the Fraction path stays in use
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
