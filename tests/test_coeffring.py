import random
from fractions import Fraction
from math import lcm

import pytest

from qaffine import cartan
from qaffine.coeffring import (
    Scalar,
    divide_raw,
    from_raw,
    packed_axpy,
    q_str,
    reduced_form,
    root_scalar,
    scalar_one,
    settle,
    weight_diff,
)
from qaffine.weyl import enumerate_weyl, reflection_of, simple_reflection, translation, weyl_identity


def a(i, r=2):
    return Scalar.var(i, r)


def test_scalar_arithmetic_basics():
    p = (a(0) + a(1)) * a(0)
    assert p == a(0) * a(0) + a(0) * a(1)
    assert str(p) == "a1^2 + a1*a2"
    q = a(0) * a(0) - a(1) * a(1)
    assert q.exact_divide_by_linear(a(0) - a(1)) == a(0) + a(1)
    with pytest.raises(ValueError):
        a(0).exact_divide_by_linear(a(1))
    with pytest.raises(ValueError):
        (a(0) * a(0)).exact_divide_by_linear(scalar_one(cartan.build("A2")))


def test_scalar_str_canonical():
    s = a(0) * a(0) * a(1) + Scalar.const(3, 2) * a(1)
    assert str(s) == "a1^2*a2 + 3*a2"
    assert str(Scalar.const(0, 2)) == "0"
    assert str(-a(0) + Scalar.const(2, 2)) == "-a1 + 2"
    assert q_str((2, 1)) == "q1^2*q2"
    assert q_str((0, -1)) == "q2^-1"


def test_ring_axioms_random():
    rng = random.Random(42)

    def rand_scalar():
        s = Scalar()
        for _ in range(rng.randint(0, 4)):
            e = (rng.randint(0, 2), rng.randint(0, 2))
            s = s + Scalar({e: rng.randint(-3, 3)})
        return s

    for _ in range(1000):
        x, y, z = rand_scalar(), rand_scalar(), rand_scalar()
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x


def test_divide_roundtrip_random():
    rng = random.Random(43)
    for _ in range(1000):
        lin = Scalar.linear((rng.randint(-2, 2), rng.randint(-2, 2)))
        if not lin:
            continue
        p = Scalar()
        for _ in range(rng.randint(0, 3)):
            e = (rng.randint(0, 2), rng.randint(0, 2))
            p = p + Scalar({e: rng.randint(-3, 3)})
        q = (p * lin).exact_divide_by_linear(lin)
        assert q == p


def test_weight_diff():
    rs1 = cartan.build("A1")
    assert weight_diff(rs1, (1,), weyl_identity(rs1)) == Scalar()
    assert weight_diff(rs1, (1,), simple_reflection(rs1, 0)) == Scalar.var(0, 1)

    rs = cartan.build("A2")
    assert weight_diff(rs, (1, 0), reflection_of(rs, rs.theta)) == a(0) + a(1)
    for w in enumerate_weyl(rs):
        d = weight_diff(rs, (1, 1), w)
        assert d.degree() <= 1


def test_weight_of_the_wrong_length_is_rejected_and_not_cached():
    rs = cartan.build("A2")
    s1 = simple_reflection(rs, 0)
    for mu in [(3,), (3, 0, 0), (1, 0, 7), ()]:
        with pytest.raises(ValueError, match="coordinates"):
            weight_diff(rs, mu, s1)
    assert not [k for k in rs._cache if k[0] == "weight-diff"]
    assert weight_diff(rs, (3, 0), s1) == 3 * a(0)


def test_group_algebra_helpers():
    rs = cartan.build("A2")
    lam = (-2, -3)  # regular
    one = scalar_one(rs).packed
    raw = {}
    for w in enumerate_weyl(rs):
        packed_axpy(raw, translation(rs, w.act_coroot(lam)), one, 1)
    assert len(settle(raw)) == 6  # free W-orbit for regular lam

    key = translation(rs, lam)
    packed_axpy(raw, key, one, -1)
    terms = from_raw(rs, settle(raw))
    assert len(terms) == 5 and key not in terms  # a zero sum is dropped
    assert all(c == 1 for c in terms.values())


def test_constant_scalar_equals_and_hashes_as_its_number():
    # equal values must hash equally, or a set or dict keeps both
    for n in (0, 3, -2, Fraction(1, 2), Fraction(4, 2)):
        s = Scalar.const(n, 2)
        assert s == n and hash(s) == hash(n)
        assert len({s, n}) == 1
    assert Scalar() == 0 and hash(Scalar()) == hash(0)
    assert hash(Scalar.const(Fraction(6, 3), 2)) == hash(Scalar.const(2, 3))
    assert a(0) != 0 and a(0) != Fraction(1) and Scalar.const(3, 2) != Fraction(1, 3)
    assert hash(a(0) + a(1)) == hash(a(1) + a(0))


def test_docstring_examples():
    import doctest

    from qaffine import coeffring

    results = doctest.testmod(coeffring)
    assert results.failed == 0 and results.attempted > 0


def test_eval_zero_and_positivity():
    s = a(0) * a(1) + Scalar.const(5, 2)
    assert s.eval_zero() == 5
    assert s.is_nonneg_integral()
    assert not (s - a(0)).is_nonneg_integral()
    assert root_scalar(cartan.build("A2"), (1, 1)) == a(0) + a(1)


def test_integer_form_round_trip():
    rng = random.Random(11)
    for _ in range(50):
        raw = {}
        for k in range(rng.randint(1, 3)):
            t = {e: Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6])) for e in range(rng.randint(1, 3))}
            if any(t.values()):
                raw[k] = {e: c for e, c in t.items() if c}
        scale = 12 * rng.choice([1, 2, 5])
        den, num = reduced_form(scale, {k: {e: int(c * scale) for e, c in t.items()} for k, t in raw.items()})
        # den is the lcm of the coefficient denominators, numerators are ints
        assert den == lcm(*(c.denominator for t in raw.values() for c in t.values()))
        assert all(type(c) is int for t in num.values() for c in t.values())
        back = divide_raw(num, den)
        assert back == raw
        # integral quotients come back as ints, the others as Fractions
        assert all(type(back[k][e]) is (int if c.denominator == 1 else Fraction)
                   for k, t in raw.items() for e, c in t.items())
    assert divide_raw({0: {0: 4, 1: 3}}, 2) == {0: {0: 2, 1: Fraction(3, 2)}}
    assert type(divide_raw({0: {0: Fraction(4, 3)}}, 4)[0][0]) is Fraction
    assert type(divide_raw({0: {0: Fraction(8, 2)}}, 4)[0][0]) is int
    assert reduced_form(4, {0: {0: 2, 1: 6}}) == (2, {0: {0: 1, 1: 3}})
    num = {0: {0: 3}}
    assert divide_raw(num, 1) is num and reduced_form(5, num) == (5, num)
