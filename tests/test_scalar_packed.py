"""Differential test: the packed-monomial Scalar against a tuple-keyed model.

The reference model below lives only here.  It keys every monomial by its
exponent tuple, multiplies monomials by adding tuples, and formats, divides
and compares from that dict alone; it reads nothing from ``Scalar`` but the
``terms`` view of a result.  Exponents run up to the field limit, so the
overflow certificate is exercised on the way.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaffine.coeffring import MAX_EXP, MAX_RANK, Scalar

# mostly small exponents, so monomials collide and cancel, plus values whose
# pairwise sums land just below, on and just above the limit
EXPONENTS = st.one_of(
    st.integers(0, 3),
    st.sampled_from([MAX_EXP // 2, MAX_EXP // 2 + 1, MAX_EXP - 1, MAX_EXP]),
    st.integers(0, MAX_EXP),
)
COEFFS = st.one_of(
    st.integers(-5, 5),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.integers(-(10 ** 20), 10 ** 20),
)


class Ref:
    """Reference polynomial: exponent tuple -> nonzero coefficient."""

    def __init__(self, rank, terms):
        self.rank = rank
        self.t = {e: c for e, c in terms.items() if c}

    def add(self, other, sign=1):
        out = dict(self.t)
        for e, c in other.t.items():
            out[e] = out.get(e, 0) + sign * c
        return Ref(self.rank, out)

    def mul(self, other):
        out = {}
        for e1, c1 in self.t.items():
            for e2, c2 in other.t.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Ref(self.rank, out)

    def overflows(self, other):
        return any(a + b > MAX_EXP for e1 in self.t for e2 in other.t for a, b in zip(e1, e2))

    def scale(self, k):
        return Ref(self.rank, {e: c * k for e, c in self.t.items()})

    def degree(self):
        return max((sum(e) for e in self.t), default=-1)

    def eval_zero(self):
        return self.t.get((0,) * self.rank, 0)

    def __str__(self):
        if not self.t:
            return "0"

        def mono(e, c):
            body = "*".join(f"a{i + 1}" if p == 1 else f"a{i + 1}^{p}" for i, p in enumerate(e) if p)
            if not body:
                return str(c)
            return body if c == 1 else f"-{body}" if c == -1 else f"{c}*{body}"

        keys = sorted(self.t, key=lambda e: (-sum(e), tuple(-x for x in e)))
        out = mono(keys[0], self.t[keys[0]])
        for e in keys[1:]:
            c = self.t[e]
            out += f" - {mono(e, -c)}" if c < 0 else f" + {mono(e, c)}"
        return out


@st.composite
def ref_polys(draw, rank, max_terms=5):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        e = tuple(draw(EXPONENTS) for _ in range(rank))
        terms[e] = terms.get(e, 0) + draw(COEFFS)
    return Ref(rank, terms)


@st.composite
def pairs(draw):
    rank = draw(st.integers(1, MAX_RANK))
    return draw(ref_polys(rank)), draw(ref_polys(rank))


def scalar(ref):
    return Scalar(dict(ref.t)) if ref.t else Scalar.const(0, ref.rank)


def agrees(s, ref):
    return dict(s.terms) == ref.t and str(s) == str(ref)


@settings(max_examples=200, deadline=None)
@given(pairs())
def test_ring_operations_match_reference(pair):
    p, q = pair
    sp, sq = scalar(p), scalar(q)
    assert agrees(sp, p) and agrees(sq, q)
    assert agrees(sp + sq, p.add(q))
    assert agrees(sp - sq, p.add(q, -1))
    assert agrees(-sp, p.scale(-1))
    if p.overflows(q):
        with pytest.raises(OverflowError):
            sp * sq
    else:
        assert agrees(sp * sq, p.mul(q))
        assert (sp * sq == sq * sp) and hash(sp * sq) == hash(sq * sp)
    assert (sp == sq) == (p.t == q.t)
    assert (sp + sq - sq == sp) and hash(sp + sq - sq) == hash(sp)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, MAX_RANK).flatmap(ref_polys), COEFFS)
def test_number_operations_and_queries_match_reference(p, k):
    sp = scalar(p)
    assert agrees(sp * k, p.scale(k)) and agrees(k * sp, p.scale(k))
    rebuilt = Scalar(dict(reversed(list(p.t.items()))))
    assert rebuilt == sp and hash(rebuilt) == hash(sp)
    # == against an int holds exactly for that constant
    z = p.eval_zero()
    for n in {0, 1, -3, int(z)}:
        assert (sp == n) == (p.t == ({(0,) * p.rank: n} if n else {}))
    assert sp.degree() == p.degree()
    d = p.degree()
    assert sp.is_homogeneous(d) == all(sum(e) == d for e in p.t)
    assert sp.eval_zero() == p.eval_zero()
    ints = sp.with_int_coeffs().terms
    assert dict(ints) == p.t
    for e, c in ints.items():
        integral = isinstance(c, int) or c.denominator == 1
        assert type(c) is (int if integral else Fraction)
    with pytest.raises(TypeError):
        sp.terms[(0,) * p.rank] = 1


@settings(max_examples=100, deadline=None)
@given(st.integers(1, MAX_RANK).flatmap(lambda r: st.tuples(
    ref_polys(r, max_terms=4),
    st.lists(st.integers(-3, 3), min_size=r, max_size=r).filter(any),
    st.integers(1, 4))))
def test_exact_division_matches_reference(args):
    p, lin_coeffs, c = args
    rank = p.rank
    p = Ref(rank, {tuple(min(x, 8) for x in e): v for e, v in p.t.items()})  # no overflow here
    lin = Ref(rank, {tuple(int(j == i) for j in range(rank)): a for i, a in enumerate(lin_coeffs)})
    slin = Scalar.linear(tuple(lin_coeffs))
    assert dict(slin.terms) == lin.t
    quo = scalar(p.mul(lin)).exact_divide_by_linear(slin)
    assert agrees(quo, p)
    assert all(type(x) is int or x.denominator != 1 for x in quo.terms.values())
    # a nonzero constant is never a multiple of a linear form
    with pytest.raises(ValueError):
        scalar(p.mul(lin).add(Ref(rank, {(0,) * rank: c}))).exact_divide_by_linear(slin)


def test_field_limit_and_guard():
    top = Scalar({(MAX_EXP, 0): 1})
    a1, a2 = Scalar.var(0, 2), Scalar.var(1, 2)
    assert dict((Scalar({(MAX_EXP - 1, 0): 1}) * a1).terms) == {(MAX_EXP, 0): 1}
    assert dict((top * a2).terms) == {(MAX_EXP, 1): 1}
    with pytest.raises(OverflowError):
        top * a1
    with pytest.raises(OverflowError):
        top * (a1 + a2)
    # every field has its guard, the last of MAX_RANK included
    for i in range(MAX_RANK):
        e = tuple(MAX_EXP if j == i else 1 for j in range(MAX_RANK))
        with pytest.raises(OverflowError):
            Scalar({e: 1}) * Scalar.var(i, MAX_RANK)
    with pytest.raises(ValueError):
        Scalar({(MAX_EXP + 1, 0): 1})
    with pytest.raises(ValueError):
        Scalar({(-1, 0): 1})
    with pytest.raises(ValueError):
        Scalar({(0,) * (MAX_RANK + 1): 1})


def test_overflow_survives_python_O(run_python):
    # the guard test is an explicit raise, so python -O cannot strip it
    code = "\n".join([
        "import sys",
        "from qaffine.coeffring import MAX_EXP, Scalar",
        "try:",
        "    Scalar({(0, MAX_EXP, 2): 1}) * Scalar.var(1, 3)",
        "except OverflowError as e:",
        "    print(sys.flags.optimize, type(e).__name__)",
    ])
    out = run_python("-O", "-c", code).stdout
    assert out.strip() == "1 OverflowError"
