"""Differential test: the root-permutation WeylElt against a matrix model.

The reference model below lives only here.  It stores a finite Weyl group
element as its integer action matrices on the root lattice and on the coroot
lattice (columns = images of the simple roots / coroots), with their
inverses, and multiplies by matrix products; it reads nothing from
``WeylElt`` but the word an element was built from.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qaffine import cartan
from qaffine.weyl import enumerate_weyl, from_word

TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "F4", "G2"]


def _mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n))


def _mat_vec(m, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


class MatrixWeyl:
    """Reference element: (m, minv) on roots and (mc, mcinv) on coroots."""

    def __init__(self, m, minv, mc, mcinv):
        self.m, self.minv, self.mc, self.mcinv = m, minv, mc, mcinv

    def __mul__(self, other):
        return MatrixWeyl(_mat_mul(self.m, other.m), _mat_mul(other.minv, self.minv),
                          _mat_mul(self.mc, other.mc), _mat_mul(other.mcinv, self.mcinv))

    def inverse(self):
        return MatrixWeyl(self.minv, self.m, self.mcinv, self.mc)

    def act_root(self, v):
        return _mat_vec(self.m, v)

    def act_coroot(self, lam):
        return _mat_vec(self.mc, lam)

    def act_weight(self, mu):
        # (w mu)_i = <w^{-1} alpha_i^vee, mu>
        n = len(mu)
        return tuple(sum(self.mcinv[j][i] * mu[j] for j in range(n)) for i in range(n))

    def length(self, positive_roots):
        return sum(1 for a in positive_roots if not any(c > 0 for c in self.act_root(a)))


@lru_cache(maxsize=None)
def _system(label):
    rs = cartan.build(label)
    c, n = rs.cartan, rs.rank
    gens = []
    for i in range(n):
        # r_i alpha_j = alpha_j - c[i][j] alpha_i;  r_i alpha_j^vee = alpha_j^vee - c[j][i] alpha_i^vee
        m = tuple(tuple(int(k == j) - (c[i][j] if k == i else 0) for j in range(n)) for k in range(n))
        mc = tuple(tuple(int(k == j) - (c[j][i] if k == i else 0) for j in range(n)) for k in range(n))
        gens.append(MatrixWeyl(m, m, mc, mc))
    return rs, gens


def _ref_from_word(label, word):
    rs, gens = _system(label)
    e = _identity(rs.rank)
    x = MatrixWeyl(e, e, e, e)
    for i in word:
        x = x * gens[i]
    return x


def _simple_images(w):
    rs = w.rs
    return [w.act_root(rs.simple_root(j)) for j in range(rs.rank)]


def _matrix(w):
    """Rows of the matrix whose columns are the images of the simple roots."""
    return tuple(zip(*_simple_images(w)))


words = st.lists(st.integers(min_value=0, max_value=7), max_size=14)
vectors = st.lists(st.integers(min_value=-5, max_value=5), min_size=8, max_size=8)


def _word(label, raw):
    return tuple(i % _system(label)[0].rank for i in raw)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(TYPES), words, words, vectors)
def test_permutation_model_matches_matrix_model(label, raw_u, raw_v, raw_vec):
    rs, _ = _system(label)
    wu, wv = _word(label, raw_u), _word(label, raw_v)
    u, v = from_word(rs, wu), from_word(rs, wv)
    ru, rv = _ref_from_word(label, wu), _ref_from_word(label, wv)
    vec = tuple(raw_vec[: rs.rank])

    uv, ruv = u * v, ru * rv
    assert _matrix(uv) == ruv.m
    assert _matrix(u.inverse()) == ru.minv
    assert (u * u.inverse()).is_identity() and (u.inverse() * u).is_identity()
    assert u.length() == ru.length(rs.positive_roots)
    assert uv.length() == ruv.length(rs.positive_roots)
    for a in rs.positive_roots[:6] + (rs.theta, tuple(-c for c in rs.theta)):
        assert uv.act_root(a) == ruv.act_root(a)  # a root: a direct lookup
    assert uv.act_root(vec) == ruv.act_root(vec)  # any vector of the root lattice
    assert uv.act_coroot(vec) == ruv.act_coroot(vec)
    assert uv.act_coroot(rs.theta_vee) == ruv.act_coroot(rs.theta_vee)
    assert uv.inv_act_coroot(vec) == ruv.inverse().act_coroot(vec)
    assert uv.act_weight(vec) == ruv.act_weight(vec)
    assert u.inverse().act_weight(vec) == ru.inverse().act_weight(vec)


@pytest.mark.parametrize("label", TYPES)
def test_enumeration_order_matches_matrix_model(label):
    rs, gens = _system(label)
    e = _identity(rs.rank)
    start = MatrixWeyl(e, e, e, e)
    seen = {e: start}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y.m not in seen:
                    seen[y.m] = y
                    nxt.append(y)
        frontier = nxt
    want = sorted(seen.values(), key=lambda x: (x.length(rs.positive_roots), x.m))
    got = enumerate_weyl(rs)
    assert len(got) == rs.weyl_order == len(want)
    assert [_matrix(w) for w in got] == [x.m for x in want]
    assert [w.length() for w in got] == [x.length(rs.positive_roots) for x in want]
