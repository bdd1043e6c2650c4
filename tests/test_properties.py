"""Property tests: word round trips, the CLI parsers, and covers against Bruhat order."""

from hypothesis import given, settings
from hypothesis import strategies as st

from qaffine import cartan
from qaffine.cli import _parse_coroot, _parse_word
from qaffine.weyl import affine_from_word, bruhat_leq, cocovers, enumerate_weyl, from_word, length, reduced_word

TYPES = ["A1", "A2", "A3", "B2", "C2", "G2"]
SYSTEMS = {label: cartan.build(label) for label in TYPES}

types = st.sampled_from(TYPES)
letters = st.lists(st.integers(min_value=0, max_value=3), max_size=10)


def _affine(label, raw):
    """An affine element from raw letters, read modulo |I_af| = rank + 1."""
    rs = SYSTEMS[label]
    return affine_from_word(rs, tuple(i % (rs.rank + 1) for i in raw))


@settings(max_examples=60, deadline=None)
@given(types, st.data())
def test_finite_word_round_trip(label, data):
    rs = SYSTEMS[label]
    w = data.draw(st.sampled_from(enumerate_weyl(rs)))
    word = w.word()
    assert from_word(rs, word) == w
    assert len(word) == w.length()


@settings(max_examples=80, deadline=None)
@given(types, letters)
def test_affine_reduced_word_round_trip(label, raw):
    x = _affine(label, raw)
    word = reduced_word(x)
    assert affine_from_word(x.rs, word) == x
    assert len(word) == length(x)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=8), max_size=8), st.sampled_from(["s", "r", ""]),
       st.sampled_from([" ", ",", " , "]))
def test_parse_word_round_trip(word, prefix, sep):
    text = sep.join(f"{prefix}{i}" for i in word) or "id"
    assert _parse_word(text) == tuple(word)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-500, max_value=500), min_size=1, max_size=8))
def test_parse_coroot_round_trip(vec):
    text = ",".join(str(c) for c in vec)
    assert _parse_coroot(text) == tuple(vec)
    assert _parse_coroot(text, len(vec)) == tuple(vec)


@settings(max_examples=40, deadline=None)
@given(types, st.lists(st.integers(min_value=0, max_value=3), max_size=6))
def test_cocovers_lie_below(label, raw):
    x = _affine(label, raw)
    for c in cocovers(x):
        assert bruhat_leq(c.target, x)
        assert not bruhat_leq(x, c.target)
