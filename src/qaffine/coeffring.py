"""Exact coefficient arithmetic.

``Scalar`` is a sparse polynomial in the simple-root variables a1..ar with
integer coefficients, or Fractions where a coefficient is honestly rational:
eliminations run over Q, and the quantum Schubert polynomials of B3, C3, G2
and D4 have non-integral coefficients.  A polynomial is stored once in integer
form, integer numerators over one positive denominator (``reduced_form``),
so both routes multiply on ints and divide once at the end
(``divide_raw``).  Structure constants and j-classes are integral, and
``require_integral`` checks that the denominator divided every coefficient
exactly.

Monomials are packed exponent vectors (Monagan and Pearce, CASC 2007): the
exponent of a_{i+1} sits in the ``FIELD``-bit field at bit ``FIELD * i`` of
one int, whose top bit is a guard bit.  Exponents are at most ``MAX_EXP``,
there are at most ``MAX_RANK`` variables, and a monomial product is one
integer addition.  Two guard-free fields add without a carry into the next
field, so a product overflowed iff a guard bit of the sum is set; every
product is certified by that test, with an explicit raise that python -O
keeps.  This module is the only place where the layout is read;
``to_raw``/``from_raw`` are the one bridge between dicts ``key -> Scalar``
and raw classes, and ``Scalar.packed`` hands out one Scalar's dict.

``q_lambda`` monomials are bare coroot-coordinate tuples.  Every S-linear
combination (quantum, group-algebra, nilHecke, homology and parabolic
classes) is a plain dict ``key -> Scalar`` with no zero values stored, and is
built one way: a raw class ``key -> {monomial: coefficient}`` accumulates
with ``packed_addmul`` and ``packed_axpy`` and ends with one
``from_raw(rs, settle(raw))``, which drops zeros and certifies the guard
bits; where the keys are provably distinct the dict is built directly.
"""

from fractions import Fraction
from functools import reduce
from math import gcd
from operator import or_
from types import MappingProxyType

from .cartan import RootSystem, WeightVec, cached
from .weyl import WeylElt

FIELD = 16
MAX_EXP = (1 << (FIELD - 1)) - 1
MAX_RANK = 8
_MASK = (1 << FIELD) - 1
_GUARD = sum(1 << (FIELD * i + FIELD - 1) for i in range(MAX_RANK))


def _pack(e) -> int:
    """The packed monomial of an exponent tuple."""
    if len(e) > MAX_RANK:
        raise ValueError(f"at most {MAX_RANK} variables, got {len(e)}")
    m = 0
    for i, x in enumerate(e):
        if not 0 <= x <= MAX_EXP:
            raise ValueError(f"exponent {x} outside 0..{MAX_EXP}")
        m |= x << (FIELD * i)
    return m


def _unpack(m: int, rank: int) -> tuple[int, ...]:
    """The exponent tuple of a packed monomial in ``rank`` variables."""
    return tuple((m >> (FIELD * i)) & _MASK for i in range(rank))


def _total_degree(m: int) -> int:
    d = 0
    while m:
        d += m & _MASK
        m >>= FIELD
    return d


def _certify_fields(monomials) -> None:
    if reduce(or_, monomials, 0) & _GUARD:
        raise OverflowError(f"an exponent exceeds {MAX_EXP}, the limit of a {FIELD}-bit field")


class Scalar:
    """Sparse polynomial in a1..ar as a dict packed monomial -> coefficient.

    The monomial a^e packs to sum e_i << 16 i: one 16-bit field per
    variable whose top bit is a guard, so 0 <= e_i <= MAX_EXP = 32767 and
    r <= 8.  A product adds packed ints and raises OverflowError if a guard
    bit of any sum is set.  The rank is kept beside the dict (0 for a zero
    built without one) and only read to unpack: ``terms`` is a read-only
    view keyed by exponent tuples, and the constructor takes such a dict.

    >>> a1, a2 = Scalar.var(0, 2), Scalar.var(1, 2)
    >>> print((a1 + a2) * a1)
    a1^2 + a1*a2
    >>> print((a1 * a1 - a2 * a2).exact_divide_by_linear(a1 - a2))
    a1 + a2
    >>> (a1 * a2).degree(), (a1 * a2).eval_zero()
    (2, 0)
    >>> dict((a1 * a2 - Scalar.const(3, 2)).terms)
    {(1, 1): 1, (0, 0): -3}
    """

    __slots__ = ("_t", "_r")

    def __init__(self, terms=None):
        t = {}
        r = 0
        for e, c in (terms or {}).items():
            if r and len(e) != r:
                raise ValueError("exponent tuples of different lengths")
            r = len(e)
            if c:
                t[_pack(e)] = c
        self._t = t
        self._r = r

    @classmethod
    def _make(cls, t: dict, rank: int) -> "Scalar":
        """A Scalar on a packed dict with no zero coefficients (not copied)."""
        s = object.__new__(cls)
        s._t = t
        s._r = rank
        return s

    @classmethod
    def const(cls, c, rank: int) -> "Scalar":
        return cls._make({0: c} if c else {}, rank)

    @classmethod
    def var(cls, i: int, rank: int) -> "Scalar":
        return cls({tuple(int(j == i) for j in range(rank)): 1})

    @classmethod
    def linear(cls, coeffs) -> "Scalar":
        """Linear form sum coeffs[i] * a_{i+1}."""
        r = len(coeffs)
        return cls({tuple(int(j == i) for j in range(r)): c for i, c in enumerate(coeffs)})

    @property
    def packed(self) -> dict:
        """The packed dict itself, not a copy: read it, never write it."""
        return self._t

    @property
    def terms(self):
        """Read-only view: exponent tuple -> coefficient."""
        r = self._r
        return MappingProxyType({_unpack(e, r): c for e, c in self._t.items()})

    def __bool__(self):
        return bool(self._t)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self._t == other._t
        if isinstance(other, (int, Fraction)):
            return self._t == ({0: other} if other else {})
        return False

    def __hash__(self):
        # a constant equals its number, so it hashes as that number
        t = self._t
        if not t.keys() - {0}:
            return hash(t.get(0, 0))
        return hash(frozenset(t.items()))

    def __add__(self, other):
        out = dict(self._t)
        for e, c in other._t.items():
            n = out.get(e, 0) + c
            if n:
                out[e] = n
            else:
                del out[e]
        return Scalar._make(out, self._r or other._r)

    def __neg__(self):
        return Scalar._make({e: -c for e, c in self._t.items()}, self._r)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Scalar._make({}, self._r)
            return Scalar._make({e: c * other for e, c in self._t.items()}, self._r)
        acc: dict = {}
        _addmul_into(acc, self._t, other._t)
        _certify_fields(acc)
        return Scalar._make({e: c for e, c in acc.items() if c}, self._r or other._r)

    __rmul__ = __mul__

    def degree(self) -> int:
        return max(map(_total_degree, self._t), default=-1)

    def is_homogeneous(self, d: int) -> bool:
        return all(_total_degree(e) == d for e in self._t)

    def eval_zero(self):
        """The evaluation at a_i = 0 (the constant term)."""
        return self._t.get(0, 0)

    def is_nonneg_integral(self) -> bool:
        return all(isinstance(c, int) and c >= 0 or (isinstance(c, Fraction) and c.denominator == 1 and c >= 0)
                   for c in self._t.values())

    def with_int_coeffs(self) -> "Scalar":
        """The same polynomial with every integral coefficient stored as an int."""
        if all(type(c) is int for c in self._t.values()):
            return self
        return Scalar._make({e: int(c) if isinstance(c, Fraction) and c.denominator == 1 else c
                             for e, c in self._t.items()}, self._r)

    def exact_divide_by_linear(self, lin: "Scalar") -> "Scalar":
        """Quotient self / lin for a nonzero linear form lin; exact or raises."""
        if not lin or lin.degree() != 1 or not lin.is_homogeneous(1):
            raise ValueError("divisor must be a nonzero homogeneous linear form")
        unit = min(lin._t)  # the lowest variable of lin, the pivot
        shift = unit.bit_length() - 1
        pivc = lin._t[unit]
        rem = {e: Fraction(c) for e, c in self._t.items()}
        quo: dict = {}
        # divide leading terms in a monomial order that ranks the pivot first
        while rem:
            e = max(rem, key=lambda m: (m >> shift & _MASK, m))
            c = rem[e]
            if not e >> shift & _MASK:
                raise ValueError("nonzero remainder in exact division")
            qe = e - unit
            qc = c / pivc
            quo[qe] = quo.get(qe, 0) + qc
            for le, lc in lin._t.items():
                te = qe + le
                _certify_fields((te,))
                n = rem.get(te, 0) - qc * lc
                if n:
                    rem[te] = n
                else:
                    rem.pop(te, None)
        return Scalar._make({e: c for e, c in quo.items() if c}, self._r or lin._r).with_int_coeffs()

    def __str__(self):
        terms = self.terms
        if not terms:
            return "0"
        def mono(e, c):
            parts = []
            for i, p in enumerate(e):
                if p == 1:
                    parts.append(f"a{i + 1}")
                elif p:
                    parts.append(f"a{i + 1}^{p}")
            if not parts:
                return str(c)
            body = "*".join(parts)
            if c == 1:
                return body
            if c == -1:
                return f"-{body}"
            return f"{c}*{body}"
        keys = sorted(terms, key=lambda e: (-sum(e), tuple(-x for x in e)))
        out = mono(keys[0], terms[keys[0]])
        for e in keys[1:]:
            c = terms[e]
            t = mono(e, abs(c) if isinstance(c, (int, Fraction)) and c < 0 else c)
            if isinstance(c, (int, Fraction)) and c < 0:
                out += f" - {t}"
            else:
                out += f" + {t}"
        return out

    __repr__ = __str__


def scalar_one(rs: RootSystem) -> Scalar:
    return Scalar.const(1, rs.rank)


def root_scalar(rs: RootSystem, v) -> Scalar:
    """A root-lattice vector (alpha-basis coordinates) as a linear Scalar."""
    return Scalar.linear(tuple(v))


def weight_diff(rs: RootSystem, mu: WeightVec, w: WeylElt) -> Scalar:
    """mu - w.mu as a Scalar (the difference always lies in Q)."""
    if len(mu) != rs.rank:
        raise ValueError(f"weight {tuple(mu)} has {len(mu)} coordinates, expected {rs.rank} for {rs.label}")
    return _weight_diff(rs, tuple(mu), w)


@cached("weight-diff")
def _weight_diff(rs: RootSystem, mu: WeightVec, w: WeylElt) -> Scalar:
    # shared, as the Bruhat operators read one diagonal per (mu, w v) many
    # times; mu is a tuple here, so a list weight is accepted by the caller
    wmu = w.act_weight(mu)
    d = tuple(a - b for a, b in zip(mu, wmu))
    return root_scalar(rs, rs.root_lattice_check(d))


@cached("omega-diff")
def omega_diff(rs: RootSystem, i: int, w: WeylElt) -> Scalar:
    """omega_i - w.omega_i: the diagonal of the Chevalley operator at w and of
    the commutator [omega_i, A_x] at x = w t_lam (translations act trivially)."""
    return weight_diff(rs, rs.fundamental_weight(i), w)


def q_str(qexp) -> str:
    parts = []
    for i, p in enumerate(qexp):
        if p == 1:
            parts.append(f"q{i + 1}")
        elif p:
            parts.append(f"q{i + 1}^{p}")
    return "*".join(parts)


# -- raw classes: key -> packed dict -----------------------------------------
# Accumulators may hold zero coefficients; ``settle`` drops them once and
# certifies the bit fields.  Input dicts are only read, never aliased.

def to_raw(combo: dict) -> dict:
    """The raw class of a dict key -> Scalar (its packed dicts, shared)."""
    return {k: c._t for k, c in combo.items()}


def from_raw(rs: RootSystem, raw: dict) -> dict:
    """key -> Scalar on a settled raw class, taking its dicts over."""
    return {k: Scalar._make(t, rs.rank) for k, t in raw.items()}


def _addmul_into(acc: dict, t: dict, d: dict) -> None:
    get = acc.get
    for ed, cd in d.items():
        for e, c in t.items():
            m = e + ed
            acc[m] = get(m, 0) + c * cd


def packed_addmul(out: dict, key, t: dict, d: dict) -> None:
    """out[key] += t * d, on packed dicts."""
    acc = out.get(key)
    if acc is None:
        if len(d) == 1:
            ((ed, cd),) = d.items()
            out[key] = {e + ed: c * cd for e, c in t.items()}
            return
        acc = out[key] = {}
    _addmul_into(acc, t, d)


def packed_axpy(out: dict, key, t: dict, k) -> None:
    """out[key] += k * t for a number k, on packed dicts."""
    acc = out.get(key)
    if acc is None:
        out[key] = {e: c * k for e, c in t.items()}
        return
    get = acc.get
    for e, c in t.items():
        acc[e] = get(e, 0) + c * k


def settle(raw: dict) -> dict:
    """The raw class without zero coefficients or empty entries, its bit
    fields certified."""
    _certify_fields(e for acc in raw.values() for e in acc)
    out = {}
    for key, acc in raw.items():
        t = {e: c for e, c in acc.items() if c}
        if t:
            out[key] = t
    return out


# -- integer form: integer numerators over one positive denominator ----------

def reduced_form(den: int, num: dict) -> tuple[int, dict]:
    """The integer form of the raw class num / den (int numerators, den > 0):
    both divided by the gcd of den and every numerator."""
    g = gcd(den, *(c for t in num.values() for c in t.values()))
    if g == 1:
        return den, num
    return den // g, {k: {e: c // g for e, c in t.items()} for k, t in num.items()}


def require_integral(dicts) -> None:
    """Raises ValueError at the first coefficient of the packed dicts that is
    not an int, as ``divide_raw`` leaves every integral quotient an int."""
    bad = next((c for t in dicts for c in t.values() if type(c) is not int), None)
    if bad is not None:
        raise ValueError(f"non-integral coefficient {bad}")


def divide_raw(raw: dict, den: int) -> dict:
    """The raw class raw / den for a positive int den, each integral quotient
    an int and any other a Fraction.  den == 1 returns raw itself."""
    if den == 1:
        return raw
    out = {}
    for k, t in raw.items():
        u = out[k] = {}
        for e, c in t.items():
            if type(c) is int:
                q, r = divmod(c, den)
                if not r:
                    u[e] = q
                    continue
            x = Fraction(c, den)
            u[e] = x.numerator if x.denominator == 1 else x
    return out
