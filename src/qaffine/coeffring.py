"""Exact coefficient arithmetic.

``Scalar`` is a sparse polynomial in the simple-root variables a1..ar with
integer coefficients, or Fractions where a coefficient is honestly rational:
eliminations run over Q, and the quantum Schubert polynomials of B3, C3 and
G2 keep non-integral coefficients (``with_int_coeffs`` stores the integral
ones as ints).  Structure constants and j-classes are integral
(``to_int_coeffs`` checks this).
``q_lambda`` monomials are bare coroot-coordinate tuples.  Group-algebra /
module elements over S are plain dicts ``key -> Scalar`` with no zero values
stored; the ``combo_*`` helpers keep that invariant.
"""

from fractions import Fraction

from .cartan import RootSystem, WeightVec, cached
from .weyl import WeylElt


class Scalar:
    """Sparse multivariate polynomial: dict exponent-tuple -> coefficient.

    >>> a1, a2 = Scalar.var(0, 2), Scalar.var(1, 2)
    >>> print((a1 + a2) * a1)
    a1^2 + a1*a2
    >>> print((a1 * a1 - a2 * a2).exact_divide_by_linear(a1 - a2))
    a1 + a2
    >>> (a1 * a2).degree(), (a1 * a2).eval_zero()
    (2, 0)
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if terms:
            self.terms = {e: c for e, c in terms.items() if c}
        else:
            self.terms = {}

    @classmethod
    def const(cls, c, rank: int) -> "Scalar":
        s = cls()
        if c:
            s.terms[(0,) * rank] = c
        return s

    @classmethod
    def var(cls, i: int, rank: int) -> "Scalar":
        s = cls()
        s.terms[tuple(int(j == i) for j in range(rank))] = 1
        return s

    @classmethod
    def linear(cls, coeffs) -> "Scalar":
        """Linear form sum coeffs[i] * a_{i+1}."""
        r = len(coeffs)
        s = cls()
        for i, c in enumerate(coeffs):
            if c:
                s.terms[tuple(int(j == i) for j in range(r))] = c
        return s

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            if other == 0:
                return not self.terms
            return len(self.terms) == 1 and next(iter(self.terms.values())) == other and not any(
                next(iter(self.terms))
            )
        return isinstance(other, Scalar) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            n = out.get(e, 0) + c
            if n:
                out[e] = n
            else:
                out.pop(e, None)
        s = Scalar()
        s.terms = out
        return s

    def __neg__(self):
        s = Scalar()
        s.terms = {e: -c for e, c in self.terms.items()}
        return s

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Scalar()
            s = Scalar()
            s.terms = {e: c * other for e, c in self.terms.items()}
            return s
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                n = out.get(e, 0) + c1 * c2
                if n:
                    out[e] = n
                else:
                    out.pop(e, None)
        s = Scalar()
        s.terms = out
        return s

    __rmul__ = __mul__

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self, d: int) -> bool:
        return all(sum(e) == d for e in self.terms)

    def eval_zero(self):
        """The evaluation at a_i = 0 (the constant term)."""
        for e, c in self.terms.items():
            if not any(e):
                return c
        return 0

    def is_nonneg_integral(self) -> bool:
        return all(isinstance(c, int) and c >= 0 or (isinstance(c, Fraction) and c.denominator == 1 and c >= 0)
                   for c in self.terms.values())

    def with_int_coeffs(self) -> "Scalar":
        """The same polynomial with every integral coefficient stored as an int."""
        s = Scalar()
        s.terms = {e: int(c) if isinstance(c, Fraction) and c.denominator == 1 else c
                   for e, c in self.terms.items()}
        return s

    def to_int_coeffs(self) -> "Scalar":
        s = self.with_int_coeffs()
        for c in s.terms.values():
            if isinstance(c, Fraction):
                raise ValueError(f"non-integral coefficient {c}")
        return s

    def exact_divide_by_linear(self, lin: "Scalar") -> "Scalar":
        """Quotient self / lin for a nonzero linear form lin; exact or raises."""
        if not lin or lin.degree() != 1 or not lin.is_homogeneous(1):
            raise ValueError("divisor must be a nonzero homogeneous linear form")
        rank = len(next(iter(lin.terms)))
        piv = next(i for i in range(rank) if any(e[i] for e in lin.terms))
        pivc = lin.terms[tuple(int(j == piv) for j in range(rank))]
        rem = {e: Fraction(c) for e, c in self.terms.items()}
        quo: dict = {}
        # divide leading (in a lex order putting the pivot variable first)
        while rem:
            e = max(rem, key=lambda t: (t[piv], t))
            c = rem[e]
            if e[piv] == 0:
                raise ValueError("nonzero remainder in exact division")
            qe = tuple(x - int(i == piv) for i, x in enumerate(e))
            qc = c / pivc
            quo[qe] = quo.get(qe, 0) + qc
            for le, lc in lin.terms.items():
                te = tuple(a + b for a, b in zip(qe, le))
                n = rem.get(te, 0) - qc * lc
                if n:
                    rem[te] = n
                else:
                    rem.pop(te, None)
        return Scalar(quo).with_int_coeffs()

    def __str__(self):
        if not self.terms:
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
        keys = sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e)))
        out = mono(keys[0], self.terms[keys[0]])
        for e in keys[1:]:
            c = self.terms[e]
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


# -- sparse linear combinations over S --------------------------------------

def combo_axpy(dst: dict, key, s: Scalar) -> None:
    """dst[key] += s, dropping zeros."""
    if not s:
        return
    cur = dst.get(key)
    if cur is None:
        dst[key] = s
    else:
        n = cur + s
        if n:
            dst[key] = n
        else:
            del dst[key]


def combo_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, s in b.items():
        combo_axpy(out, k, s)
    return out


def combo_scale(a: dict, s) -> dict:
    if isinstance(s, (int, Fraction)):
        if not s:
            return {}
        return {k: v * s for k, v in a.items()}
    out = {}
    for k, v in a.items():
        combo_axpy(out, k, v * s)
    return out
