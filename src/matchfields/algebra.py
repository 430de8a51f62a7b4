"""Exact arithmetic for monomials and polynomials in x_1..x_n, y_1..y_n, z_1..z_n.

Coefficients are arbitrary-precision rationals (fractions.Fraction) and all
comparisons are integer comparisons; there is no floating point anywhere.

The monomial order used throughout the package is a weight order completed to
a total order: weights are compared first (maximum weight wins), ties are
broken by total degree, and remaining ties by a graded-reverse-lex comparison
along an explicit variable precedence list.  With strictly positive weights
this is a monomial order (1 is smallest and comparison is multiplication
invariant), and two monomials compare equal only when they are identical.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple

from .errors import (
    InvalidColumnsError,
    NotDivisibleError,
    ZeroPolynomialError,
)

__all__ = [
    "FAMILIES",
    "Monomial",
    "Polynomial",
    "VariableId",
    "WeightOrder",
    "leading_monomial",
    "leading_term",
    "minor_expand",
    "xvar",
    "yvar",
    "zvar",
]

FAMILIES = ("x", "y", "z")

LESS = -1
EQUAL = 0
GREATER = 1


class VariableId(NamedTuple):
    """One variable, identified by row family ("x", "y" or "z") and column index."""

    family: str
    index: int

    def __str__(self) -> str:
        return f"{self.family}{self.index}"


def xvar(i: int) -> VariableId:
    return VariableId("x", i)


def yvar(i: int) -> VariableId:
    return VariableId("y", i)


def zvar(i: int) -> VariableId:
    return VariableId("z", i)


def _check_variable(v: VariableId, n: int) -> None:
    if v.family not in FAMILIES:
        raise ValueError(f"unknown variable family {v.family!r}")
    if type(v.index) is not int or not 1 <= v.index <= n:
        raise ValueError(f"variable index {v.index} outside [1, {n}]")


def _check_n(n: int) -> None:
    if type(n) is not int or n < 1:
        raise ValueError(f"ambient n must be an int >= 1, got {n!r}")


def _exact(c: Fraction | int) -> Fraction:
    """c as a Fraction; only an int (not a bool) or a Fraction is exact."""
    if type(c) is not int and type(c) is not Fraction:
        raise ValueError(f"coefficient must be an int or a Fraction, got {c!r}")
    return Fraction(c)


class Monomial:
    """Immutable sparse monomial over the 3n variables of a fixed ambient n."""

    __slots__ = ("n", "_exps", "_key", "_degree", "_hash")

    def __init__(self, n: int, exponents: Mapping[VariableId, int] | None = None):
        _check_n(n)
        exps: dict[VariableId, int] = {}
        if exponents:
            for v, e in exponents.items():
                if not isinstance(v, VariableId):
                    v = VariableId(*v)
                _check_variable(v, n)
                if type(e) is not int or e < 0:
                    raise ValueError(f"exponent of {v} must be a nonnegative integer, got {e!r}")
                if e:
                    exps[v] = e
        self.n = n
        self._exps = exps
        self._key = tuple(sorted(exps.items()))
        self._degree = sum(exps.values())
        self._hash = hash((n, self._key))

    @classmethod
    def one(cls, n: int) -> "Monomial":
        return cls(n)

    @classmethod
    def of(cls, n: int, *variables: VariableId) -> "Monomial":
        """Product of the given variables, with multiplicity."""
        exps: dict[VariableId, int] = {}
        for v in variables:
            exps[v] = exps.get(v, 0) + 1
        return cls(n, exps)

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def is_one(self) -> bool:
        return not self._exps

    def exponent(self, v: VariableId) -> int:
        return self._exps.get(v, 0)

    def variables(self) -> tuple[VariableId, ...]:
        return tuple(v for v, _ in self._key)

    def items(self) -> tuple[tuple[VariableId, int], ...]:
        return self._key

    def __mul__(self, other: "Monomial") -> "Monomial":
        self._check_ring(other)
        exps = dict(self._exps)
        for v, e in other._exps.items():
            exps[v] = exps.get(v, 0) + e
        return Monomial(self.n, exps)

    def pow(self, e: int) -> "Monomial":
        if e < 0:
            raise ValueError("negative power")
        return Monomial(self.n, {v: k * e for v, k in self._exps.items()})

    def divides(self, other: "Monomial") -> bool:
        self._check_ring(other)
        oe = other._exps
        return all(e <= oe.get(v, 0) for v, e in self._exps.items())

    def exact_div(self, other: "Monomial") -> "Monomial":
        """self / other; raises NotDivisibleError if other does not divide self."""
        self._check_ring(other)
        exps = dict(self._exps)
        for v, e in other._exps.items():
            r = exps.get(v, 0) - e
            if r < 0:
                raise NotDivisibleError(f"{other} does not divide {self}")
            if r:
                exps[v] = r
            else:
                exps.pop(v, None)
        return Monomial(self.n, exps)

    def gcd(self, other: "Monomial") -> "Monomial":
        self._check_ring(other)
        oe = other._exps
        return Monomial(
            self.n,
            {v: min(e, oe[v]) for v, e in self._exps.items() if v in oe},
        )

    def lcm(self, other: "Monomial") -> "Monomial":
        self._check_ring(other)
        exps = dict(self._exps)
        for v, e in other._exps.items():
            if e > exps.get(v, 0):
                exps[v] = e
        return Monomial(self.n, exps)

    def coprime(self, other: "Monomial") -> bool:
        self._check_ring(other)
        oe = other._exps
        return all(v not in oe for v in self._exps)

    def _check_ring(self, other: "Monomial") -> None:
        if self.n != other.n:
            raise ValueError("monomials live over different ambient n")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Monomial)
            and self.n == other.n
            and self._key == other._key
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self._key:
            return "1"
        parts = []
        for v, e in self._key:
            parts.append(str(v) if e == 1 else f"{v}^{e}")
        return "*".join(parts)


class Polynomial:
    """Immutable polynomial: a finite rational combination of monomials."""

    __slots__ = ("n", "_terms", "_hash")

    def __init__(self, n: int, terms: Mapping[Monomial, Fraction] | None = None):
        _check_n(n)
        tt: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                if m.n != n:
                    raise ValueError("term monomial over a different ambient n")
                c = _exact(c)
                if c:
                    tt[m] = c
        self.n = n
        self._terms = tt
        self._hash = hash((n, frozenset(tt.items())))

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n)

    @classmethod
    def from_terms(
        cls, n: int, pairs: Iterable[tuple[Fraction | int, Monomial]]
    ) -> "Polynomial":
        acc: dict[Monomial, Fraction] = {}
        for c, m in pairs:
            acc[m] = acc.get(m, Fraction(0)) + _exact(c)
        return cls(n, acc)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def num_terms(self) -> int:
        return len(self._terms)

    def terms(self) -> list[tuple[Fraction, Monomial]]:
        """Terms as (coefficient, monomial) pairs in a stable display order."""
        return [(c, m) for m, c in sorted(self._terms.items(), key=lambda t: t[0]._key)]

    def monomials(self) -> set[Monomial]:
        return set(self._terms)

    def coefficient(self, m: Monomial) -> Fraction:
        return self._terms.get(m, Fraction(0))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        acc = dict(self._terms)
        for m, c in other._terms.items():
            acc[m] = acc.get(m, Fraction(0)) + c
        return Polynomial(self.n, acc)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        acc = dict(self._terms)
        for m, c in other._terms.items():
            acc[m] = acc.get(m, Fraction(0)) - c
        return Polynomial(self.n, acc)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.n, {m: -c for m, c in self._terms.items()})

    def term_mul(self, coeff: Fraction | int, mono: Monomial) -> "Polynomial":
        """self * (coeff * mono)."""
        coeff = _exact(coeff)
        if not coeff:
            return Polynomial.zero(self.n)
        return Polynomial(
            self.n, {m * mono: c * coeff for m, c in self._terms.items()}
        )

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_ring(other)
        acc: dict[Monomial, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = m1 * m2
                acc[m] = acc.get(m, Fraction(0)) + c1 * c2
        return Polynomial(self.n, acc)

    def _check_ring(self, other: "Polynomial") -> None:
        if self.n != other.n:
            raise ValueError("polynomials live over different ambient n")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.n == other.n
            and self._terms == other._terms
        )

    def __hash__(self) -> int:
        return self._hash

    def __iter__(self) -> Iterator[tuple[Fraction, Monomial]]:
        return iter(self.terms())

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for c, m in self.terms():
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            body = repr(m) if mag == 1 and not m.is_one else (
                f"{mag}" if m.is_one else f"{mag}*{m!r}"
            )
            parts.append(f"{sign} {body}")
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]


class WeightOrder:
    """Total monomial order: weight, then total degree, then graded reverse-lex.

    `precedence` lists every variable of the ring from greatest to least.  In
    the reverse-lex step the least variable where two monomials differ decides,
    and the monomial with the smaller exponent there is the greater one.
    """

    __slots__ = ("n", "weights", "precedence", "_rev")

    def __init__(
        self,
        n: int,
        weights: Mapping[VariableId, int],
        precedence: Iterable[VariableId],
    ):
        prec = tuple(precedence)
        for v in prec:
            _check_variable(v, n)
        if len(set(prec)) != len(prec) or len(prec) != 3 * n:
            raise ValueError("precedence must list each of the 3n variables once")
        ww = dict(weights)
        if set(ww) != set(prec):
            raise ValueError("weights must cover exactly the precedence variables")
        for v, w in ww.items():
            if type(w) is not int or w < 1:
                raise ValueError(f"weight of {v} must be a positive integer, got {w!r}")
        self.n = n
        self.weights = ww
        self.precedence = prec
        self._rev = tuple(reversed(prec))

    def weight(self, m: Monomial) -> int:
        if m.n != self.n:
            raise ValueError("monomial over a different ambient n")
        w = self.weights
        return sum(w[v] * e for v, e in m.items())

    def key(self, m: Monomial) -> tuple:
        """Sort key: m1 precedes m2 in the order iff key(m1) < key(m2)."""
        exp = m.exponent
        return (self.weight(m), m.degree, tuple(-exp(v) for v in self._rev))

    def compare(self, a: Monomial, b: Monomial) -> int:
        ka, kb = self.key(a), self.key(b)
        if ka < kb:
            return LESS
        if ka > kb:
            return GREATER
        return EQUAL

    def max_monomial(self, monomials: Iterable[Monomial]) -> Monomial:
        return max(monomials, key=self.key)


def leading_term(order: WeightOrder, f: Polynomial) -> tuple[Fraction, Monomial]:
    """Greatest term of f under the order; raises ZeroPolynomialError on 0."""
    if f.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no leading term")
    m = order.max_monomial(f.monomials())
    return f.coefficient(m), m


def leading_monomial(order: WeightOrder, f: Polynomial) -> Monomial:
    return leading_term(order, f)[1]


# Arrangements (a, b, c) of sorted columns (i, j, k), with permutation signs.
_ARRANGEMENTS = (
    ((0, 1, 2), 1),
    ((0, 2, 1), -1),
    ((1, 0, 2), -1),
    ((1, 2, 0), 1),
    ((2, 0, 1), 1),
    ((2, 1, 0), -1),
)


def minor_expand(n: int, columns: Iterable[int]) -> Polynomial:
    """The 3x3 minor on the given columns of the generic matrix (x | y | z).

    Rows are the x, y, z families; the result is the signed sum of the six
    products x_a * y_b * z_c over arrangements (a, b, c) of the columns.
    """
    cols = tuple(columns)
    if any(type(c) is not int or not 1 <= c <= n for c in cols):
        raise InvalidColumnsError(f"columns {cols} outside [1, {n}]")
    if len(cols) != 3 or len(set(cols)) != 3:
        raise InvalidColumnsError(f"need three distinct columns, got {cols}")
    srt = tuple(sorted(cols))
    pairs = []
    for perm, sign in _ARRANGEMENTS:
        m = Monomial.of(n, xvar(srt[perm[0]]), yvar(srt[perm[1]]), zvar(srt[perm[2]]))
        pairs.append((sign, m))
    return Polynomial.from_terms(n, pairs)
