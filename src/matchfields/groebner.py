"""Division, Buchberger checking, and the degeneration theorem verifier.

The main entry point is verify_theorem_main: for a block structure it checks,
by exact computation, that (1) every 3x3 minor has a unique maximum-weight
term and that term is the matching-field generator, (2) every S-pair of the
minors reduces to zero, and (3) the set of leading monomials equals the
matching ideal's generating set.  The three checks are reported separately.

Division runs on packed monomials (one int each, see _Packing) with int
coefficients wherever the basis allows; Monomial and Polynomial objects are
made only for the results and failure messages handed back to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from ._packed import Layout
from .algebra import (
    _ARRANGEMENTS,
    FAMILIES,
    Monomial,
    Polynomial,
    VariableId,
    WeightOrder,
)
from .errors import BudgetExceededError, TooLargeError, ZeroPolynomialError
from .linalg import homogeneous_feasible
from .matching import BlockStructure, generator_triples, weight_matrix

__all__ = [
    "GroebnerCheck",
    "GroebnerReport",
    "attainable_initial_supports",
    "is_groebner",
    "reduce",
    "s_polynomial",
    "verify_theorem_main",
    "weight_initial_form",
]


class _Packing(Layout):
    """Monomials of one WeightOrder packed into single ints.

    The Layout's fields run along the precedence, the least variable most
    significant, and then hold the degree and, on top, the weight.  A
    variable's field holds field - exponent, so `one` (every variable field
    full) packs 1 and packed ints compare as the order does (weight, degree,
    reverse-lex).  A product packs as the sum of its factors less one, and
    lead divides term when ((lead | guards) - (term & exp_mask)) & guards == guards.

    Every field must hold a value <= bound.  Callers pass a bound on the
    weight of every monomial they will form; as every weight is >= 1, it
    also bounds the degree and each exponent.
    """

    __slots__ = ("n", "bound", "deg_shift", "exp_mask", "one", "vectors")

    def __init__(self, order: WeightOrder, bound: int):
        super().__init__((*order.precedence, "degree", "weight"), bound)
        self.n = order.n
        self.bound = bound
        self.deg_shift = self.offset["degree"]
        self.exp_mask = (1 << self.deg_shift) - 1
        self.one = self.exp_mask & ~self.guards
        # Each variable packed, less one: 1 off its field, a degree of 1, its weight.
        degree, weight = 1 << self.deg_shift, 1 << self.offset["weight"]
        self.vectors = {
            v: degree + w * weight - (1 << self.offset[v]) for v, w in order.weights.items()
        }

    def pack(self, m: Monomial) -> int:
        p = self.one + sum(e * self.vectors[v] for v, e in m.items())
        if self.weight(p) > self.bound:
            raise OverflowError(f"{m!r} does not fit the packing bound {self.bound}")
        return p

    def terms(self, f: Polynomial) -> list[tuple[int, Fraction | int]]:
        """f's terms as (packed monomial, coefficient), integral ones as ints."""
        return [(self.pack(m), c.numerator if c.denominator == 1 else c) for c, m in f.terms()]

    def weight(self, p: int) -> int:
        """The weight of packed p: its top field, which bounds the others."""
        return p >> self.offset["weight"]

    def exponents(self, p: int) -> list[int]:
        """The exponents of packed p, in precedence order."""
        return [self.field - c for c in super().exponents(p)[:-2]]

    def support(self, p: int) -> int:
        """Bit i is set when the variable at precedence position i occurs.
        A field of 2 * one - (p & exp_mask) holds field + e, whose guard bit
        is set exactly when e >= 1; only those bits are walked."""
        occurs, out = (2 * self.one - (p & self.exp_mask)) & self.guards, 0
        while occurs:
            low = occurs & -occurs
            out |= 1 << (low.bit_length() - 1) // self.width
            occurs ^= low
        return out

    def lcm(self, a: int, b: int, common: int) -> int:
        """Packed lcm of packed a and b; common is the intersection of their
        supports."""
        field, width, vectors, variables = self.field, self.width, self.vectors, self.variables
        gcd = 0
        while common:
            low = common & -common
            i = low.bit_length() - 1
            e = field - max(a >> i * width & field, b >> i * width & field)
            gcd += e * vectors[variables[i]]
            common ^= low
        return a + b - self.one - gcd

    def polynomial(self, work: Mapping[int, Fraction | int]) -> Polynomial:
        """The Polynomial of {packed monomial: coefficient}."""
        return Polynomial(self.n, {self.monomial(p, self.n): c for p, c in work.items()})


def _max_weight(polys: Sequence[Polynomial], order: WeightOrder) -> int:
    return max(
        (order.weight(m) for f in polys for _, m in f.terms()), default=0
    )


class _Divider:
    """A basis packed for division, with one step budget for all its calls.

    Basis element i comes as its terms (packed monomial, coefficient), and
    the table keeps it by position i: rows[i] is (lm, 1/lc, tail), the tail
    being its other terms, greatest first; guarded[i] is lm with its guard
    bits set; supports[i] is the support of lm.  1/lc is an int when lc is
    +-1, so integral input stays in ints; otherwise it is a Fraction.  leads
    maps each distinct guarded lead to its first position, the row that a
    step by that lead subtracts.  A step is one subtract call; an S-polynomial, two.
    """

    __slots__ = ("packing", "rows", "guarded", "supports", "leads", "remaining")

    def __init__(self, basis: Iterable[list], packing: _Packing, budget: Optional[int]):
        if budget is not None and (type(budget) is not int or budget < 0):
            raise ValueError(f"budget must be None or a nonnegative integer, got {budget!r}")
        self.packing = packing
        self.rows = []
        for terms in basis:
            if not terms:
                raise ZeroPolynomialError("basis contains the zero polynomial")
            (lead, lc), *tail = sorted(terms, reverse=True)
            self.rows.append((lead, lc if lc in (1, -1) else 1 / Fraction(lc), tuple(tail)))
        self.guarded = [row[0] | packing.guards for row in self.rows]
        self.supports = [packing.support(row[0]) for row in self.rows]
        self.leads: dict[int, int] = {}
        for i, lg in enumerate(self.guarded):
            self.leads.setdefault(lg, i)
        self.remaining = budget

    def subtract(self, work: dict[int, Fraction | int], i: int, term: int, c: Fraction | int):
        """Cancel c * term by row i: work -= c * (term/lm_i) * f_i / lc_i but for
        c * term itself, which work lacks; entries that reach zero are deleted."""
        lead, inv, tail = self.rows[i]
        factor, cof = c * inv, term - lead
        for k, tc in tail:
            k += cof
            v = work.get(k, 0) - factor * tc
            if v:
                work[k] = v
            else:
                del work[k]

    def s_polynomial(self, i: int, j: int, lcm: int) -> dict[int, Fraction | int]:
        """(lcm/lt_i) * f_i - (lcm/lt_j) * f_j as {packed monomial: coefficient}."""
        work = {}
        self.subtract(work, i, lcm, -1)
        self.subtract(work, j, lcm, 1)
        return work

    def normal_form(self, work: dict[int, Fraction | int]) -> dict[int, Fraction | int]:
        """Full normal form of work (consumed) modulo the basis.

        Repeatedly cancels the greatest reducible term by the first basis
        element whose leading monomial divides it; terms reducible by none
        move to the remainder.
        """
        leads, subtract = self.leads, self.subtract
        guards, exp_mask = self.packing.guards, self.packing.exp_mask
        left = self.remaining
        remainder = {}
        while work:
            k = max(work)
            c = work.pop(k)
            t = k & exp_mask
            for lg in leads:
                if (lg - t) & guards == guards:
                    if left is not None:
                        left -= 1
                        if left < 0:
                            raise BudgetExceededError("division step budget exhausted")
                    subtract(work, leads[lg], k, c)
                    break
            else:
                remainder[k] = c
        self.remaining = left
        return remainder


def s_polynomial(f: Polynomial, g: Polynomial, order: WeightOrder) -> Polynomial:
    """S-polynomial (lcm/lt(f)) * f - (lcm/lt(g)) * g with exact coefficients."""
    # An lcm of two leading monomials weighs at most the sum of their weights.
    packing = _Packing(order, 2 * _max_weight([f, g], order))
    div = _Divider(map(packing.terms, (f, g)), packing, None)
    l = packing.lcm(div.rows[0][0], div.rows[1][0], div.supports[0] & div.supports[1])
    return packing.polynomial(div.s_polynomial(0, 1, l))


def reduce(
    f: Polynomial,
    basis: Sequence[Polynomial],
    order: WeightOrder,
    budget: Optional[int] = None,
) -> Polynomial:
    """Full normal form of f modulo the basis.

    Repeatedly cancels the greatest reducible term; terms reducible by no
    basis leading monomial move to the remainder.  Terminates because the
    order is a well-order; budget (number of cancellation steps) guards
    pathological custom inputs.
    """
    # Every term formed is <= lm(f), so no weight exceeds those of the input.
    packing = _Packing(order, _max_weight([f, *basis], order))
    div = _Divider(map(packing.terms, basis), packing, budget)
    return packing.polynomial(div.normal_form(dict(packing.terms(f))))


class GroebnerCheck(NamedTuple):
    """Outcome of a Buchberger pass over one basis."""

    ok: bool
    s_pairs_total: int
    s_pairs_reduced_to_zero: int
    witness: Optional[tuple[int, int, Polynomial]]


def is_groebner(
    basis: Sequence[Polynomial],
    order: WeightOrder,
    use_coprime_criterion: bool = True,
    budget: Optional[int] = None,
) -> GroebnerCheck:
    """Buchberger's criterion: do all S-pairs reduce to zero?

    Pairs are processed in the normal strategy (by lcm degree, then by the
    order on lcms).  With use_coprime_criterion, two pair criteria settle a
    pair without running the division, and it counts as reduced: its
    leading monomials are coprime (the product criterion), or a third
    leading monomial lm_k divides its lcm while the pairs (i, k) and (j, k)
    are already settled (the chain criterion, Cox-Little-O'Shea, Ideals,
    Varieties, and Algorithms, ch. 2 sec. 10).  Per-variable bitsets of the
    leads first drop the candidates lm_k with a variable outside supp(lcm);
    the exact divisibility test still runs on the rest, so the basis need
    not be squarefree.  A pair settles when it is skipped or reduces to
    zero, never when it leaves a residual.  Disable the option to force
    every reduction.  The budget caps the cancellation steps of the whole
    pass; a blown budget raises BudgetExceededError rather than returning
    False.
    """
    # An lcm of two leading monomials weighs at most the sum of their weights.
    packing = _Packing(order, 2 * _max_weight(basis, order))
    div = _Divider(map(packing.terms, basis), packing, budget)
    return _buchberger(div, use_coprime_criterion)


def _buchberger(div: _Divider, use_coprime_criterion: bool) -> GroebnerCheck:
    """The Buchberger pass of is_groebner over div's basis."""
    packing, rows, guarded, supports = div.packing, div.rows, div.guarded, div.supports
    s = len(rows)
    # Bit k of settled[i]: the pair (i, k) is settled.  Coprime pairs settle
    # up front, as the product criterion depends on no other pair.
    settled = [0] * s
    reduced = 0
    pairs = []
    for i, j in combinations(range(s), 2):
        common = supports[i] & supports[j]
        if use_coprime_criterion and not common:
            settled[i] |= 1 << j
            settled[j] |= 1 << i
            reduced += 1
        else:
            l = packing.lcm(rows[i][0], rows[j][0], common)
            pairs.append((l >> packing.deg_shift & packing.field, l, i, j))
    pairs.sort()

    guards, exp_mask = packing.guards, packing.exp_mask
    # has[v]: the leads that contain the variable at precedence position v.
    # A lead with a variable outside supp(lcm) cannot divide the lcm.
    has = [
        sum(1 << k for k, sup in enumerate(supports) if sup >> v & 1) for v in range(3 * packing.n)
    ]
    everywhere = (1 << len(has)) - 1
    witness = None
    for _, l, i, j in pairs:
        chain = settled[i] & settled[j] if use_coprime_criterion else 0
        outside = everywhere ^ (supports[i] | supports[j])
        while outside and chain:
            low = outside & -outside
            chain &= ~has[low.bit_length() - 1]
            outside ^= low
        t = l & exp_mask
        while chain:
            low = chain & -chain
            if (guarded[low.bit_length() - 1] - t) & guards == guards:
                break
            chain ^= low
        if not chain:
            residual = div.normal_form(div.s_polynomial(i, j, l))
            if residual:
                if witness is None:
                    witness = (i, j, packing.polynomial(residual))
                continue
        settled[i] |= 1 << j
        settled[j] |= 1 << i
        reduced += 1
    return GroebnerCheck(witness is None, s * (s - 1) // 2, reduced, witness)


@dataclass(frozen=True)
class GroebnerReport:
    """Verdict of the degeneration check for one (block structure, w0)."""

    per_minor_initial_ok: bool
    s_pairs_total: int
    s_pairs_reduced_to_zero: int
    initial_ideal_equals_matching_ideal: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return (
            self.per_minor_initial_ok
            and self.s_pairs_total == self.s_pairs_reduced_to_zero
            and self.initial_ideal_equals_matching_ideal
        )


def verify_theorem_main(
    a: BlockStructure,
    w0: int = 1,
    *,
    use_coprime_criterion: bool = True,
    budget: Optional[int] = None,
) -> GroebnerReport:
    """Machine-check the degeneration of the maximal-minor ideal.

    All three checks read the rows of one _Divider over the packed minors.
    The per-minor check uses weights alone (no tie-break may be consulted):
    the maximum-weight term of each minor must be unique and equal to the
    matching-field generator.  The Buchberger pass then runs under the full
    order, and finally the leading monomials are compared with the matching
    ideal as sets.
    """
    n = a.n
    triples = generator_triples(a)  # raises TooSmallError when n < 3
    order = weight_matrix(a, w0)
    # Minor terms are packed straight from their variables, past the overflow
    # test of _Packing.pack.  They fit: x_a * y_b * z_c weighs at most the
    # heaviest x, y and z together, and an lcm of two leading monomials at
    # most twice that; division forms no term above such an lcm.
    heaviest = [max(w for v, w in order.weights.items() if v.family == f) for f in FAMILIES]
    packing = _Packing(order, 2 * sum(heaviest))
    one = packing.one
    x, y, z = ([packing.vectors[VariableId(f, c)] for c in range(1, n + 1)] for f in FAMILIES)
    minors = (
        [(one + x[c[i]] + y[c[j]] + z[c[k]], sign) for (i, j, k), sign in _ARRANGEMENTS]
        for c in combinations(range(n), 3)
    )
    div = _Divider(minors, packing, budget)
    generators = [one + x[t.x - 1] + y[t.y - 1] + z[t.z - 1] for t in triples]
    weight, monomial = packing.weight, packing.monomial

    failures: list[str] = []
    per_minor = True
    for t, expected, (lead, _, tail) in zip(triples, generators, div.rows):
        top = weight(lead)
        # A row is sorted by the order, which compares weights first.
        if weight(tail[0][0]) == top:
            per_minor = False
            argmax = [lead] + [p for p, _ in tail if weight(p) == top]
            failures.append(
                f"minor {t.subset()}: maximum weight {top} attained by "
                f"{len(argmax)} terms: {sorted(repr(monomial(p, n)) for p in argmax)}"
            )
        elif lead != expected:
            per_minor = False
            failures.append(
                f"minor {t.subset()}: maximum-weight term {monomial(lead, n)!r} "
                f"is not the matching-field generator {monomial(expected, n)!r}"
            )

    check = _buchberger(div, use_coprime_criterion)
    if check.witness is not None:
        i, j, residual = check.witness
        failures.append(
            f"S-pair of minors #{i} and #{j} leaves the nonzero residual {residual!r}"
        )

    leads_match = {row[0] for row in div.rows} == set(generators)
    if not leads_match:
        failures.append("leading monomials of the minors differ from the ideal")
    equals = per_minor and check.ok and leads_match

    return GroebnerReport(
        per_minor_initial_ok=per_minor,
        s_pairs_total=check.s_pairs_total,
        s_pairs_reduced_to_zero=check.s_pairs_reduced_to_zero,
        initial_ideal_equals_matching_ideal=equals,
        failures=tuple(failures),
    )


def weight_initial_form(w: Mapping[VariableId, int], f: Polynomial) -> Polynomial:
    """Subpolynomial of the terms whose w-weight is maximal.

    Variables missing from w count as weight 0, so the zero weight vector
    returns f itself.
    """
    if f.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no initial form")
    weighted = [
        (sum(w.get(v, 0) * e for v, e in m.items()), c, m) for c, m in f.terms()
    ]
    top = max(wt for wt, _, _ in weighted)
    return Polynomial(f.n, {m: c for wt, c, m in weighted if wt == top})


def attainable_initial_supports(
    f: Polynomial, max_terms: int = 12
) -> set[frozenset[Monomial]]:
    """All term subsets of f realizable as a maximum-weight set.

    A subset S is attainable when some rational weight vector makes the
    terms of S tie strictly above every other term.  Homogenized, each term
    is one row (its exponents, -1), and S is attainable when some (w, t) puts
    the rows of S at 0 and every other row below 0: the terms of S weigh t
    and the rest less.  Each of the 2^m - 1 candidates is decided exactly by
    linalg.homogeneous_feasible, phase one of the simplex method on an
    integer tableau with Bland's rule.  max_terms is the only size guard; on
    a 2-vCPU host 10 terms take about 0.8 s and 12 terms about 4 s.
    """
    if type(max_terms) is not int or max_terms < 0:
        raise ValueError(f"max_terms must be a nonnegative integer, got {max_terms!r}")
    if f.is_zero:
        raise ZeroPolynomialError("the zero polynomial has no initial supports")
    monos = [m for _, m in f.terms()]
    m_count = len(monos)
    if m_count > max_terms:
        raise TooLargeError(f"{m_count} terms exceeds the limit of {max_terms}")
    variables = sorted({v for m in monos for v in m.variables()})
    rows = [(*(m.exponent(v) for v in variables), -1) for m in monos]

    out: set[frozenset[Monomial]] = set()
    for mask in range(1, 1 << m_count):
        eqs = [r for i, r in enumerate(rows) if mask >> i & 1]
        strict = [r for i, r in enumerate(rows) if not mask >> i & 1]
        if homogeneous_feasible(eqs, strict):
            out.add(frozenset(m for i, m in enumerate(monos) if mask >> i & 1))
    return out
