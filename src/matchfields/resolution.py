"""Minimal free resolution invariants of monomial ideals.

Two independent routes to Betti numbers live here and deliberately share no
code.  The certificate route checks the linear-quotient property along a
given generator ordering and reads the Betti numbers off the colon-set sizes
with a binomial-coefficient formula.  The oracle route computes multigraded
Betti numbers directly as ranks of reduced simplicial homology of upper
Koszul complexes, by exact integer elimination, one lcm-lattice element at a
time, and knows nothing about quotient orderings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Optional, Sequence

from .algebra import Monomial, VariableId, xvar, yvar, zvar
from .errors import NotLinearQuotientsError, TooLargeError
from .linalg import rational_rank
from .matching import GeneratorTriple, MonomialIdeal


@dataclass(frozen=True)
class BettiTable:
    """Total Betti numbers (beta_0, beta_1, ...) of a monomial ideal.

    Convention: these are Betti numbers of the ideal as a module, so beta_0
    is the number of minimal generators.  Trailing zero entries are trimmed.
    """

    values: tuple[int, ...]

    def __post_init__(self):
        vals = tuple(int(v) for v in self.values)
        if any(v < 0 for v in vals):
            raise ValueError("Betti numbers are nonnegative")
        if vals and vals[-1] == 0:
            raise ValueError("Betti table must be trimmed of trailing zeros")
        object.__setattr__(self, "values", vals)

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> int:
        return self.values[i] if i < len(self.values) else 0

    def __repr__(self) -> str:
        return f"BettiTable{self.values}"


def colon_by_monomial(prefix: Iterable[Monomial], m: Monomial) -> MonomialIdeal:
    """The colon ideal <prefix> : m, minimally generated.

    Generated by p / gcd(p, m) over the prefix members; minimalization drops
    redundant quotients.
    """
    quotients = [p.exact_div(p.gcd(m)) for p in prefix]
    return MonomialIdeal.from_monomials(quotients)


@dataclass(frozen=True)
class QuotientCertificate:
    """Linear-quotient certificate for an ordered generating sequence.

    sets[j] collects the variables generating <m_1..m_j> : m_{j+1}; when some
    colon needs a generator of degree >= 2 the certificate is not linear and
    first_failure records the position and the offending colon generator.
    """

    ordered: tuple[Monomial, ...]
    sets: tuple[frozenset[VariableId], ...]
    is_linear: bool
    first_failure: Optional[tuple[int, Monomial]]


def linear_quotients_certificate(ordered: Sequence[Monomial]) -> QuotientCertificate:
    """Check the linear-quotient property along the given ordering."""
    gens = tuple(ordered)
    for g in gens:
        for h in gens:
            if g is not h and g.divides(h):
                raise ValueError(f"{g} divides {h}: not a minimal generating set")
    sets: list[frozenset[VariableId]] = []
    for j, m in enumerate(gens):
        colon = colon_by_monomial(gens[:j], m)
        vs: list[VariableId] = []
        for q in colon.sorted_generators():
            if q.degree != 1:
                return QuotientCertificate(
                    ordered=gens,
                    sets=tuple(sets),
                    is_linear=False,
                    first_failure=(j, q),
                )
            vs.append(q.variables()[0])
        sets.append(frozenset(vs))
    return QuotientCertificate(
        ordered=gens, sets=tuple(sets), is_linear=True, first_failure=None
    )


def betti_from_variable_sets(sets: Sequence[frozenset[VariableId]]) -> BettiTable:
    """Betti numbers from colon variable sets: beta_l = sum_j C(|sets[j]|, l)."""
    if not sets:
        return BettiTable(())
    top = max(len(s) for s in sets)
    values = tuple(sum(comb(len(s), l) for s in sets) for l in range(top + 1))
    return BettiTable(values)


def betti_from_certificate(cert: QuotientCertificate) -> BettiTable:
    """Betti numbers of an ideal with linear quotients."""
    if not cert.is_linear:
        raise NotLinearQuotientsError(
            f"certificate fails at position {cert.first_failure[0]}: "
            f"colon generator {cert.first_failure[1]!r}"
        )
    return betti_from_variable_sets(cert.sets)


def betti_diagonal_closed_form(n: int, ell: int) -> int:
    """Closed form for the one-block (diagonal) ideal on n columns."""
    if n < 3:
        raise ValueError("need n >= 3")
    return sum(comb(k - 1, 2) * comb(k - 3, ell) for k in range(3, n + 1))


def betti_diagonal_table(n: int) -> BettiTable:
    return BettiTable(
        tuple(betti_diagonal_closed_form(n, l) for l in range(n - 2))
    )


def diagonal_lex_sets(n: int) -> list[tuple[GeneratorTriple, frozenset[VariableId]]]:
    """Colon variable sets of the diagonal ideal under the lex generator order.

    For the generator x_i y_j z_k the set is {x_1..x_{i-1}} u {y_{i+1}..y_{j-1}}
    u {z_{j+1}..z_{k-1}}, of size k - 3.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    out = []
    for i, j, k in combinations(range(1, n + 1), 3):
        vs = (
            [xvar(t) for t in range(1, i)]
            + [yvar(t) for t in range(i + 1, j)]
            + [zvar(t) for t in range(j + 1, k)]
        )
        out.append((GeneratorTriple(i, j, k), frozenset(vs)))
    return out


# ---------------------------------------------------------------------------
# Independent oracle: multigraded Betti numbers via simplicial homology.
# ---------------------------------------------------------------------------


def betti_oracle(ideal: MonomialIdeal, max_generators: int = 25) -> BettiTable:
    """Betti numbers by reduced homology of upper Koszul complexes.

    The generators are polarized first: x^e becomes the e lowest bits of a
    block of bits for x, one bit per unit of x's largest exponent, so every
    generator is a squarefree bitmask.  Polarization keeps the lcm lattice
    and the Betti numbers (Herzog-Hibi, Monomial Ideals, 1.6).  For each
    lattice element b the upper Koszul complex K^b has the variables of b as
    vertices and one facet b minus g for each generator g dividing b; its
    reduced homology H_{i-1} has rank beta_{i,b} (Miller-Sturmfels,
    Combinatorial Commutative Algebra, Thm 1.34).  Strong collapses (deleting
    a vertex whose maximal simplices all contain some other vertex) shrink
    each complex before any matrix work; they are homotopy equivalences, so
    the ranks are unchanged.  Ranks come from exact integer elimination.
    """
    gens = ideal.sorted_generators()
    k = len(gens)
    if k == 0:
        return BettiTable(())
    if k > max_generators:
        raise TooLargeError(f"{k} generators exceeds the oracle limit {max_generators}")

    width: dict[VariableId, int] = {}
    for g in gens:
        for v, e in g.items():
            width[v] = max(width.get(v, 0), e)
    offset: dict[VariableId, int] = {}
    shift = 0
    for v in sorted(width):
        offset[v] = shift
        shift += width[v]
    masks = [sum(((1 << e) - 1) << offset[v] for v, e in g.items()) for g in gens]

    betti: dict[int, int] = {}
    for b in _lcm_lattice(masks):
        for d, h in _union_homology([b & ~g for g in masks if not g & ~b]).items():
            betti[d + 1] = betti.get(d + 1, 0) + h

    top = max(betti)
    return BettiTable(tuple(betti.get(i, 0) for i in range(top + 1)))


# Largest lcm lattice the oracle enumerates; past it the oracle raises
# TooLargeError rather than run out of memory.
_LCM_LATTICE_CAP = 200_000


def _lcm_lattice(masks: list[int]) -> set[int]:
    """All unions of nonempty subsets of the given bitmasks."""
    seen = set(masks)
    frontier = list(seen)
    while frontier:
        new = []
        for b in frontier:
            for g in masks:
                l = b | g
                if l not in seen:
                    seen.add(l)
                    new.append(l)
            if len(seen) > _LCM_LATTICE_CAP:
                raise TooLargeError(
                    f"lcm lattice exceeds {_LCM_LATTICE_CAP} elements"
                )
        frontier = new
    return seen


def _maximal_masks(masks: Iterable[int]) -> list[int]:
    """The inclusion-maximal masks among the given ones, each once.

    Distinct masks of equal size never contain one another, so each mask is
    tested only against the kept masks of larger size.
    """
    kept: list[int] = []
    larger: list[int] = []
    size = None
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if m.bit_count() != size:
            size = m.bit_count()
            larger = list(kept)
        if all(m & ~big for big in larger):
            kept.append(m)
    return kept


def _union_homology(masks: list[int]) -> dict[int, int]:
    """Reduced rational homology ranks of a union of full simplices.

    Input: one vertex bitmask per simplex, at least one (the empty face is
    always present).  Output: {dimension: rank} with zero ranks omitted;
    dimension -1 appears exactly when the complex is the empty face alone.

    Each sweep deletes every vertex v whose simplices all contain another
    vertex still present (a strong collapse).  Deleting v leaves the other
    vertices' simplices as they were, so one sweep can delete many vertices.
    """
    masks = _maximal_masks(masks)
    while True:
        if len(masks) == 1:
            return {} if masks[0] else {-1: 1}
        common, union = -1, 0
        for m in masks:
            common &= m
            union |= m
        if common:
            return {}
        doomed = 0
        while union:
            v = union & -union
            union ^= v
            shared = ~(v | doomed)
            for m in masks:
                if m & v:
                    shared &= m
            if shared:
                doomed |= v
        if not doomed:
            break
        masks = _maximal_masks(m & ~doomed for m in masks)

    faces: set[int] = set()
    for m in masks:
        s = m
        while True:
            faces.add(s)
            if not s:
                break
            s = (s - 1) & m
    if len(faces) > 200_000:
        raise TooLargeError("collapsed complex still too large for exact homology")

    by_count: dict[int, list[int]] = {}
    for f in faces:
        by_count.setdefault(f.bit_count(), []).append(f)
    top = max(by_count)
    index = {
        c: {f: i for i, f in enumerate(sorted(fs))} for c, fs in by_count.items()
    }
    ranks: dict[int, int] = {}
    for c in range(1, top + 1):
        lower = index[c - 1]
        rows = []
        for f in by_count[c]:
            row: dict[int, int] = {}
            mm = f
            sign = 1
            while mm:
                bit = mm & -mm
                row[lower[f ^ bit]] = sign
                mm ^= bit
                sign = -sign
            rows.append(row)
        ranks[c] = rational_rank(rows)

    out: dict[int, int] = {}
    for c in range(top + 1):
        h = len(by_count.get(c, ())) - ranks.get(c, 0) - ranks.get(c + 1, 0)
        if h:
            out[c - 1] = h
    return out
