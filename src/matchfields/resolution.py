"""Minimal free resolution invariants of monomial ideals.

Two independent routes to Betti numbers live here and deliberately share no
code.  The certificate route checks the linear-quotient property along a
given generator ordering, on exponent vectors packed into ints, and reads
the Betti numbers off the colon-set sizes with a binomial-coefficient
formula (Herzog-Takayama, Resolutions by mapping cones).  The oracle route
computes multigraded Betti numbers directly as ranks of reduced simplicial
homology of upper Koszul complexes, one lcm-lattice element at a time, and
knows nothing about quotient orderings.  Their facets form an antichain
(the generators are minimal), each distinct complex shape is computed once
per call, and its boundary ranks come from exact integer elimination with
clearing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Optional, Sequence

from ._packed import pack_minimal
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
    """Check the linear-quotient property along the given ordering.

    The generators are packed into ints (see _packed.pack_minimal).  The colon
    <m_1..m_j> : m_{j+1} is generated by the quotients p / gcd(p, m_{j+1}),
    each one saturating field-wise subtraction, and it is generated by
    variables exactly when every quotient is divisible by a quotient of
    degree 1.  At the first position where that fails, colon_by_monomial
    supplies the witness: the first minimal colon generator of degree != 1.

    Raises ValueError when the generators live over different ambient n, or
    when one of them repeats or divides another.
    """
    gens = tuple(ordered)
    layout, packed = pack_minimal(gens)
    units, field, monus = layout.units, layout.field, layout.monus
    sets: list[frozenset[VariableId]] = []
    for j, m in enumerate(packed):
        variables: list[VariableId] = []
        covered = 0  # the fields of the degree-1 quotients
        others: list[int] = []
        for q in monus(packed[:j], m):
            v = units.get(q)
            if v is None:
                others.append(q)
            else:
                variables.append(v)
                covered |= q * field
        if not all(q & covered for q in others):
            for q in colon_by_monomial(gens[:j], gens[j]).sorted_generators():
                if q.degree != 1:
                    return QuotientCertificate(
                        ordered=gens,
                        sets=tuple(sets),
                        is_linear=False,
                        first_failure=(j, q),
                    )
        sets.append(frozenset(variables))
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
    """Closed form for the one-block (diagonal) ideal on n columns: the
    Eagon-Northcott Betti numbers of the maximal minors, which degenerate onto it."""
    if n < 3 or ell < 0:
        raise ValueError("need n >= 3 and ell >= 0")
    return comb(n, 3 + ell) * comb(2 + ell, ell)


def betti_diagonal_table(n: int) -> BettiTable:
    if type(n) is not int or n < 3:
        raise ValueError(f"need an integer n >= 3, got {n!r}")
    return BettiTable(tuple(betti_diagonal_closed_form(n, l) for l in range(n - 2)))


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
    Combinatorial Commutative Algebra, Thm 1.34).

    Polarization keeps divisibility, so the minimal generators give masks of
    which none contains another, and the facets b minus g of each K^b form
    an antichain that needs no maximality pass.  Renumbering the bits of b
    in order is an isomorphism of complexes, so K^b is computed once per
    compressed shape (|b| and the renumbered dividing generators) within
    one call; no result is kept across calls.  Strong collapses (deleting a vertex whose maximal
    simplices all contain some other vertex) shrink each complex before any
    matrix work; they are homotopy equivalences, so the ranks are unchanged.
    Ranks come from exact integer elimination with clearing.
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

    homology: dict[tuple[int, tuple[int, ...]], dict[int, int]] = {}
    betti: dict[int, int] = {}
    for b in _lcm_lattice(masks):
        shape = []
        outside = ~b
        for g in masks:
            if not g & outside:
                c = 0
                while g:
                    v = g & -g
                    c |= 1 << (b & (v - 1)).bit_count()
                    g ^= v
                shape.append(c)
        size = b.bit_count()
        key = (size, tuple(sorted(shape)))
        ranks = homology.get(key)
        if ranks is None:
            full = (1 << size) - 1
            ranks = homology[key] = _union_homology([full ^ c for c in key[1]])
        for d, h in ranks.items():
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
    The input is expected to be an antichain (the facets) for speed, not for
    correctness: a repeated or contained mask adds no face and only makes
    the collapse test below stricter.

    Each sweep deletes every vertex v whose simplices all contain another
    vertex still present (a strong collapse).  Deleting v leaves the other
    vertices' simplices as they were, so one sweep can delete many vertices.

    The boundary ranks are taken from the top dimension down, with clearing
    (Chen-Kerber 2011): a face that is a pivot column of the boundary rows
    one dimension up gets no row of its own.  Each pivot row has its
    smallest column at its pivot and is a boundary, so the boundary of a
    cleared face lies in the span of the boundaries of the faces after it,
    and by induction from the last cleared face, of the rows kept.
    """
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
    ranks: dict[int, int] = {}
    cleared: set[int] = set()
    for c in range(top, 0, -1):
        rows = []
        for f in by_count[c]:
            if f in cleared:
                continue
            row: dict[int, int] = {}
            mm = f
            sign = 1
            while mm:
                bit = mm & -mm
                row[f ^ bit] = sign
                mm ^= bit
                sign = -sign
            rows.append(row)
        cleared = set()
        ranks[c] = rational_rank(rows, pivots=cleared)

    out: dict[int, int] = {}
    for c in range(top + 1):
        h = len(by_count.get(c, ())) - ranks.get(c, 0) - ranks.get(c + 1, 0)
        if h:
            out[c - 1] = h
    return out
