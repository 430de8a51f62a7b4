"""Block-diagonal matching fields for 3-row matrices.

A composition a = (a_1, ..., a_r) of n cuts the column indices 1..n into
consecutive blocks I_1, ..., I_r.  Each 3-subset {i < j < k} of columns is
assigned one product of three variables (its generator): if the first block
meeting the subset contains exactly one of its elements the x and y indices
are swapped, otherwise they keep the natural order.  The resulting monomials,
the accompanying weight matrix, and a linear "block ordering" on the
generators are the combinatorial core of everything else in the package.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import Iterable, NamedTuple

from ._packed import pack_minimal
from .algebra import Monomial, VariableId, WeightOrder, xvar, yvar, zvar
from .errors import (
    InvalidSubsetError,
    NotAGeneratorError,
    TooSmallError,
)


@dataclass(frozen=True)
class BlockStructure:
    """A composition of n into positive parts, defining consecutive blocks."""

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int]):
        pp = tuple(parts)
        if not pp:
            raise ValueError("a composition needs at least one part")
        if any(type(p) is not int or p < 1 for p in pp):
            raise ValueError(f"all parts must be positive integers, got {pp}")
        object.__setattr__(self, "parts", pp)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def r(self) -> int:
        return len(self.parts)

    @property
    def alphas(self) -> tuple[int, ...]:
        """Prefix sums (alpha_0, alpha_1, ..., alpha_r) with alpha_0 = 0."""
        return tuple(accumulate(self.parts, initial=0))

    def block(self, t: int) -> range:
        """The t-th block I_t as a range of column indices (1-based t)."""
        a = self.alphas
        if not 1 <= t <= self.r:
            raise ValueError(f"block index {t} outside [1, {self.r}]")
        return range(a[t - 1] + 1, a[t] + 1)

    def block_of(self, i: int) -> int:
        """Index t of the block containing column i."""
        if not 1 <= i <= self.n:
            raise ValueError(f"column {i} outside [1, {self.n}]")
        return bisect_left(self.alphas, i)

    def __repr__(self) -> str:
        return f"BlockStructure({list(self.parts)})"


class GeneratorTriple(NamedTuple):
    """Index triple (x, y, z) of one generator monomial x_x * y_y * z_z."""

    x: int
    y: int
    z: int

    def subset(self) -> tuple[int, int, int]:
        i, j, k = sorted((self.x, self.y, self.z))
        return (i, j, k)

    def monomial(self, n: int) -> Monomial:
        return Monomial.of(n, xvar(self.x), yvar(self.y), zvar(self.z))


def generator(a: BlockStructure, subset: Iterable[int]) -> GeneratorTriple:
    """Generator triple assigned to a 3-subset of columns.

    With {i < j < k} and s the first block meeting the subset: the triple is
    (j, i, k) when the subset meets I_s in exactly one element, else (i, j, k).
    """
    cols = tuple(subset)
    if len(cols) != 3 or len(set(cols)) != 3:
        raise InvalidSubsetError(f"need three distinct columns, got {cols}")
    i, j, k = sorted(cols)
    if i < 1 or k > a.n:
        raise InvalidSubsetError(f"columns {cols} outside [1, {a.n}]")
    s = a.block_of(i)
    hits = sum(1 for c in (i, j, k) if a.block_of(c) == s)
    if hits == 1:
        return GeneratorTriple(j, i, k)
    return GeneratorTriple(i, j, k)


def generator_triples(a: BlockStructure) -> list[GeneratorTriple]:
    """All generator triples, one per 3-subset of columns, in subset order."""
    if a.n < 3:
        raise TooSmallError(f"need n >= 3 columns, got n = {a.n}")
    return [generator(a, c) for c in combinations(range(1, a.n + 1), 3)]


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal, stored by its unique minimal generating set."""

    generators: frozenset[Monomial]

    def __post_init__(self):
        pack_minimal(self.generators)  # raises ValueError unless minimal

    @classmethod
    def from_monomials(cls, monomials: Iterable[Monomial]) -> "MonomialIdeal":
        """Build an ideal from any generating set, minimalizing it."""
        mono = sorted(set(monomials), key=lambda m: (m.degree, m._key))
        kept: list[Monomial] = []
        for m in mono:
            if not any(k.divides(m) for k in kept):
                kept.append(m)
        return cls(frozenset(kept))

    def sorted_generators(self) -> list[Monomial]:
        return sorted(self.generators, key=lambda m: m._key)

    def __len__(self) -> int:
        return len(self.generators)


def matching_ideal(a: BlockStructure) -> MonomialIdeal:
    """The monomial ideal generated by all matching-field generators."""
    n = a.n
    return MonomialIdeal(frozenset(t.monomial(n) for t in generator_triples(a)))


def weight_matrix(a: BlockStructure, w0: int = 1) -> WeightOrder:
    """Weight order attached to the block structure.

    All x-weights equal w0.  The y-weights fill the values w0+1 .. w0+n block
    by block starting from the last block, ascending inside each block, so
    earlier blocks carry the larger weights.  The z-weights start at w0 for
    z_1, z_2 and then grow in steps of n-2 on top of the largest y-weight.
    The precedence list breaking ties is z_n..z_3, then the y's block by
    block (descending inside each block), then z_2, z_1, then x_1..x_n.
    """
    if type(w0) is not int or w0 < 1:
        raise ValueError(f"w0 must be a positive integer, got {w0!r}")
    n, r = a.n, a.r
    alpha = a.alphas

    yw: dict[int, int] = {}
    for s in range(r, 0, -1):
        first = alpha[s - 1] + 1
        yw[first] = (w0 + 1) if s == r else yw[alpha[s + 1]] + 1
        for j in range(first + 1, alpha[s] + 1):
            yw[j] = yw[first] + (j - first)

    zw: dict[int, int] = {}
    if n >= 1:
        zw[1] = w0
    if n >= 2:
        zw[2] = w0
    top_y = yw[alpha[1]]
    for i in range(3, n + 1):
        zw[i] = top_y + (n - 2) * (i - 2)

    weights: dict[VariableId, int] = {}
    for i in range(1, n + 1):
        weights[xvar(i)] = w0
        weights[yvar(i)] = yw[i]
        weights[zvar(i)] = zw[i]

    precedence: list[VariableId] = [zvar(i) for i in range(n, 2, -1)]
    for s in range(1, r + 1):
        precedence.extend(yvar(j) for j in range(alpha[s], alpha[s - 1], -1))
    if n >= 2:
        precedence.append(zvar(2))
    precedence.append(zvar(1))
    precedence.extend(xvar(i) for i in range(1, n + 1))

    return WeightOrder(n, weights, precedence)


def _require_generator(a: BlockStructure, t: GeneratorTriple) -> None:
    try:
        expected = generator(a, (t.x, t.y, t.z))
    except InvalidSubsetError as exc:
        raise NotAGeneratorError(str(exc)) from exc
    if expected != t:
        raise NotAGeneratorError(f"{t} is not a generator of this matching field")


def _block_sort_key(a: BlockStructure, t: GeneratorTriple) -> tuple[int, int, int, int]:
    return (-t.z, a.block_of(t.y), -t.y, t.x)


def block_order_compare(a: BlockStructure, t1: GeneratorTriple, t2: GeneratorTriple) -> int:
    """-1, 0 or 1 as t1 comes before, equals, or comes after t2.

    Earlier means: larger z; on ties, smaller block of the y-index; then
    larger y; then smaller x.
    """
    _require_generator(a, t1)
    _require_generator(a, t2)
    k1, k2 = _block_sort_key(a, t1), _block_sort_key(a, t2)
    if k1 < k2:
        return -1
    if k1 > k2:
        return 1
    return 0


def sort_generators(a: BlockStructure) -> list[GeneratorTriple]:
    """All generator triples in the block ordering (the linear-quotient order)."""
    return sorted(generator_triples(a), key=lambda t: _block_sort_key(a, t))


def s_set(a: BlockStructure, t: GeneratorTriple) -> frozenset[GeneratorTriple]:
    """Generators before t in the block ordering differing in exactly one slot."""
    _require_generator(a, t)
    tk = _block_sort_key(a, t)
    out = []
    for g in generator_triples(a):
        if _block_sort_key(a, g) >= tk:
            continue
        diffs = (g.x != t.x) + (g.y != t.y) + (g.z != t.z)
        if diffs == 1:
            out.append(g)
    return frozenset(out)


def s_set_variables(a: BlockStructure, t: GeneratorTriple) -> frozenset[VariableId]:
    """The variable each member of s_set contributes (its one differing slot)."""
    out = []
    for g in s_set(a, t):
        if g.x != t.x:
            out.append(xvar(g.x))
        elif g.y != t.y:
            out.append(yvar(g.y))
        else:
            out.append(zvar(g.z))
    return frozenset(out)


def s_size_closed_form(a: BlockStructure, t: GeneratorTriple) -> int:
    """Printed closed-form count for the size of s_set.

    Unchecked fast path: for triples whose x and y indices share a non-final
    block it can overcount (the definitional s_set is authoritative).
    """
    _require_generator(a, t)
    ell, u, v = t.x, t.y, t.z
    n, r = a.n, a.r
    alpha = a.alphas
    s_ell = a.block_of(ell)
    s_u = a.block_of(u)
    if s_ell == s_u:
        if s_ell < r:
            return alpha[s_ell] - u + ell - 1 + n - v
        return u - 2 + n - v
    return ell - 2 + n - v
