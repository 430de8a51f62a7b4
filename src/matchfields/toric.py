"""Monomial maps on Pluecker coordinates and their toric kernels.

A matching field sends each 3-subset of columns to a monomial; extending
multiplicatively gives a monomial map from the polynomial ring on Pluecker
variables.  Its kernel is spanned degree by degree by differences of
monomials with equal image.  Comparing the number of distinct images with
the dimension of the corresponding space of bivariate/trivariate tableaux
tests that all these degenerations share one Hilbert function.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb
from typing import Mapping, Optional

from .algebra import FAMILIES, Monomial, Polynomial, VariableId, xvar
from .errors import TooLargeError, UnknownVariableError
from .linalg import rational_rank
from .matching import BlockStructure, generator, generator_triples

Subset = tuple[int, ...]
Exponents = tuple[int, ...]


@dataclass(frozen=True)
class PluckerMap:
    """A monomial substitution p_S -> image monomial, one per k-subset S."""

    source: tuple[Subset, ...]
    images: tuple[Monomial, ...]

    def __post_init__(self):
        if len(self.source) != len(self.images):
            raise ValueError("source and images must have equal length")
        if len(set(self.source)) != len(self.source):
            raise ValueError("duplicate source subsets")
        for s in self.source:
            if tuple(sorted(set(s))) != s:
                raise ValueError(f"source subset {s} is not a sorted set")

    @property
    def assignment(self) -> dict[Subset, Monomial]:
        return dict(zip(self.source, self.images))

    def index_of(self, subset: Subset) -> int:
        try:
            return self.source.index(tuple(subset))
        except ValueError:
            raise UnknownVariableError(f"no Pluecker variable for {subset}")


def plucker_map_from_matching_field(a: BlockStructure) -> PluckerMap:
    """p_{ijk} -> the matching-field monomial of columns {i, j, k}."""
    n = a.n
    source = []
    images = []
    for sub in combinations(range(1, n + 1), 3):
        source.append(sub)
        images.append(generator(a, sub).monomial(n))
    return PluckerMap(tuple(source), tuple(images))


def diagonal_plucker_map(k: int, n: int) -> PluckerMap:
    """p_S -> product of the diagonal entries of the k x n coordinate matrix.

    Row i uses the i-th variable family, so for S = {c_1 < ... < c_k} the
    image is family_1[c_1] * ... * family_k[c_k].
    """
    if not 2 <= k <= len(FAMILIES):
        raise ValueError(f"row count {k} must be between 2 and {len(FAMILIES)}")
    if n < k:
        raise ValueError("need at least k columns")
    source = []
    images = []
    for sub in combinations(range(1, n + 1), k):
        source.append(sub)
        images.append(
            Monomial.of(n, *(VariableId(FAMILIES[i], c) for i, c in enumerate(sub)))
        )
    return PluckerMap(tuple(source), tuple(images))


def image_monomial(pmap: PluckerMap, exponents: Mapping[Subset, int]) -> Monomial:
    """Image of the Pluecker monomial prod p_S^{e_S} under the map."""
    assign = pmap.assignment
    out = Monomial.one(pmap.images[0].n if pmap.images else 1)
    for sub, e in exponents.items():
        key = tuple(sub)
        if key not in assign:
            raise UnknownVariableError(f"no Pluecker variable for {key}")
        if e < 0:
            raise ValueError("exponents must be nonnegative")
        out = out * assign[key].pow(e)
    return out


def _degree_slice(pmap: PluckerMap, d: int, budget: int):
    """All degree-d Pluecker exponent tuples, their index, and image fibers."""
    s = len(pmap.source)
    total = comb(s + d - 1, d)
    if total > budget:
        raise TooLargeError(
            f"degree {d} slice has {total} monomials, over the budget of {budget}"
        )
    exps_list: list[Exponents] = []
    for combo in combinations_with_replacement(range(s), d):
        e = [0] * s
        for i in combo:
            e[i] += 1
        exps_list.append(tuple(e))
    index = {e: i for i, e in enumerate(exps_list)}
    fibers: dict[Monomial, list[Exponents]] = {}
    for e in exps_list:
        img = Monomial.one(pmap.images[0].n)
        for i, ei in enumerate(e):
            if ei:
                img = img * pmap.images[i].pow(ei)
        fibers.setdefault(img, []).append(e)
    return exps_list, index, fibers


def _spanning_binomials(fibers: dict) -> list[tuple[Exponents, Exponents]]:
    """One binomial (other - root) per non-root member of each fiber."""
    out = []
    for members in sorted(fibers.values(), key=min):
        root = min(members)
        for other in sorted(members):
            if other != root:
                out.append((other, root))
    return out


@dataclass(frozen=True)
class KernelSlice:
    """The degree-d piece of the kernel of a Pluecker monomial map.

    binomials spans the slice: each entry is a pair (plus, minus) of
    exponent tuples over pmap.source with equal image.
    new_minimal_generators counts the dimension not reachable by multiplying
    lower-degree kernel elements by monomials.
    """

    degree: int
    dimension: int
    binomials: tuple[tuple[Exponents, Exponents], ...]
    new_minimal_generators: int


def kernel_slice(pmap: PluckerMap, d: int, budget: int = 500_000) -> KernelSlice:
    if d < 1:
        raise ValueError("degree must be at least 1")
    s = len(pmap.source)
    exps_list, index, fibers = _degree_slice(pmap, d, budget)
    dimension = len(exps_list) - len(fibers)
    binomials = tuple(_spanning_binomials(fibers))

    old_rows: list[dict[int, Fraction]] = []
    one = Fraction(1)
    for d2 in range(1, d):
        _, _, low_fibers = _degree_slice(pmap, d2, budget)
        for plus, minus in _spanning_binomials(low_fibers):
            for combo in combinations_with_replacement(range(s), d - d2):
                bump = [0] * s
                for i in combo:
                    bump[i] += 1
                p = tuple(x + b for x, b in zip(plus, bump))
                q = tuple(x + b for x, b in zip(minus, bump))
                old_rows.append({index[p]: one, index[q]: -one})
    spanned = rational_rank(old_rows) if old_rows else 0

    return KernelSlice(
        degree=d,
        dimension=dimension,
        binomials=binomials,
        new_minimal_generators=dimension - spanned,
    )


def hilbert_dim_rect(k: int, n: int, d: int) -> int:
    """Number of semistandard fillings of the k x d rectangle with entries <= n.

    Computed by the hook content product over the rectangle's cells.
    """
    if d == 0:
        return 1
    if k < 1 or n < k or d < 0:
        raise ValueError("need 1 <= k <= n and d >= 0")
    out = Fraction(1)
    for i in range(1, k + 1):
        for j in range(1, d + 1):
            hook = (d - j) + (k - i) + 1
            out *= Fraction(n + j - i, hook)
    if out.denominator != 1:
        raise ArithmeticError(f"hook content product {out} is not an integer")
    return out.numerator


@dataclass(frozen=True)
class FlatnessReport:
    """Distinct image counts per degree against the rectangle dimension."""

    ok: bool
    rows: tuple[tuple[int, int, int], ...]  # (degree, distinct_images, expected)


def flatness_check(
    pmap: PluckerMap, k: int, n: int, dmax: int, budget: int = 500_000
) -> FlatnessReport:
    """Check the map's image has the same size in each degree <= dmax as the
    space of semistandard rectangle fillings, i.e. the degeneration does not
    change the Hilbert function."""
    rows = []
    ok = True
    for d in range(0, dmax + 1):
        if d == 0:
            distinct = 1
        else:
            _, _, fibers = _degree_slice(pmap, d, budget)
            distinct = len(fibers)
        expected = hilbert_dim_rect(k, n, d)
        rows.append((d, distinct, expected))
        if distinct != expected:
            ok = False
    return FlatnessReport(ok=ok, rows=tuple(rows))


def plucker_variable_name(subset: Subset) -> str:
    if all(1 <= c <= 9 for c in subset):
        return "p" + "".join(str(c) for c in subset)
    return "p" + "-".join(str(c) for c in subset)


def format_plucker_exponents(pmap: PluckerMap, exponents: Exponents) -> str:
    parts = []
    for sub, e in zip(pmap.source, exponents):
        if e == 1:
            parts.append(plucker_variable_name(sub))
        elif e > 1:
            parts.append(f"{plucker_variable_name(sub)}^{e}")
    return "*".join(parts) if parts else "1"


def plucker_quadric_gr24() -> Polynomial:
    """The single quadratic relation among the six 2x4 Pluecker coordinates.

    Variables x_1..x_6 stand for p12, p13, p14, p23, p24, p34; the relation
    is p12*p34 - p13*p24 + p14*p23.
    """
    n = 6
    p12, p13, p14, p23, p24, p34 = (xvar(i) for i in range(1, 7))
    return Polynomial.from_terms(
        n,
        [
            (Fraction(1), Monomial.of(n, p12, p34)),
            (Fraction(-1), Monomial.of(n, p13, p24)),
            (Fraction(1), Monomial.of(n, p14, p23)),
        ],
    )
