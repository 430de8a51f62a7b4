"""Monomial maps on Pluecker coordinates and their toric kernels.

A matching field sends each 3-subset of columns to a monomial; extending
multiplicatively gives a monomial map from the polynomial ring on Pluecker
variables.  Its kernel is spanned degree by degree by differences of
monomials with equal image.  Comparing the number of distinct images with
the dimension of the corresponding space of bivariate/trivariate tableaux
tests that the Hilbert functions agree in every degree <= dmax, a finite
check.

The slices work on integer image codes: each image's exponent vector is
packed into one int, with fields wide enough that a product of d images
never carries, so the code of a product is the sum of its factors' codes
and equal codes mean equal images.  Lower degrees reach the binomials
m u - m' u of a fibre, whose sides share a Pluecker variable u (m - m' is in
the kernel too), and no others: new generators need no lower fibres.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb, prod
from typing import Iterable, Mapping, Optional

from ._packed import Layout
from .algebra import FAMILIES, Monomial, Polynomial, VariableId, xvar
from .errors import TooLargeError, UnknownVariableError
from .matching import BlockStructure, generator_triples

Subset = tuple[int, ...]
Exponents = tuple[int, ...]
Combo = tuple[int, ...]


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


def plucker_map_from_matching_field(a: BlockStructure) -> PluckerMap:
    """p_{ijk} -> the matching-field monomial of columns {i, j, k}."""
    triples = generator_triples(a)  # raises TooSmallError when n < 3
    return PluckerMap(
        tuple(t.subset() for t in triples), tuple(t.monomial(a.n) for t in triples)
    )


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


def _image_codes(pmap: PluckerMap, d: int) -> list[int]:
    """Each image's exponent vector packed into one int, fit for degree d.

    Every image variable gets a field of (d * max image exponent).bit_length()
    + 1 bits, which holds any of its exponents in a product of d images.  So
    no carry happens: the code of a product is the sum of its factors' codes,
    and two products of degree d have equal images exactly when their codes
    are equal.
    """
    variables = sorted({v for m in pmap.images for v in m.variables()})
    top = max((e for m in pmap.images for _, e in m.items()), default=0)
    layout = Layout(variables, d * top)
    return [layout.pack(m) for m in pmap.images]


def _fibres(pmap: PluckerMap, d: int, budget: int) -> dict[int, list[Combo]]:
    """The degree-d Pluecker monomials grouped by image code.

    A member is the sorted tuple of its factors' variable indices.  Members
    come in combinations_with_replacement order, which is descending order
    of their exponent tuples, so the last member of a fibre is its least.
    """
    s = len(pmap.source)
    total = comb(s + d - 1, d)
    if total > budget:
        raise TooLargeError(
            f"degree {d} slice has {total} monomials, over the budget of {budget}"
        )
    codes = map(sum, combinations_with_replacement(_image_codes(pmap, d), d))
    fibres: dict[int, list[Combo]] = {}
    for combo, code in zip(combinations_with_replacement(range(s), d), codes):
        fibre = fibres.get(code)
        if fibre is None:
            fibres[code] = [combo]
        else:
            fibre.append(combo)
    return fibres


def _exponents(combo: Combo, s: int) -> Exponents:
    e = [0] * s
    for i in combo:
        e[i] += 1
    return tuple(e)


def _spanning_binomials(
    fibres: dict[int, list[Combo]], s: int
) -> list[tuple[Exponents, Exponents]]:
    """One binomial (other - root) per non-root member of each fibre.

    The root is the fibre's least exponent tuple; fibres come in ascending
    order of their roots, and the others of a fibre in ascending order.
    """
    out = []
    shared = (f for f in fibres.values() if len(f) > 1)
    for members in sorted(shared, key=lambda f: f[-1], reverse=True):
        root = _exponents(members[-1], s)
        out.extend((_exponents(other, s), root) for other in reversed(members[:-1]))
    return out


def _new_generators(fibres: dict[int, list[Combo]]) -> int:
    """The dimension of the degree-d slice that lower degrees do not reach.

    Lower degrees reach K_{d-1} * S_1, since K_{d2} * S_{d-1-d2} lies in
    K_{d-1} for every d2 < d.  Its row (m - m') * u joins the members m u
    and m' u of one fibre, which share the variable u; and any two members
    m u and m' u of a fibre are joined so, for m and m' have equal images
    too.  With c_F classes in a fibre F, members joining when their
    supports meet, the rank is sum (|F| - c_F), exact over Q, and what is
    new is sum (c_F - 1).  A class is the bitmask of its members'
    variables, and each member absorbs every class it meets.
    """
    new = 0
    for members in (f for f in fibres.values() if len(f) > 1):
        classes: list[int] = []
        for combo in members:
            support = 0
            for i in combo:
                support |= 1 << i
            apart = []
            for c in classes:
                if c & support:
                    support |= c
                else:
                    apart.append(c)
            apart.append(support)
            classes = apart
        new += len(classes) - 1
    return new


@dataclass(frozen=True)
class KernelSlice:
    """The degree-d piece of the kernel of a Pluecker monomial map.

    binomials spans the slice: each entry is a pair (plus, minus) of
    exponent tuples over pmap.source with equal image, and there are
    exactly dimension of them.  It is None when they were not built, because
    the slice has more of them than its builder was asked to build;
    kernel_slice always builds them.
    new_minimal_generators counts the dimension not reachable by multiplying
    lower-degree kernel elements by monomials: per fibre, its classes less
    one, where members that share a Pluecker variable join one class.
    """

    degree: int
    dimension: int
    binomials: Optional[tuple[tuple[Exponents, Exponents], ...]]
    new_minimal_generators: int


def kernel_slice(pmap: PluckerMap, d: int, budget: int = 500_000) -> KernelSlice:
    if type(d) is not int or d < 1:
        raise ValueError(f"degree must be an integer of at least 1, got {d!r}")
    return _slice(pmap, d, _fibres(pmap, d, budget))


def _slice(
    pmap: PluckerMap,
    d: int,
    fibres: dict[int, list[Combo]],
    max_binomials: Optional[int] = None,
) -> KernelSlice:
    """The degree-d slice from the degree-d fibres alone: lower degrees join
    two members of a fibre exactly when they share a Pluecker variable.

    The spanning binomials are built unless there are more than
    max_binomials of them; there are exactly dimension many, one per
    non-root fibre member, so that is known before any is built.
    """
    s = len(pmap.source)
    dimension = comb(s + d - 1, d) - len(fibres)
    build = max_binomials is None or dimension <= max_binomials
    return KernelSlice(
        degree=d,
        dimension=dimension,
        binomials=tuple(_spanning_binomials(fibres, s)) if build else None,
        new_minimal_generators=_new_generators(fibres),
    )


def hilbert_dim_rect(k: int, n: int, d: int) -> int:
    """Number of semistandard fillings of the k x d rectangle with entries <= n.

    This is the dimension of the GL_n representation of highest weight
    (d^k), computed by the Weyl dimension formula: the product of
    (d + j - i) / (j - i) over 1 <= i <= k < j <= n.  That is k * (n - k)
    factors, independent of d, where the hook content formula has k * d.
    """
    if any(type(x) is not int for x in (k, n, d)):
        raise ValueError(f"k, n and d must be integers, got {k!r}, {n!r} and {d!r}")
    if k < 1 or n < k or d < 0:
        raise ValueError("need 1 <= k <= n and d >= 0")
    pairs = [(i, j) for i in range(1, k + 1) for j in range(k + 1, n + 1)]
    top = prod(d + j - i for i, j in pairs)
    bottom = prod(j - i for i, j in pairs)
    out, rest = divmod(top, bottom)
    if rest:
        raise ArithmeticError(f"Weyl dimension product {top}/{bottom} is not an integer")
    return out


@dataclass(frozen=True)
class FlatnessReport:
    """Distinct image counts per degree against the rectangle dimension."""

    ok: bool
    rows: tuple[tuple[int, int, int], ...]  # (degree, distinct_images, expected)


def flatness_check(
    pmap: PluckerMap, k: int, n: int, dmax: int, budget: int = 500_000
) -> FlatnessReport:
    """Check the map's image has the same size in each degree <= dmax as the
    space of semistandard rectangle fillings: the Hilbert functions agree in
    every degree <= dmax, a finite check."""
    if type(dmax) is not int or dmax < 0:
        raise ValueError(f"dmax must be a nonnegative integer, got {dmax!r}")
    sizes = (len(_fibres(pmap, d, budget)) if d else 1 for d in range(dmax + 1))
    return _flatness(k, n, sizes)


def _flatness(k: int, n: int, sizes: Iterable[int]) -> FlatnessReport:
    """The flatness report from the distinct image counts of degree 0, 1, ..."""
    rows = tuple((d, got, hilbert_dim_rect(k, n, d)) for d, got in enumerate(sizes))
    return FlatnessReport(ok=all(got == want for _, got, want in rows), rows=rows)


def _kernel_and_flatness(
    pmap: PluckerMap,
    k: int,
    n: int,
    dmax: int,
    budget: int,
    max_binomials: Optional[int],
) -> tuple[list[KernelSlice], FlatnessReport]:
    """kernel_slice for d = 1..dmax and flatness_check to dmax, building
    each degree's fibres once, and the binomials of a slice only when it
    has at most max_binomials of them (all of them when it is None)."""
    slices = []
    sizes = [1]
    for d in range(1, dmax + 1):
        fibres = _fibres(pmap, d, budget)
        slices.append(_slice(pmap, d, fibres, max_binomials))
        sizes.append(len(fibres))
    return slices, _flatness(k, n, sizes)


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
