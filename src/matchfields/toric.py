"""Monomial maps on Pluecker coordinates and their toric kernels.

A matching field sends each 3-subset of columns to a monomial; extending
multiplicatively gives a monomial map from the polynomial ring on Pluecker
variables.  Its kernel is spanned degree by degree by differences of
monomials with equal image, and comparing the number of distinct images with
the dimension of semistandard rectangle tableaux checks the Hilbert functions
in each degree <= dmax.  One rule sizes every request from the number s of
Pluecker variables alone: the requested degrees may have at most budget
monomials together, and at s = 1 their d-tuples read at most budget indices.

The slices read integer image codes alone, packed from a PluckerMap by
_image_codes or from a matching field's triples by _packed.pack_triples:
each image's exponent vector is one int, with fields wide enough that a
product of up to dmax images never carries, so a product's code is the sum
of its factors' codes and equal codes mean equal images.  Lower degrees
reach the binomials m u - m' u of a fibre, whose sides share a Pluecker
variable u (m - m' is in the kernel too), and no others: new generators
need no lower fibres.  Each fibre keeps its one member or else its classes
(members joined by shared variables), and its members only for binomials
that are built.
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

__all__ = [
    "FlatnessReport",
    "KernelSlice",
    "PluckerMap",
    "diagonal_plucker_map",
    "flatness_check",
    "format_plucker_exponents",
    "hilbert_dim_rect",
    "image_monomial",
    "kernel_slice",
    "plucker_map_from_matching_field",
    "plucker_quadric_gr24",
    "plucker_variable_name",
]

Subset = tuple[int, ...]
Exponents = tuple[int, ...]
Combo = tuple[int, ...]
Held = Combo | int | list[int]  # a fibre's one member, or its classes
Members = dict[int, list[Combo]]


@dataclass(frozen=True)
class PluckerMap:
    """A monomial substitution p_S -> image monomial, one per k-subset S."""

    source: tuple[Subset, ...]
    images: tuple[Monomial, ...]

    def __post_init__(self):
        if not 0 < len(self.source) == len(self.images):
            raise ValueError("source and images must be non-empty and of equal length")
        if len(set(self.source)) != len(self.source):
            raise ValueError("duplicate source subsets")
        for s in self.source:
            if tuple(sorted(set(s))) != s:
                raise ValueError(f"source subset {s} is not a sorted set")
        if len({len(s) for s in self.source}) > 1:
            raise ValueError("source subsets of more than one size")
        if len({m.n for m in self.images}) > 1:
            raise ValueError("images over more than one ambient n")

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
    out = Monomial.one(pmap.images[0].n)
    for sub, e in exponents.items():
        key = tuple(sub)
        if key not in assign:
            raise UnknownVariableError(f"no Pluecker variable for {key}")
        if e < 0:
            raise ValueError("exponents must be nonnegative")
        out = out * assign[key].pow(e)
    return out


def _image_codes(pmap: PluckerMap, d: int) -> list[int]:
    """Each image's exponent vector packed into one int, fit for degrees <= d.

    Every image variable gets a field of (d * max image exponent).bit_length()
    + 1 bits, which holds any of its exponents in a product of at most d
    images.  So no carry happens: the code of a product is the sum of its
    factors' codes, and two products of one degree <= d have equal images
    exactly when their codes are equal.
    """
    variables = sorted({v for m in pmap.images for v in m.variables()})
    top = max((e for m in pmap.images for _, e in m.items()), default=0)
    layout = Layout(variables, d * top)
    return [layout.pack(m) for m in pmap.images]


def _fibres(
    codes: list[int], d: int, max_binomials: Optional[int]
) -> tuple[dict[int, Held], Optional[Members]]:
    """The degree-d Pluecker monomials grouped by image code, in one pass.

    The codes are packed fit for degree d, and a member is the sorted tuple
    of its factors' indices into them.  A code holds its fibre's one member
    until a second arrives, then the fibre's classes: the support bitmasks of
    members joined as their supports meet, an int for one class and a list
    for several.  The members of larger fibres are kept too while the
    non-root members (members less fibres) number at most max_binomials
    (always when it is None), then dropped for good.  Members come in
    combinations_with_replacement order, which is descending order of their
    exponent tuples, so a fibre's last is its least.
    """
    s = len(codes)
    products = map(sum, combinations_with_replacement(codes, d))
    bits: list[int] = []  # 1 << i, built at the first repeated code
    fibres: dict[int, Held] = {}
    members: Optional[Members] = {}
    extra = 0
    for combo, code in zip(combinations_with_replacement(range(s), d), products):
        held = fibres.get(code)
        if held is None:
            fibres[code] = combo
            continue
        extra += 1
        if max_binomials is not None and extra > max_binomials:
            members = None
        if members is not None:
            members.setdefault(code, [held]).append(combo)
        if type(held) is tuple:
            bits = bits or [1 << i for i in range(s)]
            first = 0
            for i in held:
                first |= bits[i]
            held = first
        support = 0
        for i in combo:
            support |= bits[i]
        apart = []
        for c in held if type(held) is list else (held,):
            if c & support:
                support |= c
            else:
                apart.append(c)
        fibres[code] = apart + [support] if apart else support
    return fibres, members


# The size rule's default budget: kernel_slice, flatness_check and kernel --budget.
KERNEL_BUDGET = 500_000


def _format_count(x: int, exact: bool = True) -> str:
    """x for a refusal, "at least x" if only a bound, and past 10 000 bits the exact
    bound "at least 2^k", k = x.bit_length() - 1: str() stops at 4 300 digits."""
    if x.bit_length() > 10_000:
        return f"at least 2^{x.bit_length() - 1}"
    return str(x) if exact else f"at least {x}"


def _check_size(s: int, low: int, high: int, budget: int) -> None:
    """The module's size rule: degrees low..high over s Pluecker variables hold
    comb(s + high, s) - comb(s + low - 1, s) monomials (hockey stick), at most
    budget; at s = 1, k = 2 for s counts the indices their d-tuples read.  With
    a = budget.bit_length(), a degree d >= a over s >= a + 1 variables alone has
    comb(s - 1 + d, d) >= comb(2a, a) >= 2**a > budget monomials, so such a range
    counts a + 1 variables: a lower bound over the budget that keeps comb small."""
    a = budget.bit_length()
    counted = min(s, a + 1) if high >= a else s
    k = 2 if s == 1 else counted
    total = comb(counted + high, k) - comb(counted + low - 1, k)
    if total > budget:
        total = _format_count(total, exact=counted == s)
        found = f"read {total} indices" if s == 1 else f"have {total} monomials"
        raise TooLargeError(f"degrees {low} to {high} {found}, over the budget of {budget}")


def _exponents(combo: Combo, s: int) -> Exponents:
    e = [0] * s
    for i in combo:
        e[i] += 1
    return tuple(e)


def _spanning_binomials(members: Members, s: int) -> list[tuple[Exponents, Exponents]]:
    """One binomial (other - root) per non-root member of each fibre.

    The root is the fibre's least exponent tuple; fibres come in ascending
    order of their roots, and the others of a fibre in ascending order.
    """
    out = []
    for fibre in sorted(members.values(), key=lambda f: f[-1], reverse=True):
        root = _exponents(fibre[-1], s)
        out.extend((_exponents(other, s), root) for other in reversed(fibre[:-1]))
    return out


def _new_generators(fibres: dict[int, Held]) -> int:
    """The dimension of the degree-d slice that lower degrees do not reach.

    Lower degrees reach K_{d-1} * S_1, since K_{d2} * S_{d-1-d2} lies in
    K_{d-1} for every d2 < d.  Its row (m - m') * u joins the members m u
    and m' u of one fibre, which share the variable u; and any two members
    m u and m' u of a fibre are joined so, for m and m' have equal images
    too.  With c_F classes in a fibre F, members joining when their
    supports meet, the rank is sum (|F| - c_F), exact over Q, and what is
    new is sum (c_F - 1): only a fibre that holds a list of classes adds.
    """
    return sum(len(c) - 1 for c in fibres.values() if type(c) is list)


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


def kernel_slice(pmap: PluckerMap, d: int, budget: int = KERNEL_BUDGET) -> KernelSlice:
    if type(d) is not int or d < 1:
        raise ValueError(f"degree must be an integer of at least 1, got {d!r}")
    _check_size(len(pmap.source), d, d, budget)
    return _slice(len(pmap.source), d, *_fibres(_image_codes(pmap, d), d, None))


def _slice(s: int, d: int, fibres: dict[int, Held], members: Optional[Members]) -> KernelSlice:
    """The degree-d slice over s Pluecker variables from its fibres alone: lower
    degrees join two members of a fibre exactly when they share a variable.  The
    binomials are built when _fibres kept the members, and are None if not."""
    return KernelSlice(
        degree=d,
        dimension=comb(s + d - 1, d) - len(fibres),
        binomials=None if members is None else tuple(_spanning_binomials(members, s)),
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
    pmap: PluckerMap, k: int, n: int, dmax: int, budget: int = KERNEL_BUDGET
) -> FlatnessReport:
    """Check the map's image has the same size in each degree <= dmax as the
    space of semistandard rectangle fillings: the Hilbert functions agree in
    every degree <= dmax, a finite check."""
    if type(dmax) is not int or dmax < 0:
        raise ValueError(f"dmax must be a nonnegative integer, got {dmax!r}")
    _check_size(len(pmap.source), 1, dmax, budget)
    # Only the number of distinct images counts, so no fibre is built.
    codes = _image_codes(pmap, dmax)
    sizes = [len(set(map(sum, combinations_with_replacement(codes, d)))) for d in range(dmax + 1)]
    return _flatness(k, n, sizes)


def _flatness(k: int, n: int, sizes: Iterable[int]) -> FlatnessReport:
    """The flatness report from the distinct image counts of degree 0, 1, ..."""
    rows = tuple((d, got, hilbert_dim_rect(k, n, d)) for d, got in enumerate(sizes))
    return FlatnessReport(ok=all(got == want for _, got, want in rows), rows=rows)


def _kernel_and_flatness(
    codes: list[int], k: int, n: int, dmax: int, max_binomials: Optional[int]
) -> tuple[list[KernelSlice], FlatnessReport]:
    """kernel_slice for d = 1..dmax and flatness_check to dmax, on codes packed
    fit for degree dmax, building each degree's fibres once, and the binomials
    of a slice only when it has at most max_binomials of them (all if None)."""
    slices = []
    sizes = [1]
    for d in range(1, dmax + 1):
        fibres, members = _fibres(codes, d, max_binomials)
        slices.append(_slice(len(codes), d, fibres, members))
        sizes.append(len(fibres))
    return slices, _flatness(k, n, sizes)


def _index_label(indices: tuple[int, ...]) -> str:
    """The indices joined directly when each is 1..9, else joined by '-'."""
    return ("" if all(1 <= c <= 9 for c in indices) else "-").join(map(str, indices))


def plucker_variable_name(subset: Subset) -> str:
    return "p" + _index_label(subset)


def _format_exponents(names: list[str], exponents: Exponents) -> str:
    """The monomial with these exponents over names, from its positive entries."""
    parts = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exponents) if e > 0]
    return "*".join(parts) if parts else "1"


def format_plucker_exponents(pmap: PluckerMap, exponents: Exponents) -> str:
    if len(exponents) != len(pmap.source):
        raise ValueError(f"{len(exponents)} exponents for {len(pmap.source)} Pluecker variables")
    return _format_exponents([plucker_variable_name(sub) for sub in pmap.source], exponents)


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
