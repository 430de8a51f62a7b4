"""Pluecker monomial maps, kernel slices, and Hilbert-function flatness."""

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from matchfields import (
    BlockStructure,
    KernelSlice,
    Monomial,
    PluckerMap,
    TooLargeError,
    UnknownVariableError,
    diagonal_plucker_map,
    flatness_check,
    format_plucker_exponents,
    hilbert_dim_rect,
    image_monomial,
    kernel_slice,
    plucker_map_from_matching_field,
    plucker_quadric_gr24,
    plucker_variable_name,
    xvar,
    yvar,
    zvar,
)
from matchfields import toric
from matchfields.linalg import rational_rank

from helpers import all_compositions


def test_plucker_map_validation():
    img = Monomial.of(2, xvar(1))
    with pytest.raises(ValueError):
        PluckerMap(((1, 2), (1, 2)), (img, img))
    with pytest.raises(ValueError):
        PluckerMap(((2, 1),), (img,))
    with pytest.raises(ValueError):
        PluckerMap(((1, 2),), (img, img))


def test_matching_field_map_images():
    a = BlockStructure((3, 2))
    pm = plucker_map_from_matching_field(a)
    assert len(pm.source) == 10
    assign = pm.assignment
    assert assign[(1, 2, 3)] == Monomial.of(5, xvar(1), yvar(2), zvar(3))
    # swapped subset: {1,4,5} -> x4*y1*z5
    assert assign[(1, 4, 5)] == Monomial.of(5, xvar(4), yvar(1), zvar(5))
    assert len(set(pm.images)) == len(pm.images)


def test_diagonal_map_two_and_three_rows():
    pm2 = diagonal_plucker_map(2, 4)
    assert len(pm2.source) == 6
    assert pm2.assignment[(1, 3)] == Monomial.of(4, xvar(1), yvar(3))
    pm3 = diagonal_plucker_map(3, 5)
    assert pm3.assignment[(2, 3, 5)] == Monomial.of(5, xvar(2), yvar(3), zvar(5))
    with pytest.raises(ValueError):
        diagonal_plucker_map(4, 5)
    with pytest.raises(ValueError):
        diagonal_plucker_map(3, 2)


def test_image_monomial_and_unknown_variable():
    pm = diagonal_plucker_map(2, 4)
    m = image_monomial(pm, {(1, 2): 2, (3, 4): 1})
    assert m == Monomial.of(4, xvar(1)).pow(2) * Monomial.of(4, yvar(2)).pow(2) * Monomial.of(
        4, xvar(3), yvar(4)
    )
    with pytest.raises(UnknownVariableError):
        image_monomial(pm, {(1, 5): 1})
    with pytest.raises(ValueError):
        image_monomial(pm, {(1, 2): -1})


def test_kernel_of_two_by_four_quadric():
    pm = diagonal_plucker_map(2, 4)
    ks = kernel_slice(pm, 2)
    assert isinstance(ks, KernelSlice)
    assert ks.dimension == 1
    assert ks.new_minimal_generators == 1
    ((plus, minus),) = ks.binomials
    rendered = {
        format_plucker_exponents(pm, plus),
        format_plucker_exponents(pm, minus),
    }
    assert rendered == {"p13*p24", "p14*p23"}
    assert kernel_slice(pm, 1).dimension == 0


def test_kernel_slices_three_by_six_diagonal():
    pm = plucker_map_from_matching_field(BlockStructure((6,)))
    ks = kernel_slice(pm, 2)
    # 210 quadratic monomials in 20 variables, 175 distinct images.
    assert ks.dimension == 210 - 175 == 35
    assert ks.new_minimal_generators == 35
    assert len(ks.binomials) == 35


def test_kernel_binomials_have_equal_images():
    for parts in [(3, 2), (2, 2, 2)]:
        pm = plucker_map_from_matching_field(BlockStructure(parts))
        ks = kernel_slice(pm, 2)
        for plus, minus in ks.binomials:
            ip = image_monomial(pm, dict(zip(pm.source, plus)))
            im = image_monomial(pm, dict(zip(pm.source, minus)))
            assert ip == im
            assert plus != minus
            assert sum(plus) == sum(minus) == 2


def test_kernel_generated_in_degree_two_for_n5():
    pm = plucker_map_from_matching_field(BlockStructure((3, 2)))
    ks2 = kernel_slice(pm, 2)
    assert ks2.dimension == 5 and ks2.new_minimal_generators == 5
    ks3 = kernel_slice(pm, 3)
    assert ks3.dimension == 45
    assert ks3.new_minimal_generators == 0


@pytest.mark.parametrize("d", [0, -1, True, 2.0])
def test_kernel_slice_rejects_a_degree_that_is_not_a_positive_int(d):
    pm = plucker_map_from_matching_field(BlockStructure((4,)))
    with pytest.raises(ValueError, match="degree must be an integer"):
        kernel_slice(pm, d)


@pytest.mark.parametrize("dmax", [-1, True, False, 2.0])
def test_flatness_check_rejects_a_dmax_that_is_not_a_nonnegative_int(dmax):
    pm = plucker_map_from_matching_field(BlockStructure((6,)))
    with pytest.raises(ValueError, match="dmax must be a nonnegative integer"):
        flatness_check(pm, 3, 6, dmax)


def test_flatness_check_to_degree_zero():
    pm = plucker_map_from_matching_field(BlockStructure((6,)))
    assert flatness_check(pm, 3, 6, 0) == toric.FlatnessReport(ok=True, rows=((0, 1, 1),))


def test_kernel_budget():
    pm = plucker_map_from_matching_field(BlockStructure((6,)))
    with pytest.raises(TooLargeError):
        kernel_slice(pm, 3, budget=1000)


def test_hilbert_dim_rect_frozen_values():
    assert hilbert_dim_rect(2, 4, 2) == 20
    assert hilbert_dim_rect(3, 6, 2) == 175
    assert hilbert_dim_rect(3, 5, 2) == 50
    assert hilbert_dim_rect(3, 5, 3) == 175
    assert hilbert_dim_rect(3, 6, 1) == 20
    assert hilbert_dim_rect(3, 7, 0) == 1
    with pytest.raises(ValueError):
        hilbert_dim_rect(0, 3, 1)
    with pytest.raises(ValueError):
        hilbert_dim_rect(3, 2, 1)
    # Degree 0 checks k and n as every other degree does.
    for k, n in [(0, 3), (5, 3)]:
        with pytest.raises(ValueError, match="need 1 <= k <= n"):
            hilbert_dim_rect(k, n, 0)


@pytest.mark.parametrize(
    "k, n, d",
    [(3, 6, 2.0), (3.0, 6, 2), (3, 6.0, 0), (3, 6, Fraction(2)), (True, 4, 1), (2, 4, False)],
)
def test_hilbert_dim_rect_rejects_an_argument_that_is_not_an_int(k, n, d):
    with pytest.raises(ValueError, match="must be integers"):
        hilbert_dim_rect(k, n, d)


def _hilbert_dim_rect_by_fractions(k, n, d):
    """The reference: the hook content product as one Fraction per cell."""
    if d == 0:
        return 1
    out = Fraction(1)
    for i in range(1, k + 1):
        for j in range(1, d + 1):
            hook = (d - j) + (k - i) + 1
            out *= Fraction(n + j - i, hook)
    assert out.denominator == 1
    return out.numerator


def test_hilbert_dim_rect_matches_the_fraction_product():
    for k in (1, 2, 3):
        for n in range(k, 21):
            for d in range(61):
                want = _hilbert_dim_rect_by_fractions(k, n, d)
                assert hilbert_dim_rect(k, n, d) == want, (k, n, d)


def test_hilbert_dim_rect_column_strictness_small_check():
    # k = n forces one filling per column multiset: d columns of 1..k each.
    assert hilbert_dim_rect(3, 3, 4) == 1
    # One row: monomials of degree d in n variables.
    assert hilbert_dim_rect(1, 4, 3) == 20


def test_flatness_all_structures_n5_n6():
    for n in (5, 6):
        for parts in all_compositions(n):
            pm = plucker_map_from_matching_field(BlockStructure(parts))
            rep = flatness_check(pm, 3, n, 2)
            assert rep.ok, (parts, rep.rows)
            assert rep.rows[0] == (0, 1, 1)
            assert rep.rows[1][1] == len(pm.source)


def test_shared_slices_equal_kernel_slice_and_flatness_check():
    for parts in [(4,), (2, 3), (1, 2, 1, 1)]:
        n = sum(parts)
        pm = plucker_map_from_matching_field(BlockStructure(parts))
        slices, flat = toric._kernel_and_flatness(pm, 3, n, 3, 500_000, None)
        assert slices == [kernel_slice(pm, d) for d in (1, 2, 3)], parts
        assert flat == flatness_check(pm, 3, n, 3), parts
    for i, pm in enumerate(random_plucker_maps()):
        slices, flat = toric._kernel_and_flatness(pm, 2, 5, 4, 500_000, None)
        assert slices == [kernel_slice(pm, d) for d in (1, 2, 3, 4)], i
        assert flat == flatness_check(pm, 2, 5, 4), i


def test_flatness_fails_for_a_non_injective_map():
    img = Monomial.of(2, xvar(1), yvar(2))
    pm = PluckerMap(((1, 2), (1, 3)), (img, img))
    rep = flatness_check(pm, 2, 3, 1)
    assert not rep.ok


def test_plucker_variable_names():
    assert plucker_variable_name((1, 3, 5)) == "p135"
    assert plucker_variable_name((2, 10, 11)) == "p2-10-11"


def test_quadric_polynomial():
    f = plucker_quadric_gr24()
    assert f.num_terms == 3
    assert f.coefficient(Monomial.of(6, xvar(1), xvar(6))) == 1
    assert f.coefficient(Monomial.of(6, xvar(2), xvar(5))) == -1
    assert f.coefficient(Monomial.of(6, xvar(3), xvar(4))) == 1


def reference_kernel_slice(pm, d):
    """The direct algorithm: image monomials group the degree-d slice, and
    every lower-degree spanning binomial times every monomial of the
    complementary degree is a row of a rational matrix whose rank is the
    part of the slice that lower degrees reach."""
    s = len(pm.source)

    def monomials(deg):
        out = []
        for combo in combinations_with_replacement(range(s), deg):
            e = [0] * s
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
        return out

    def spanning_binomials(deg):
        fibres = {}
        for e in monomials(deg):
            image = image_monomial(pm, {sub: k for sub, k in zip(pm.source, e) if k})
            fibres.setdefault(image, []).append(e)
        out = []
        for members in sorted(fibres.values(), key=min):
            root = min(members)
            out.extend((other, root) for other in sorted(members) if other != root)
        return out

    index = {e: i for i, e in enumerate(monomials(d))}
    binomials = spanning_binomials(d)
    rows = []
    for d2 in range(1, d):
        for plus, minus in spanning_binomials(d2):
            for bump in monomials(d - d2):
                p = tuple(x + b for x, b in zip(plus, bump))
                q = tuple(x + b for x, b in zip(minus, bump))
                rows.append({index[p]: Fraction(1), index[q]: Fraction(-1)})
    spanned = rational_rank(rows) if rows else 0
    return KernelSlice(
        degree=d,
        dimension=len(binomials),
        binomials=tuple(binomials),
        new_minimal_generators=len(binomials) - spanned,
    )


def repeated_power_map():
    """Images with exponents up to 4, two of them equal: a map that is not
    injective in degree 1 and has new kernel generators in degree 4.  There
    p14^4 -> x1^16*y2^4 and p23^3*p24 -> y2^5 would share an image code if
    the x1 field held only 4 bits."""
    n = 3
    x1, y2 = xvar(1), yvar(2)
    images = (
        Monomial(n, {x1: 2}),
        Monomial(n, {x1: 2}),
        Monomial(n, {x1: 4, y2: 1}),
        Monomial(n, {y2: 1}),
        Monomial(n, {y2: 2}),
        Monomial(n, {x1: 1, y2: 3}),
    )
    return PluckerMap(tuple(combinations(range(1, 5), 2)), images)


def random_plucker_maps(count=200):
    """Seeded maps from 3 to 6 of the ten 2-subsets of 1..5, each image a
    monomial in x1 and y1 with exponents up to 3, and the first image
    repeated: no map is injective, and about a third of them have new
    kernel generators in degree 2, 3 or 4."""
    rng = random.Random(14)
    subsets = list(combinations(range(1, 6), 2))
    maps = []
    for _ in range(count):
        s = rng.randint(3, 6)
        images = [
            Monomial(2, {xvar(1): rng.randint(0, 3), yvar(1): rng.randint(0, 3)})
            for _ in range(s)
        ]
        images[rng.randrange(1, s)] = images[0]
        source = tuple(sorted(rng.sample(subsets, s)))
        maps.append(PluckerMap(source, tuple(images)))
    return maps


def differential_cases():
    cases = [
        (parts, d) for n in range(3, 7) for parts in all_compositions(n) for d in (1, 2)
    ]
    cases += [(parts, 3) for parts in [(3, 2), (2, 2, 1), (1, 1, 1, 1, 1)]]
    return [
        pytest.param(parts, d, id=f"{','.join(map(str, parts))}-d{d}") for parts, d in cases
    ]


@pytest.mark.parametrize("parts, d", differential_cases())
def test_kernel_slice_matches_reference(parts, d):
    pm = plucker_map_from_matching_field(BlockStructure(parts))
    assert kernel_slice(pm, d) == reference_kernel_slice(pm, d)


@pytest.mark.parametrize(
    "pm, dmax",
    [
        (diagonal_plucker_map(2, 5), 3),
        (diagonal_plucker_map(3, 6), 3),
        (repeated_power_map(), 4),
    ],
    ids=["diagonal-2x5", "diagonal-3x6", "repeated-powers"],
)
def test_kernel_slice_matches_reference_on_other_maps(pm, dmax):
    for d in range(1, dmax + 1):
        assert kernel_slice(pm, d) == reference_kernel_slice(pm, d)


def test_kernel_slice_matches_reference_on_random_maps():
    for i, pm in enumerate(random_plucker_maps()):
        for d in range(1, 5):
            assert kernel_slice(pm, d) == reference_kernel_slice(pm, d), (i, d)


def test_kernel_slice_builds_only_its_own_degree(monkeypatch):
    built = []
    fibres = toric._fibres

    def counting(pmap, d, budget):
        built.append(d)
        return fibres(pmap, d, budget)

    monkeypatch.setattr(toric, "_fibres", counting)
    kernel_slice(plucker_map_from_matching_field(BlockStructure((2, 3))), 3)
    assert built == [3]


def test_repeated_power_map_is_exercised():
    pm = repeated_power_map()
    slices = [kernel_slice(pm, d) for d in range(1, 5)]
    assert [ks.dimension for ks in slices] == [1, 6, 21, 58]
    assert [ks.new_minimal_generators for ks in slices] == [1, 0, 0, 2]

