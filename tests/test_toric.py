"""Pluecker monomial maps, kernel slices, and Hilbert-function flatness."""

import json
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb
from pathlib import Path

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
    with pytest.raises(ValueError, match="non-empty"):
        PluckerMap((), ())


def test_plucker_map_refuses_source_subsets_of_more_than_one_size():
    img = Monomial.of(3, xvar(1))
    with pytest.raises(ValueError, match="more than one size"):
        PluckerMap(((1, 2), (1, 2, 3)), (img, img))


def test_plucker_map_refuses_images_over_more_than_one_ambient_n():
    """Packed by variable name alone, x1 over n = 3 and x1 over n = 5 would
    give one code, and kernel_slice a binomial between them."""
    with pytest.raises(ValueError, match="more than one ambient n"):
        PluckerMap(((1, 2), (1, 3)), (Monomial.of(3, xvar(1)), Monomial.of(5, xvar(1))))


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
    # n = k columns: the one subset is all of them.
    assert diagonal_plucker_map(2, 2).assignment == {(1, 2): Monomial.of(2, xvar(1), yvar(2))}
    pm = diagonal_plucker_map(3, 3)
    assert pm.assignment == {(1, 2, 3): Monomial.of(3, xvar(1), yvar(2), zvar(3))}


@pytest.mark.parametrize("k, n", [(2.0, 4), (2, 4.0), (True, 4), (2, True), (3, Fraction(5))])
def test_diagonal_plucker_map_rejects_an_argument_that_is_not_an_int(k, n):
    with pytest.raises(ValueError, match="must be integers"):
        diagonal_plucker_map(k, n)


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


BAD_BUDGETS = [1.5, None, -1, True, "10", Fraction(10)]


@pytest.mark.parametrize("budget", BAD_BUDGETS)
def test_kernel_slice_refuses_a_budget_that_is_not_a_nonnegative_int(budget):
    pm = diagonal_plucker_map(2, 4)
    with pytest.raises(ValueError, match="budget must be a nonnegative integer"):
        kernel_slice(pm, 2, budget=budget)


@pytest.mark.parametrize("budget", BAD_BUDGETS)
def test_flatness_check_refuses_a_budget_that_is_not_a_nonnegative_int(budget):
    pm = diagonal_plucker_map(2, 4)
    with pytest.raises(ValueError, match="budget must be a nonnegative integer"):
        flatness_check(pm, 2, 4, 2, budget=budget)


def test_one_pluecker_variable_caps_the_indices_its_degrees_read():
    """At one Pluecker variable each degree has one monomial, a d-tuple, so
    the budget caps the indices the tuples of all the degrees read."""
    pm = plucker_map_from_matching_field(BlockStructure((3,)))
    for dmax, budget, reads in [(1000, 500_000, 500500), (8000, 1, 32004000)]:
        with pytest.raises(TooLargeError) as info:
            flatness_check(pm, 3, 3, dmax, budget)
        assert str(info.value) == (
            f"degrees 1 to {dmax} read {reads} indices, over the budget of {budget}"
        )
    assert flatness_check(pm, 3, 3, 999).ok
    with pytest.raises(TooLargeError) as info:
        kernel_slice(pm, 11, budget=10)
    assert str(info.value) == "degrees 11 to 11 read 11 indices, over the budget of 10"
    assert kernel_slice(pm, 10, budget=10).dimension == 0


def test_an_empty_degree_range_checks_nothing():
    for n in (3, 6):
        pm = plucker_map_from_matching_field(BlockStructure((n,)))
        report = flatness_check(pm, 3, n, 0, budget=0)
        assert report == toric.FlatnessReport(ok=True, rows=((0, 1, 1),)), n


def _refusal(s, low, high, budget):
    """The message of the size rule on these degrees, or None if it passes."""
    try:
        toric._check_size(s, low, high, budget)
    except TooLargeError as exc:
        return str(exc)
    return None


def test_the_size_rule_counts_the_degrees_together_in_closed_form():
    """comb(s + high, s) - comb(s + low - 1, s) is the sum over the degrees of
    their comb(s + d - 1, d) monomials, and at s = 1 the same count with
    k = 2 is the sum of d, the indices the d-tuples read: the rule passes at
    exactly that budget and names that number one below it."""
    for s in (0, 1, 2, 3, 4, 10, 20, 56):
        for low in range(1, 13):
            for high in range(low - 1, 13):
                degrees = range(low, high + 1)
                if s == 1:
                    total = sum(degrees)
                    found = f"read {total} indices"
                else:
                    total = sum(comb(s + d - 1, d) for d in degrees)
                    found = f"have {total} monomials"
                assert _refusal(s, low, high, total) is None, (s, low, high)
                if total:
                    assert _refusal(s, low, high, total - 1) == (
                        f"degrees {low} to {high} {found}, over the budget of {total - 1}"
                    ), (s, low, high)


def test_a_refusal_prints_counts_to_10000_bits_and_bounds_larger_ones():
    """At degree 1 over s variables the count is s: 2^10000 - 1 prints in full,
    all 3 011 digits, and 2^10000 as the power of two it is at least; the
    lower bound keeps one "at least"."""
    full = 2**10_000 - 1
    assert _refusal(full, 1, 1, 500_000) == (
        f"degrees 1 to 1 have {full} monomials, over the budget of 500000"
    )
    assert len(str(full)) == 3011
    assert _refusal(2**10_000, 1, 1, 500_000) == (
        "degrees 1 to 1 have at least 2^10000 monomials, over the budget of 500000"
    )
    assert _refusal(1, 1, 2**10_000, 0) == (
        f"degrees 1 to {2**10_000} read at least 2^19999 indices, over the budget of 0"
    )
    assert _refusal(2**10_000, 1, 1, 1) == (
        "degrees 1 to 1 have at least 2 monomials, over the budget of 1"
    )


def test_the_size_rule_decides_as_the_exact_total_where_it_bounds_it():
    """Where the range reaches degree a = budget.bit_length() the rule counts
    a + 1 variables only; it refuses exactly when the exact total is over the
    budget, and then names the exact total or a lower bound still over it."""
    for s in range(40):
        for low in range(1, 8):
            for high in range(low - 1, 25):
                exact = sum(d if s == 1 else comb(s + d - 1, d) for d in range(low, high + 1))
                for budget in (0, 1, 9, 100, 4000):
                    message = _refusal(s, low, high, budget)
                    assert (message is None) == (exact <= budget), (s, low, high, budget)
                    if message is not None and "at least" in message:
                        shown = int(message.split("at least ")[1].split()[0])
                        assert budget < shown < exact, (s, low, high, budget)
                    elif message is not None:
                        assert f" {exact} " in message, (s, low, high, budget)


def _per_degree_rule(s, dmax, budget):
    """The size rule as it was, for comparison: each degree 1..dmax alone
    within the budget and, at s = 1, dmax(dmax + 1)/2 indices within it."""
    if s == 1:
        return dmax * (dmax + 1) // 2 <= budget
    return all(comb(s + d - 1, d) <= budget for d in range(1, dmax + 1))


def test_the_closed_form_lowers_the_default_dmax_only_at_four_and_five_columns():
    def largest(accepts):
        dmax = 0
        while accepts(dmax + 1):
            dmax += 1
        return dmax

    budget = toric.KERNEL_BUDGET
    moved = {}
    for n in range(3, 200):
        s = comb(n, 3)
        before = largest(lambda dmax: _per_degree_rule(s, dmax, budget))
        after = largest(lambda dmax: _refusal(s, 1, dmax, budget) is None)
        if after != before:
            moved[n] = (before, after)
    assert moved == {4: (142, 56), 5: (13, 11)}


def test_fibres_builds_no_bit_table_when_no_image_repeats():
    """In degree 1 no image repeats, so the support bits of the 9880 Pluecker
    variables at n = 40 (about 6 MiB of ints) are never built."""
    pm = plucker_map_from_matching_field(BlockStructure((40,)))
    tracemalloc.start()
    try:
        fibres, members = toric._fibres(toric._image_codes(pm, 1), 1, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(fibres) == 9880 and members == {}
    assert peak < 4 * 2**20, peak


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
        slices, flat = toric._kernel_and_flatness(toric._image_codes(pm, 3), 3, n, 3, None)
        assert slices == [kernel_slice(pm, d) for d in (1, 2, 3)], parts
        assert flat == flatness_check(pm, 3, n, 3), parts
    for i, pm in enumerate(random_plucker_maps()):
        slices, flat = toric._kernel_and_flatness(toric._image_codes(pm, 4), 2, 5, 4, None)
        assert slices == [kernel_slice(pm, d) for d in (1, 2, 3, 4)], i
        assert flat == flatness_check(pm, 2, 5, 4), i


def test_flatness_check_equals_the_golden_flatness_rows():
    """flatness_check counts distinct image codes with no fibre built; its
    rows must equal those the kernel subcommand pinned in the golden file."""
    golden = json.loads((Path(__file__).parent / "data" / "kernel_golden.json").read_text())
    for case in golden["cases"]:
        parts = tuple(case["parts"])
        pm = plucker_map_from_matching_field(BlockStructure(parts))
        rep = flatness_check(pm, 3, sum(parts), 3)
        assert [list(row) for row in rep.rows] == case["flatness_rows"], parts


def test_flatness_fails_for_a_non_injective_map():
    img = Monomial.of(2, xvar(1), yvar(2))
    pm = PluckerMap(((1, 2), (1, 3)), (img, img))
    rep = flatness_check(pm, 2, 3, 1)
    assert not rep.ok


def test_plucker_variable_names():
    assert plucker_variable_name((1, 3, 5)) == "p135"
    assert plucker_variable_name((2, 10, 11)) == "p2-10-11"


def test_plucker_exponents_name_each_positive_entry():
    pm = diagonal_plucker_map(2, 4)  # p12, p13, p14, p23, p24, p34
    assert format_plucker_exponents(pm, (2, 0, 1, 0, 0, 3)) == "p12^2*p14*p34^3"
    assert format_plucker_exponents(pm, (0, 1, 0, 0, 0, 0)) == "p13"
    assert format_plucker_exponents(pm, (0,) * 6) == "1"
    assert format_plucker_exponents(pm, (0, -1, 0, 0, 0, 0)) == "1"


def test_plucker_exponents_refuse_a_tuple_of_the_wrong_length():
    pm = diagonal_plucker_map(2, 3)  # p12, p13, p23
    for exponents in [(), (1,), (1, 0, 0, 0)]:
        with pytest.raises(ValueError, match="exponents for 3 Pluecker variables"):
            format_plucker_exponents(pm, exponents)


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
    """kernel_slice builds its degree's fibres alone, and it and flatness_check
    each pack the map once, for their top degree."""
    built, packed = [], []
    fibres, image_codes = toric._fibres, toric._image_codes

    def counting(codes, d, max_binomials):
        built.append(d)
        return fibres(codes, d, max_binomials)

    def packing(pmap, d):
        packed.append(d)
        return image_codes(pmap, d)

    monkeypatch.setattr(toric, "_fibres", counting)
    monkeypatch.setattr(toric, "_image_codes", packing)
    pm = plucker_map_from_matching_field(BlockStructure((2, 3)))
    kernel_slice(pm, 3)
    flatness_check(pm, 3, 5, 4)
    assert built == [3] and packed == [3, 4]


def test_repeated_power_map_is_exercised():
    pm = repeated_power_map()
    slices = [kernel_slice(pm, d) for d in range(1, 5)]
    assert [ks.dimension for ks in slices] == [1, 6, 21, 58]
    assert [ks.new_minimal_generators for ks in slices] == [1, 0, 0, 2]



def weighted_map(weights):
    """The map p_i -> x1^w for the i-th weight w: members of a fibre are the
    index multisets of one weight sum."""
    images = tuple(Monomial(1, {xvar(1): w}) for w in weights)
    return PluckerMap(tuple((i,) for i in range(1, len(weights) + 1)), images)


def test_a_third_member_joins_two_classes_that_were_apart():
    # Weight 10 in degree 3: p1*p3*p4 and p2^2*p5 share no variable, and
    # p2*p3^2, which arrives last, meets both.
    pm = weighted_map((1, 2, 4, 5, 6))
    codes = toric._image_codes(pm, 3)
    members = [(0, 2, 3), (1, 1, 4), (1, 2, 2)]
    assert {sum(codes[i] for i in m) for m in members} == {codes[0] + codes[2] + codes[3]}
    fibres, kept = toric._fibres(codes, 3, None)
    assert kept[codes[0] + codes[2] + codes[3]] == members
    assert fibres[codes[0] + codes[2] + codes[3]] == 0b11111
    assert kernel_slice(pm, 3) == reference_kernel_slice(pm, 3)


def test_members_that_meet_no_class_stay_apart():
    # Weight 7 in degree 2: p1*p6, p2*p5 and p3*p4, pairwise apart.
    pm = weighted_map((1, 2, 3, 4, 5, 6))
    codes = toric._image_codes(pm, 2)
    fibres, _ = toric._fibres(codes, 2, None)
    assert sorted(fibres[codes[0] + codes[5]]) == [0b001100, 0b010010, 0b100001]
    assert fibres[codes[0] + codes[0]] == (0, 0)
    ks = kernel_slice(pm, 2)
    assert ks == reference_kernel_slice(pm, 2)
    assert ks.new_minimal_generators == ks.dimension


def test_members_are_kept_while_non_roots_number_at_most_max_binomials():
    pm = plucker_map_from_matching_field(BlockStructure((3, 2)))
    s, d = len(pm.source), 2
    # Every non-root member arrives before the last fibre opens, so a count
    # taken at each arrival, not only at the end, decides the cutoff.
    codes = toric._image_codes(pm, d)
    sums = [sum(codes[i] for i in m) for m in combinations_with_replacement(range(s), d)]
    opens = [i for i, code in enumerate(sums) if code not in sums[:i]]
    joins = [i for i in range(len(sums)) if i not in opens]
    assert joins and max(joins) < max(opens)
    full = kernel_slice(pm, d)
    assert full.dimension == len(joins) == 5
    slices, _ = toric._kernel_and_flatness(codes, 3, 5, d, full.dimension)
    assert slices[-1] == full
    slices, _ = toric._kernel_and_flatness(codes, 3, 5, d, full.dimension - 1)
    assert slices[-1].binomials is None
    assert slices[-1].dimension == full.dimension
    assert toric._fibres(codes, d, 0)[1] is None


def test_kernel_memory_peak_on_three_three_two():
    pm = plucker_map_from_matching_field(BlockStructure((3, 3, 2)))
    tracemalloc.start()
    try:
        slices, flat = toric._kernel_and_flatness(toric._image_codes(pm, 3), 3, 8, 3, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [ks.dimension for ks in slices] == [0, 420, 16744] and flat.ok
    assert peak < 2.5 * 2**20, peak
