"""Linear quotients, Betti numbers, and the independent homology oracle."""

import inspect
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest

from matchfields import (
    BettiTable,
    BlockStructure,
    Monomial,
    MonomialIdeal,
    NotLinearQuotientsError,
    QuotientCertificate,
    betti_diagonal_closed_form,
    betti_diagonal_table,
    betti_from_certificate,
    betti_from_variable_sets,
    betti_oracle,
    colon_by_monomial,
    diagonal_lex_sets,
    linear_quotients_certificate,
    matching_ideal,
    relabeled_ideal,
    s_set_variables,
    sort_generators,
    xvar,
    yvar,
    zvar,
)
from matchfields import resolution
from matchfields.errors import TooLargeError
from matchfields.linalg import rational_rank

from helpers import all_compositions


def test_betti_table_container():
    t = BettiTable((4, 3))
    assert list(t) == [4, 3]
    assert len(t) == 2
    assert t[0] == 4 and t[1] == 3 and t[5] == 0
    with pytest.raises(ValueError):
        BettiTable((1, 0))
    with pytest.raises(ValueError):
        BettiTable((-1,))


@pytest.mark.parametrize("values", [(1.7, True), (3.0,), (True,), ("3",), (4, Fraction(3))])
def test_betti_table_refuses_entries_that_are_not_ints(values):
    """A float, bool or str is refused, not truncated or parsed by int()."""
    with pytest.raises(ValueError, match="must be nonnegative integers"):
        BettiTable(values)


def test_betti_table_reads_zero_just_past_its_last_entry():
    t = BettiTable((3, 2))
    assert (t[1], t[2]) == (2, 0)


def test_betti_table_reads_zero_below_its_first_entry():
    """0 outside the table holds on both sides: i < 0 does not read from the end."""
    t = BettiTable((1, 2))
    assert (t[-1], t[-2], t[0]) == (0, 0, 1)
    assert betti_diagonal_table(5)[-1] == 0


def test_betti_table_takes_a_zero_entry_before_its_last():
    """0 is a nonnegative integer: only a trailing zero is refused."""
    assert BettiTable((2, 0, 1)).values == (2, 0, 1)


def test_oracle_takes_25_generators_by_default_and_refuses_26():
    """The ideal (x1..x5)(y1..y5) has the tensor product of the two Koszul
    resolutions, beta_k = sum_i C(5, i + 1) C(5, k - i + 1)."""
    n = 5
    grid = [Monomial.of(n, xvar(i), yvar(j)) for i in range(1, 6) for j in range(1, 6)]
    want = [sum(comb(5, i + 1) * comb(5, k - i + 1) for i in range(k + 1)) for k in range(9)]
    assert list(betti_oracle(MonomialIdeal(frozenset(grid)))) == want
    with pytest.raises(TooLargeError, match="26 generators exceeds the oracle limit 25"):
        betti_oracle(MonomialIdeal(frozenset(grid + [Monomial.of(n, zvar(1))])))


def test_minimal_masks_keeps_each_inclusion_minimal_mask_once_smallest_first():
    kept = resolution._minimal_masks([0b111, 0b011, 0b011, 0b100, 0b1000, 0b1100])
    assert sorted(kept) == [0b11, 0b100, 0b1000]
    assert [m.bit_count() for m in kept] == [1, 1, 2]


def test_oracle_of_the_zero_ideal_is_the_empty_table():
    assert betti_oracle(MonomialIdeal(frozenset())) == BettiTable(())


@pytest.mark.parametrize("cap", [None, -1, 2.5, True, "25"])
def test_oracle_refuses_a_cap_that_is_not_an_int_of_at_least_zero(cap):
    ideal = MonomialIdeal(frozenset({Monomial.of(3, xvar(1))}))
    for gens in (ideal, MonomialIdeal(frozenset())):
        with pytest.raises(ValueError, match=r"^max_generators must be a nonnegative integer, got "):
            betti_oracle(gens, max_generators=cap)


def test_colon_by_monomial():
    n = 2
    xy = Monomial.of(n, xvar(1), yvar(1))
    xz = Monomial.of(n, xvar(1), zvar(1))
    colon = colon_by_monomial([xy], xz)
    assert set(colon.generators) == {Monomial.of(n, yvar(1))}
    # A generator dividing the divisor colons to the whole ring.
    colon = colon_by_monomial([Monomial.of(n, xvar(1))], xz)
    assert set(colon.generators) == {Monomial.one(n)}


def test_linear_quotients_frozen_example():
    a = BlockStructure((3, 2))
    ordered = [t.monomial(5) for t in sort_generators(a)]
    cert = linear_quotients_certificate(ordered)
    assert cert.is_linear
    assert cert.first_failure is None
    assert [len(s) for s in cert.sets] == [0, 1, 2, 1, 2, 2, 1, 2, 2, 2]
    assert list(betti_from_certificate(cert)) == [10, 15, 6]


def test_certificate_sets_equal_adjacency_variable_sets():
    # The colon variables along the block ordering are exactly the
    # one-coordinate-difference variables of earlier generators.
    for parts in [(3, 2), (2, 2), (4,), (2, 2, 2), (1, 2, 3)]:
        a = BlockStructure(parts)
        n = a.n
        ts = sort_generators(a)
        cert = linear_quotients_certificate([t.monomial(n) for t in ts])
        assert cert.is_linear, parts
        for t, got in zip(ts, cert.sets):
            assert got == s_set_variables(a, t), (parts, t)


def test_linear_quotients_rejects_nonminimal_input():
    n = 1
    x = Monomial.of(n, xvar(1))
    with pytest.raises(ValueError):
        linear_quotients_certificate([x, x * x])


def test_non_linear_ordering_is_reported():
    # x*y, z*w in disjoint variables: the colon is generated in degree 2.
    n = 2
    xy = Monomial.of(n, xvar(1), yvar(1))
    zw = Monomial.of(n, zvar(1), zvar(2))
    cert = linear_quotients_certificate([xy, zw])
    assert not cert.is_linear
    assert cert.first_failure[0] == 1
    assert cert.first_failure[1] == xy
    with pytest.raises(NotLinearQuotientsError):
        betti_from_certificate(cert)


def test_betti_from_variable_sets():
    sets = [frozenset(), frozenset({xvar(1)}), frozenset({xvar(1), yvar(1)})]
    assert list(betti_from_variable_sets(sets)) == [3, 3, 1]
    assert list(betti_from_variable_sets([])) == []


def test_diagonal_closed_form_frozen_tables():
    assert list(betti_diagonal_table(3)) == [1]
    assert list(betti_diagonal_table(4)) == [4, 3]
    assert list(betti_diagonal_table(5)) == [10, 15, 6]
    assert list(betti_diagonal_table(6)) == [20, 45, 36, 10]
    assert list(betti_diagonal_table(7)) == [35, 105, 126, 70, 15]
    assert betti_diagonal_closed_form(6, 0) == 20
    assert betti_diagonal_closed_form(6, 9) == 0


@pytest.mark.parametrize("n", [2, 0, -1, True, 6.0, "6"])
def test_diagonal_table_rejects_n_that_is_too_small_or_not_an_int(n):
    with pytest.raises(ValueError, match="need an integer n >= 3"):
        betti_diagonal_table(n)


def test_diagonal_closed_form_is_the_eagon_northcott_product():
    """The product C(n, 3 + ell) * C(2 + ell, ell) against the sum over the
    largest column k of the lex colon sets, which have size k - 3."""
    for n in range(3, 40):
        for ell in range(n):
            want = sum(comb(k - 1, 2) * comb(k - 3, ell) for k in range(3, n + 1))
            assert betti_diagonal_closed_form(n, ell) == want, (n, ell)
    for n, ell in ((2, 0), (5, -1), (3, -2)):
        with pytest.raises(ValueError):
            betti_diagonal_closed_form(n, ell)


@pytest.mark.parametrize("n, ell", [(5.0, 1), (5, 1.0), (True, 0), (5, False), ("5", 1)])
def test_diagonal_closed_form_rejects_an_argument_that_is_not_an_int(n, ell):
    with pytest.raises(ValueError, match="need integers n >= 3 and ell >= 0"):
        betti_diagonal_closed_form(n, ell)


@pytest.mark.parametrize("n", [4.0, True, "4", 2])
def test_diagonal_lex_sets_rejects_n_that_is_too_small_or_not_an_int(n):
    with pytest.raises(ValueError, match="need an integer n >= 3"):
        diagonal_lex_sets(n)


def test_diagonal_closed_form_equals_certificate():
    for n in range(3, 8):
        a = BlockStructure((n,))
        cert = linear_quotients_certificate(
            [t.monomial(n) for t in sort_generators(a)]
        )
        assert list(betti_from_certificate(cert)) == list(betti_diagonal_table(n))


def test_diagonal_lex_sets_match_certificate():
    for n in range(3, 7):
        a = BlockStructure((n,))
        pairs = diagonal_lex_sets(n)
        cert = linear_quotients_certificate(
            [t.monomial(n) for t, _ in pairs]
        )
        assert cert.is_linear
        assert tuple(s for _, s in pairs) == cert.sets


def test_oracle_on_tiny_ideals():
    n = 1
    x = Monomial.of(n, xvar(1))
    y = Monomial.of(n, yvar(1))
    z = Monomial.of(n, zvar(1))
    # two variables: Koszul complex, betti (2, 1)
    ideal = MonomialIdeal(frozenset({x, y}))
    assert list(betti_oracle(ideal)) == [2, 1]
    # triangle x*y, y*z, z*x: betti (3, 2)
    ideal = MonomialIdeal(frozenset({x * y, y * z, z * x}))
    assert list(betti_oracle(ideal)) == [3, 2]
    # x^2, x*y, y^2: betti (3, 2)
    ideal = MonomialIdeal(frozenset({x * x, x * y, y * y}))
    assert list(betti_oracle(ideal)) == [3, 2]
    # complete intersection x^2, y^3
    ideal = MonomialIdeal(frozenset({x.pow(2), y.pow(3)}))
    assert list(betti_oracle(ideal)) == [2, 1]
    # whole ring
    assert list(betti_oracle(MonomialIdeal(frozenset({Monomial.one(n)})))) == [1]


def test_oracle_matches_certificate_all_structures_through_n5():
    for n in range(3, 6):
        for parts in all_compositions(n):
            a = BlockStructure(parts)
            ideal = matching_ideal(a)
            cert = linear_quotients_certificate(
                [t.monomial(n) for t in sort_generators(a)]
            )
            assert list(betti_oracle(ideal)) == list(betti_from_certificate(cert)), parts


def test_oracle_all_structures_at_n6_give_one_betti_table():
    for parts in all_compositions(6):
        got = list(betti_oracle(matching_ideal(BlockStructure(parts))))
        assert got == [20, 45, 36, 10], (parts, got)


def test_oracle_on_relabeled_ideal_matches():
    for parts in [(3, 2), (5,), (2, 2), (1, 1, 2)]:
        a = BlockStructure(parts)
        got = betti_oracle(relabeled_ideal(a))
        want = betti_oracle(matching_ideal(a))
        assert list(got) == list(want), parts


def test_oracle_generator_cap():
    a = BlockStructure((7,))
    with pytest.raises(TooLargeError):
        betti_oracle(matching_ideal(a))


def test_oracle_order_independence():
    # The oracle consumes an unordered ideal; shuffling generators of the
    # input cannot matter because MonomialIdeal stores a frozenset.
    a = BlockStructure((2, 2))
    gens = list(matching_ideal(a).generators)
    i1 = MonomialIdeal(frozenset(gens))
    i2 = MonomialIdeal(frozenset(reversed(gens)))
    assert list(betti_oracle(i1)) == list(betti_oracle(i2))


# ---------------------------------------------------------------------------
# Differential checks against the direct algorithm: exponent tuples, one
# complex per lattice element whose vertices are the dividing generators, and
# Fraction rows eliminated over the rationals.
# ---------------------------------------------------------------------------


def reference_rational_rank(rows):
    pivots = {}
    rank = 0
    for row in rows:
        work = {c: Fraction(v) for c, v in row.items() if v}
        while work:
            c = min(work)
            piv = pivots.get(c)
            if piv is None:
                inv = 1 / work[c]
                pivots[c] = {cc: vv * inv for cc, vv in work.items()}
                rank += 1
                break
            factor = work[c]
            for cc, vv in piv.items():
                nv = work.get(cc, Fraction(0)) - factor * vv
                if nv:
                    work[cc] = nv
                else:
                    work.pop(cc, None)
    return rank


def reference_maximal_masks(masks):
    uniq = sorted(set(masks), key=lambda m: -bin(m).count("1"))
    kept = []
    for m in uniq:
        if not any(m & ~big == 0 for big in kept):
            kept.append(m)
    return kept


def reference_union_homology(masks):
    masks = reference_maximal_masks(masks)
    while True:
        if not masks:
            return {-1: 1}
        if len(masks) == 1:
            return {} if masks[0] else {-1: 1}
        common = masks[0]
        for m in masks[1:]:
            common &= m
        if common:
            return {}
        membership = {}
        for idx, m in enumerate(masks):
            mm = m
            while mm:
                bit = mm & -mm
                membership[bit] = membership.get(bit, 0) | (1 << idx)
                mm ^= bit
        doomed = 0
        items = list(membership.items())
        for v, sv in items:
            for u, su in items:
                if u != v and sv & ~su == 0:
                    doomed = v
                    break
            if doomed:
                break
        if not doomed:
            break
        masks = reference_maximal_masks(m & ~doomed for m in masks)

    faces = set()
    for m in masks:
        s = m
        while True:
            faces.add(s)
            if not s:
                break
            s = (s - 1) & m
    by_count = {}
    for f in faces:
        by_count.setdefault(bin(f).count("1"), []).append(f)
    top = max(by_count)
    index = {
        c: {f: i for i, f in enumerate(sorted(fs))} for c, fs in by_count.items()
    }
    ranks = {}
    for c in range(1, top + 1):
        lower = index[c - 1]
        rows = []
        for f in by_count[c]:
            row = {}
            mm = f
            i = 0
            while mm:
                bit = mm & -mm
                row[lower[f ^ bit]] = Fraction(1) if i % 2 == 0 else Fraction(-1)
                mm ^= bit
                i += 1
            rows.append(row)
        ranks[c] = reference_rational_rank(rows)
    out = {}
    for c in range(top + 1):
        h = len(by_count.get(c, ())) - ranks.get(c, 0) - ranks.get(c + 1, 0)
        if h:
            out[c - 1] = h
    return out


def reference_multigraded_betti(ideal):
    """{(i, b): beta_{i,b}} over the whole lcm lattice, zeros omitted, with b
    an exponent tuple over the sorted variables of the generators."""
    gens = ideal.sorted_generators()
    k = len(gens)
    variables = sorted({v for g in gens for v in g.variables()})
    vpos = {v: i for i, v in enumerate(variables)}
    dim = len(variables)
    vecs = []
    for g in gens:
        row = [0] * dim
        for v, e in g.items():
            row[vpos[v]] = e
        vecs.append(tuple(row))

    lattice = set(vecs)
    frontier = list(vecs)
    while frontier:
        new = []
        for b in frontier:
            for g in vecs:
                l = tuple(map(max, b, g))
                if l not in lattice:
                    lattice.add(l)
                    new.append(l)
        frontier = new

    betti = {}
    for b in lattice:
        dividing = [
            j for j in range(k) if all(vecs[j][t] <= b[t] for t in range(dim))
        ]
        masks = []
        for t in range(dim):
            if not b[t]:
                continue
            mask = 0
            for pos, j in enumerate(dividing):
                if vecs[j][t] < b[t]:
                    mask |= 1 << pos
            masks.append(mask)
        for d, h in reference_union_homology(masks).items():
            betti[d + 1, b] = h
    return betti


def reference_betti_oracle(ideal):
    betti = {}
    for (i, _), h in reference_multigraded_betti(ideal).items():
        betti[i] = betti.get(i, 0) + h
    top = max(betti)
    return [betti.get(i, 0) for i in range(top + 1)]


N_RANDOM = 2
RANDOM_VARIABLES = [f(i) for f in (xvar, yvar, zvar) for i in range(1, N_RANDOM + 1)]


def random_ideal(rng):
    """A minimalized ideal of 1-7 monomials in 6 variables, exponents <= 3."""
    gens = []
    for _ in range(rng.randint(1, 7)):
        support = rng.sample(RANDOM_VARIABLES, rng.randint(1, 4))
        gens.append(Monomial(N_RANDOM, {v: rng.randint(1, 3) for v in support}))
    return MonomialIdeal.from_monomials(gens)


def permute_variables(ideal, perm):
    """The image of the ideal under the variable permutation perm."""
    n = next(iter(ideal.generators)).n
    return MonomialIdeal(
        frozenset(
            Monomial(n, {perm[v]: e for v, e in g.items()}) for g in ideal.generators
        )
    )


def test_oracle_equals_reference_on_random_ideals():
    rng = random.Random(20240401)
    non_squarefree = 0
    for _ in range(240):
        ideal = random_ideal(rng)
        non_squarefree += any(e > 1 for g in ideal.generators for _, e in g.items())
        assert list(betti_oracle(ideal)) == reference_betti_oracle(ideal), ideal
    assert non_squarefree >= 200


def test_oracle_equals_reference_on_matching_ideals():
    for parts in [(3, 2), (2, 2, 1), (1, 1, 1, 1), (4,)]:
        ideal = matching_ideal(BlockStructure(parts))
        assert list(betti_oracle(ideal)) == reference_betti_oracle(ideal), parts


SQUAREFREE_VARIABLES = [f(i) for f in (xvar, yvar, zvar) for i in range(1, 4)][:8]


def random_squarefree_ideal(rng):
    """The ideal of 4-10 random squarefree monomials, each in 2-4 of 8
    variables, minimalized."""
    return MonomialIdeal.from_monomials(
        Monomial(3, dict.fromkeys(rng.sample(SQUAREFREE_VARIABLES, rng.randint(2, 4)), 1))
        for _ in range(rng.randint(4, 10))
    )


def squarefree_masks(ideal):
    """The generators of a squarefree ideal in sorted order as bitmasks, the
    variables taking bits in sorted order: the oracle's polarization."""
    variables = sorted({v for g in ideal.generators for v in g.variables()})
    bit = {v: 1 << i for i, v in enumerate(variables)}
    return [sum(bit[v] for v in g.variables()) for g in ideal.sorted_generators()]


def test_mayer_vietoris_records_bound_the_multigraded_betti_numbers():
    """Every nonzero beta_{i,b} of the full-lattice reference is at a
    multidegree the tree records, and the tree records (i, b) at least
    beta_{i,b} times.  On many ideals it records more than the Betti
    numbers, so its counts are a bound and homology has to decide."""
    rng = random.Random(20261019)
    loose = 0
    for _ in range(300):
        ideal = random_squarefree_ideal(rng)
        assert list(betti_oracle(ideal)) == reference_betti_oracle(ideal), ideal
        records = resolution._mayer_vietoris(squarefree_masks(ideal))
        recorded = {b for _, b in records}
        multigraded = reference_multigraded_betti(ideal)
        for (i, b), h in multigraded.items():
            mask = sum(1 << t for t, e in enumerate(b) if e)
            assert mask in recorded, (ideal, i, b)
            assert records[i, mask] >= h, (ideal, i, b)
        loose += sum(records.values()) > sum(multigraded.values())
    assert loose >= 50


def random_fraction(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 5))


def test_rational_rank_equals_reference_on_random_rows():
    # Rational combinations of a few sparse rows: the rank depends on the
    # exact values, not only on where the nonzeros are.
    rng = random.Random(7)
    for _ in range(200):
        base = [
            {c: random_fraction(rng) for c in rng.sample(range(8), rng.randint(0, 5))}
            for _ in range(rng.randint(0, 4))
        ]
        rows = list(base)
        for _ in range(rng.randint(0, 4)):
            combo = {}
            for row in base:
                f = random_fraction(rng)
                for c, v in row.items():
                    combo[c] = combo.get(c, 0) + f * v
            rows.append(combo)
        rng.shuffle(rows)
        want = reference_rational_rank(rows)
        assert want <= len(base)
        assert rational_rank(rows) == want, rows


def test_rational_rank_accepts_ints_and_fractions():
    assert rational_rank([]) == 0
    assert rational_rank([{0: 0}, {}]) == 0
    assert rational_rank([{0: 2, 1: 4}, {0: Fraction(1, 3), 1: Fraction(2, 3)}]) == 1
    assert rational_rank([{0: 3, 1: -1}, {0: Fraction(1, 2), 2: 5}]) == 2


def test_rational_rank_reports_one_pivot_column_per_unit_of_rank():
    rng = random.Random(11)
    for _ in range(200):
        rows = [
            {c: random_fraction(rng) for c in rng.sample(range(8), rng.randint(0, 5))}
            for _ in range(rng.randint(0, 6))
        ]
        pivots = set()
        rank = rational_rank(rows, pivots=pivots)
        assert rank == reference_rational_rank(rows) == rational_rank(rows), rows
        assert len(pivots) == rank
        assert pivots <= {c for row in rows for c, v in row.items() if v}


def antichain(masks):
    """The drawn masks that no other drawn mask contains, each once, in the
    order drawn."""
    return [m for m in dict.fromkeys(masks) if not any(m != o and not m & ~o for o in masks)]


def complements(masks):
    """The masks complemented in their union, as the facets of K^b are the
    generators complemented in b."""
    union = 0
    for m in masks:
        union |= m
    return [union ^ m for m in masks]


def test_union_homology_equals_reference_on_antichains():
    # 1-8 simplices of 1-5 vertices out of 10, or their complements (the
    # shape of a K^b), reduced to an antichain.
    rng = random.Random(13)
    for _ in range(3000):
        masks = [
            sum(1 << v for v in rng.sample(range(10), rng.randint(1, 5)))
            for _ in range(rng.randint(1, 8))
        ]
        if rng.random() < 0.5:
            masks = complements(masks)
        facets = antichain(masks)
        core = resolution._strong_collapse(facets)
        assert resolution._core_homology(core) == reference_union_homology(facets), facets


def test_core_homology_runs_at_its_face_cap_and_refuses_one_face_more(monkeypatch):
    # The boundary of a triangle has 7 faces, the empty face included.
    triangle = [0b011, 0b101, 0b110]
    assert resolution._FACE_CAP == 200_000
    monkeypatch.setattr(resolution, "_FACE_CAP", 7)
    assert resolution._core_homology(triangle) == {1: 1}
    monkeypatch.setattr(resolution, "_FACE_CAP", 6)
    with pytest.raises(TooLargeError, match="too large for exact homology"):
        resolution._core_homology(triangle)


def test_strong_collapse_deletes_dominated_vertices_and_keeps_contained_facets():
    # A 4-cycle with the pendant edge {0, 4}: vertex 0 dominates vertex 4,
    # and deleting 4 leaves the facet {0} inside the cycle's edges, kept.
    cycle = [0b0011, 0b0110, 0b1100, 0b1001]
    core = resolution._strong_collapse(cycle + [0b10001])
    assert core == (0b0001, 0b0011, 0b0110, 0b1001, 0b1100)
    assert resolution._core_homology(core) == {1: 1}


def test_clearing_leaves_only_the_uncleared_rows(monkeypatch):
    # The boundary of the simplex on n vertices has no strong collapse.  Its
    # n facets give n - 1 pivots; below, each dimension c keeps the
    # C(n, c) - C(n - 1, c) = C(n - 1, c - 1) faces that were not pivots one
    # dimension up, and those rows are independent.
    calls = []

    def recording(rows, *, pivots=None):
        rows = list(rows)
        rank = rational_rank(rows, pivots=pivots)
        calls.append((len(rows), rank))
        return rank

    monkeypatch.setattr(resolution, "rational_rank", recording)
    for n in range(3, 9):
        calls.clear()
        full = (1 << n) - 1
        core = resolution._strong_collapse([full ^ (1 << i) for i in range(n)])
        assert resolution._core_homology(core) == {n - 2: 1}
        kept = [(comb(n - 1, c - 1), comb(n - 1, c - 1)) for c in range(n - 2, 0, -1)]
        assert calls == [(n, n - 1)] + kept, n


def lcm_lattice(masks):
    """All unions of nonempty subsets of the given masks."""
    lattice = set(masks)
    frontier = list(lattice)
    while frontier:
        frontier = [b | g for b in frontier for g in masks if b | g not in lattice]
        lattice.update(frontier)
    return lattice


def compressed_shapes(masks, multidegrees):
    """The distinct complexes K^b over the given multidegrees, each as the
    size of b and the dividing generators with b's bits renumbered 0, 1, ...
    in order."""
    shapes = set()
    for b in multidegrees:
        positions = [p for p in range(b.bit_length()) if b >> p & 1]
        renamed = sorted(
            sum(1 << j for j, p in enumerate(positions) if g >> p & 1)
            for g in masks
            if g & b == g
        )
        shapes.add((len(positions), tuple(renamed)))
    return shapes


def collapsed_core(facets):
    """The core of the complex with the given facets after sweeps of strong
    collapses: each sweep deletes, in increasing order, every vertex whose
    facets all contain another vertex that the sweep has not deleted.  The
    core's facets are returned sorted, its vertices renumbered 0, 1, ... in
    order; a cone is the point (1,)."""
    while True:
        vertices = sorted({p for m in facets for p in range(m.bit_length()) if m >> p & 1})
        if any(all(m >> v & 1 for m in facets) for v in vertices):
            return (1,)
        doomed = set()
        for v in vertices:
            star = [m for m in facets if m >> v & 1]
            if any(
                u != v and u not in doomed and all(m >> u & 1 for m in star) for u in vertices
            ):
                doomed.add(v)
        if not doomed:
            break
        facets = reference_maximal_masks(
            sum(1 << p for p in vertices if m >> p & 1 and p not in doomed) for m in facets
        )
    return tuple(
        sorted(sum(1 << i for i, p in enumerate(vertices) if m >> p & 1) for m in facets)
    )


def test_oracle_computes_each_compressed_shape_once_per_call(monkeypatch):
    """On every composition of n <= 6, each compressed shape on the tree is
    collapsed once per call, and each distinct collapsed core is ranked once
    per call, with nothing kept from the first call to the second."""
    collapsed, ranked = [], []
    strong_collapse = resolution._strong_collapse
    core_homology = resolution._core_homology

    def collapsing(masks):
        collapsed.append(masks)
        return strong_collapse(masks)

    def ranking(core):
        ranked.append(core)
        return core_homology(core)

    monkeypatch.setattr(resolution, "_strong_collapse", collapsing)
    monkeypatch.setattr(resolution, "_core_homology", ranking)
    at_n6 = Counter()
    for n in range(3, 7):
        for parts in all_compositions(n):
            ideal = matching_ideal(BlockStructure(parts))
            masks = squarefree_masks(ideal)
            shapes = compressed_shapes(masks, {b for _, b in resolution._mayer_vietoris(masks)})
            cores = {collapsed_core([((1 << size) - 1) ^ g for g in gens]) for size, gens in shapes}
            if parts == (2, 2, 2):
                assert len(shapes) < len(compressed_shapes(masks, lcm_lattice(masks)))
                assert len(cores) < len(shapes)
            for _ in range(2):
                collapsed.clear()
                ranked.clear()
                assert list(betti_oracle(ideal)) == list(betti_diagonal_table(n)), parts
                assert len(collapsed) == len(shapes), parts
                assert sorted(ranked) == sorted(cores), parts
            if n == 6:
                at_n6.update(shapes=len(shapes), cores=len(cores))
    assert at_n6 == Counter(shapes=640, cores=256)


def test_oracle_invariant_under_variable_relabeling():
    rng = random.Random(5)
    cases = [random_ideal(rng) for _ in range(60)]
    cases += [matching_ideal(BlockStructure(p)) for p in [(3, 2), (2, 3), (1, 2, 2)]]
    for ideal in cases:
        n = next(iter(ideal.generators)).n
        variables = [f(i) for f in (xvar, yvar, zvar) for i in range(1, n + 1)]
        perm = dict(zip(variables, rng.sample(variables, len(variables))))
        got = list(betti_oracle(permute_variables(ideal, perm)))
        assert got == list(betti_oracle(ideal)), (ideal, perm)


def test_mayer_vietoris_node_cap_raises(monkeypatch):
    # The tree of (5,) has 31 nodes, one per unit of its total Betti number.
    ideal = matching_ideal(BlockStructure((5,)))
    monkeypatch.setattr(resolution, "_MV_NODE_CAP", 30)
    with pytest.raises(TooLargeError, match="Mayer-Vietoris tree exceeds 30 nodes"):
        betti_oracle(ideal)
    monkeypatch.setattr(resolution, "_MV_NODE_CAP", 31)
    assert list(betti_oracle(ideal)) == [10, 15, 6]


def test_mayer_vietoris_node_cap_bounds_the_records_written(monkeypatch):
    # On (x1, ..., x16) the root's right child is 15 single variables, a
    # subtree of 2^15 - 1 nodes; the walk writes no more records than the cap.
    writes = []

    class Records(Counter):
        def __setitem__(self, key, value):
            writes.append(key)
            super().__setitem__(key, value)

    monkeypatch.setattr(resolution, "Counter", Records)
    monkeypatch.setattr(resolution, "_MV_NODE_CAP", 1000)
    with pytest.raises(TooLargeError, match="exceeds 1000 nodes"):
        resolution._mayer_vietoris([1 << i for i in range(16)])
    assert 0 < len(writes) <= 1000


def certificate_table(parts):
    n = sum(parts)
    cert = linear_quotients_certificate(
        [t.monomial(n) for t in sort_generators(BlockStructure(parts))]
    )
    return list(betti_from_certificate(cert))


def assert_minimal_tree(parts):
    """The oracle's Mayer-Vietoris tree on the matching ideal records one
    (dimension, multidegree) per unit of the total Betti number, each in the
    linear strand: a multidegree of degree d + 3 at dimension d."""
    masks = squarefree_masks(matching_ideal(BlockStructure(parts)))
    records = resolution._mayer_vietoris(masks)
    assert sum(records.values()) == sum(betti_diagonal_table(sum(parts))), parts
    assert set(records.values()) == {1}, parts
    assert all(b.bit_count() == d + 3 for d, b in records), parts


def test_mayer_vietoris_tree_is_minimal_on_every_composition_through_n8():
    for n in range(3, 9):
        for parts in all_compositions(n):
            assert_minimal_tree(parts)


@pytest.mark.parametrize(
    "parts", [(7, 3), (5, 5), (8, 1, 3), (2, 3, 1, 4, 2), (3, 3, 3, 3), (12,)]
)
def test_mayer_vietoris_tree_is_minimal_at_n10_and_n12(parts):
    # Pivoting in sorted order instead records 67 209, 35 259, 1 125 183,
    # 87 305 and 106 017 times on the first five.
    assert_minimal_tree(parts)


@pytest.mark.slow
def test_mayer_vietoris_tree_fits_the_cap_on_a_seeded_sample_at_n12():
    assert resolution._MV_NODE_CAP == 200_000
    for parts in random.Random(12).sample(list(all_compositions(12)), 30):
        assert_minimal_tree(parts)


def test_oracle_multigraded_betti_numbers_equal_the_certificate_through_n7():
    """beta_{i,b} from the oracle's homology at each multidegree of its tree
    equals the certificate's prediction: one (|F|, u_j x_F) for each
    generator u_j and each F inside its colon set, not only in total."""
    for n in range(3, 8):
        for parts in all_compositions(n):
            ideal = matching_ideal(BlockStructure(parts))
            variables = sorted({v for g in ideal.generators for v in g.variables()})
            bit = {v: 1 << i for i, v in enumerate(variables)}
            cert = linear_quotients_certificate(
                [t.monomial(n) for t in sort_generators(BlockStructure(parts))]
            )
            predicted = Counter()
            for u, s in zip(cert.ordered, cert.sets):
                base = sum(bit[v] for v in u.variables())
                for r in range(len(s) + 1):
                    for f in combinations(s, r):
                        predicted[r, base | sum(bit[v] for v in f)] += 1
            masks = squarefree_masks(ideal)
            shapes, cores = {}, {}
            got = Counter()
            for b in {b for _, b in resolution._mayer_vietoris(masks)}:
                for i, h in resolution._betti_at(masks, b, shapes, cores).items():
                    got[i, b] += h
            assert got == predicted, parts


@pytest.mark.parametrize("parts", [(7,), (4, 3), (2, 3, 2), (1,) * 7])
def test_oracle_matches_certificate_at_n7(parts):
    got = betti_oracle(matching_ideal(BlockStructure(parts)), max_generators=35)
    assert list(got) == certificate_table(parts)


def test_oracle_matches_certificate_all_structures_at_n7():
    for parts in all_compositions(7):
        got = betti_oracle(matching_ideal(BlockStructure(parts)), max_generators=35)
        assert list(got) == certificate_table(parts), parts


@pytest.mark.slow
def test_oracle_all_structures_at_n8_match_certificate_and_closed_form():
    for parts in all_compositions(8):
        got = betti_oracle(matching_ideal(BlockStructure(parts)), max_generators=56)
        assert list(got) == certificate_table(parts) == list(betti_diagonal_table(8)), parts


@pytest.mark.slow
def test_oracle_on_8_1_3_matches_certificate_and_closed_form():
    got = betti_oracle(matching_ideal(BlockStructure((8, 1, 3))), max_generators=220)
    assert list(got) == certificate_table((8, 1, 3)) == list(betti_diagonal_table(12))


@pytest.mark.slow
@pytest.mark.parametrize("parts", [(9,), (3, 3, 3)])
def test_oracle_at_n9_matches_certificate_and_closed_form(parts):
    got = betti_oracle(matching_ideal(BlockStructure(parts)), max_generators=84)
    assert list(got) == certificate_table(parts) == list(betti_diagonal_table(9))


@pytest.mark.slow
@pytest.mark.parametrize("n", [10, 12])
def test_oracle_at_a_seeded_composition_matches_certificate_and_closed_form(n):
    parts = random.Random(n).choice(list(all_compositions(n)))
    got = betti_oracle(matching_ideal(BlockStructure(parts)), max_generators=comb(n, 3))
    assert list(got) == certificate_table(parts) == list(betti_diagonal_table(n)), parts


# ---------------------------------------------------------------------------
# Differential checks of the certificate against the direct algorithm on
# dict Monomials: each colon minimalized by MonomialIdeal, its generators
# read in sorted order.
# ---------------------------------------------------------------------------


def reference_certificate(ordered):
    """The certificate by explicit colon ideals; ordered must be minimal."""
    gens = tuple(ordered)
    sets = []
    for j, m in enumerate(gens):
        colon = colon_by_monomial(gens[:j], m)
        vs = []
        for q in colon.sorted_generators():
            if q.degree != 1:
                return QuotientCertificate(gens, tuple(sets), False, (j, q))
            vs.append(q.variables()[0])
        sets.append(frozenset(vs))
    return QuotientCertificate(gens, tuple(sets), True, None)


def test_certificate_equals_reference_on_all_compositions_through_n7():
    rng = random.Random(20241018)
    non_linear = 0
    for n in range(3, 8):
        for parts in all_compositions(n):
            gens = [t.monomial(n) for t in sort_generators(BlockStructure(parts))]
            orders = [gens, gens[::-1]] + [rng.sample(gens, len(gens)) for _ in range(3)]
            for ordered in orders:
                cert = linear_quotients_certificate(ordered)
                assert cert == reference_certificate(ordered), (parts, ordered)
                non_linear += not cert.is_linear
    assert non_linear > 300


def random_minimal_sequence(rng):
    """A minimal generating set in 2-4 variables, exponents <= 3, in random
    order.  Half of the cases take all monomials of one degree with exponents
    <= 3 in lex order, or an initial segment of them, which has linear
    quotients with colon generators of every exponent."""
    variables = rng.sample(RANDOM_VARIABLES, rng.randint(2, 4))
    if rng.random() < 0.5:
        d = rng.randint(2, 5)
        gens = [
            Monomial(N_RANDOM, dict(zip(variables, es)))
            for es in product(range(3, -1, -1), repeat=len(variables))
            if sum(es) == d
        ]
        gens = gens[: rng.randint(1, len(gens))]
        if rng.random() < 0.5:
            rng.shuffle(gens)
        return gens
    monomials = [
        Monomial(N_RANDOM, {v: rng.randint(0, 3) for v in variables})
        for _ in range(rng.randint(2, 12))
    ]
    gens = list(MonomialIdeal.from_monomials(m for m in monomials if not m.is_one).generators)
    rng.shuffle(gens)
    return gens


def test_certificate_equals_reference_on_random_minimal_sets():
    rng = random.Random(5)
    linear = non_linear = wide = 0
    for _ in range(300):
        ordered = random_minimal_sequence(rng)
        cert = linear_quotients_certificate(ordered)
        assert cert == reference_certificate(ordered), ordered
        wide += any(e > 1 for g in ordered for _, e in g.items())
        if cert.is_linear:
            linear += len(ordered) > 2
        else:
            non_linear += 1
    assert min(linear, non_linear) > 50 and wide > 250


def test_certificate_rejects_a_repeated_generator():
    n = 1
    x = Monomial.of(n, xvar(1))
    with pytest.raises(ValueError):
        linear_quotients_certificate([x, x])
    with pytest.raises(ValueError):
        linear_quotients_certificate([x, Monomial.of(n, xvar(1))])


def test_certificate_rejects_mixed_ambient_n():
    with pytest.raises(ValueError):
        linear_quotients_certificate([Monomial.of(1, xvar(1)), Monomial.of(2, yvar(1))])


def test_all_structures_at_n8_have_linear_quotients():
    for parts in all_compositions(8):
        assert certificate_table(parts) == list(betti_diagonal_table(8)), parts


@pytest.mark.slow
@pytest.mark.parametrize("n", [9, 10])
def test_all_structures_at_n9_n10_have_linear_quotients(n):
    for parts in all_compositions(n):
        assert certificate_table(parts) == list(betti_diagonal_table(n)), parts


def _names_in(fn):
    """Every global, attribute and import name the code of fn refers to."""
    names, stack = set(), [fn.__code__]
    while stack:
        code = stack.pop()
        names.update(code.co_names)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_names"))
    return names


def oracle_functions():
    """resolution's own functions that betti_oracle reaches, following the
    names each one refers to."""
    found, stack = {}, [resolution.betti_oracle]
    while stack:
        fn = stack.pop()
        found[fn.__name__] = fn
        for name in _names_in(fn) - found.keys():
            obj = getattr(resolution, name, None)
            if inspect.isfunction(obj) and obj.__module__ == resolution.__name__:
                stack.append(obj)
    return list(found.values())


def test_certificate_and_oracle_share_no_code():
    oracle = oracle_functions()
    assert {fn.__name__ for fn in oracle} >= {
        "betti_oracle",
        "_betti_at",
        "_mayer_vietoris",
        "_linear_order",
        "_strong_collapse",
        "_core_homology",
    }
    certificate = {
        "_packed",
        "Layout",
        "pack_minimal",
        "monus",
        "colon_by_monomial",
        "linear_quotients_certificate",
        "betti_from_certificate",
        "betti_from_variable_sets",
        "sort_generators",
    }
    for fn in oracle:
        assert not _names_in(fn) & certificate, fn.__name__
    helpers = {fn.__name__ for fn in oracle} | {"rational_rank"}
    assert not _names_in(resolution.linear_quotients_certificate) & helpers
    assert "pack_minimal" in _names_in(resolution.linear_quotients_certificate)
    # The oracle polarizes the ideal's own sorted generators, and the tree
    # pivots along the order that _linear_order finds from those masks, not
    # along the block order.
    assert "sorted_generators" in _names_in(resolution.betti_oracle)
    assert "_linear_order" in _names_in(resolution._mayer_vietoris)
