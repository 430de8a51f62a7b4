"""Acceptance criteria, one test per criterion.

Every check here is exact (integer or rational arithmetic); run with
`pytest -v` to get one pass/fail line per criterion.
"""

import random
import time
from itertools import combinations

from matchfields import (
    BlockStructure,
    Monomial,
    Polynomial,
    VariableId,
    WeightOrder,
    attainable_initial_supports,
    betti_diagonal_table,
    betti_from_certificate,
    betti_oracle,
    check_layer_containment,
    diagonal_plucker_map,
    flatness_check,
    format_plucker_exponents,
    graph_G,
    hilbert_dim_rect,
    is_cointerval,
    is_groebner,
    kernel_slice,
    leading_monomial,
    linear_quotients_certificate,
    matching_ideal,
    minor_expand,
    plucker_map_from_matching_field,
    plucker_quadric_gr24,
    reduce,
    relabeled_ideal,
    s_set,
    s_size_closed_form,
    sort_generators,
    verify_theorem_main,
    weight_initial_form,
    weight_matrix,
    xvar,
    yvar,
    zvar,
)

from helpers import all_compositions


def test_acceptance_01_weight_matrix_golden_values():
    """Exact weight rows for blocks (2,3,2) on 7 columns with base weight 1."""
    order = weight_matrix(BlockStructure((2, 3, 2)), w0=1)
    x = [order.weights[xvar(i)] for i in range(1, 8)]
    y = [order.weights[yvar(i)] for i in range(1, 8)]
    z = [order.weights[zvar(i)] for i in range(1, 8)]
    assert x == [1, 1, 1, 1, 1, 1, 1]
    assert y == [7, 8, 4, 5, 6, 2, 3]
    assert z == [1, 1, 13, 18, 23, 28, 33]
    print("PASS weight matrix golden values")


def test_acceptance_02_degeneration_verified_for_every_block_structure():
    """The weight order degenerates the maximal minors onto the matching
    ideal: unique top-weight term per minor (weights only, no tie-break),
    every S-pair reduces to zero, and the leading monomials equal the
    matching ideal.  All compositions of 3 <= n <= 6, two base weights,
    plus two compositions of 7."""
    cases = []
    for n in range(3, 7):
        for parts in all_compositions(n):
            cases.append((parts, 1))
            cases.append((parts, 5))
    cases.append(((2, 3, 2), 1))
    cases.append(((4, 3), 1))
    for parts, w0 in cases:
        rep = verify_theorem_main(BlockStructure(parts), w0=w0)
        assert rep.per_minor_initial_ok, (parts, w0, rep.failures)
        assert rep.s_pairs_reduced_to_zero == rep.s_pairs_total, (parts, w0)
        assert rep.initial_ideal_equals_matching_ideal, (parts, w0)
        assert rep.ok
    print(f"PASS degeneration verified for {len(cases)} (blocks, w0) cases")


def test_acceptance_03_betti_10_15_6_three_independent_ways():
    """beta = (10, 15, 6) for blocks (3,2): linear-quotient counting, the
    homology oracle on the ideal, and the oracle on the relabeled ideal."""
    a = BlockStructure((3, 2))
    cert = linear_quotients_certificate([t.monomial(5) for t in sort_generators(a)])
    by_certificate = list(betti_from_certificate(cert))
    by_oracle = list(betti_oracle(matching_ideal(a)))
    by_relabeled = list(betti_oracle(relabeled_ideal(a)))
    assert by_certificate == [10, 15, 6]
    assert by_oracle == [10, 15, 6]
    assert by_relabeled == [10, 15, 6]
    print("PASS betti (10,15,6) by certificate, oracle, and relabeled oracle")


def test_acceptance_04_linear_quotients_and_adjacency_sets():
    """Linear quotients hold along the block ordering for every composition
    with n <= 7; for n <= 6 the colon sets have exactly the sizes of the
    one-coordinate-difference sets; for n <= 8 the closed-form size equals
    those sets' size on every generator."""
    for n in range(3, 8):
        for parts in all_compositions(n):
            a = BlockStructure(parts)
            ts = sort_generators(a)
            cert = linear_quotients_certificate([t.monomial(n) for t in ts])
            assert cert.is_linear, parts
            if n <= 6:
                for t, got in zip(ts, cert.sets):
                    assert len(got) == len(s_set(a, t)), (parts, t)
    for n in range(3, 9):
        for parts in all_compositions(n):
            a = BlockStructure(parts)
            for t in sort_generators(a):
                assert s_size_closed_form(a, t) == len(s_set(a, t)), (parts, t)
    print("PASS linear quotients for all n <= 7; closed-form s-set sizes for all n <= 8")


def test_acceptance_05_diagonal_closed_form_matches_homology_oracle():
    """The closed-form Betti table of the one-block ideal equals the
    independent homology oracle for n = 3..6."""
    for n in range(3, 7):
        got = list(betti_oracle(matching_ideal(BlockStructure((n,)))))
        want = list(betti_diagonal_table(n))
        assert got == want, (n, got, want)
    print("PASS diagonal closed form == homology oracle, n = 3..6")


def test_acceptance_06_cointerval_structure():
    """Layer nesting and the recursive co-interval property hold for every
    composition with n <= 7; the relabeled graph of (3,2) has the exact
    frozen edge set."""
    for n in range(3, 8):
        for parts in all_compositions(n):
            a = BlockStructure(parts)
            rep = check_layer_containment(a)
            assert rep.ok, (parts, rep.witnesses)
            ok, witness = is_cointerval(graph_G(a))
            assert ok, (parts, witness)
    g = graph_G(BlockStructure((3, 2)))
    labels = {"".join(map(str, e)) for e in g.edges}
    assert labels == {
        "357", "247", "248", "257", "147", "148", "149", "157", "159", "169"
    }
    print("PASS co-interval property for all n <= 7; frozen edge set")


def test_acceptance_07_toric_kernels_and_flatness():
    """Kernel slices: the 2x4 map has the single quadric p13p24 - p14p23;
    the 3x6 diagonal has 35 = 210 - 175 independent quadrics; every
    matching field with n <= 6 has the Hilbert function of the rectangle
    through degree 2; the n = 5 kernel adds nothing new in degree 3."""
    pm24 = diagonal_plucker_map(2, 4)
    ks = kernel_slice(pm24, 2)
    assert ks.dimension == 1 and ks.new_minimal_generators == 1
    ((plus, minus),) = ks.binomials
    assert {
        format_plucker_exponents(pm24, plus),
        format_plucker_exponents(pm24, minus),
    } == {"p13*p24", "p14*p23"}

    pm36 = plucker_map_from_matching_field(BlockStructure((6,)))
    ks = kernel_slice(pm36, 2)
    assert ks.dimension == 210 - hilbert_dim_rect(3, 6, 2) == 35
    assert ks.new_minimal_generators == 35

    for n in range(3, 7):
        for parts in all_compositions(n):
            pm = plucker_map_from_matching_field(BlockStructure(parts))
            rep = flatness_check(pm, 3, n, 2)
            assert rep.ok, (parts, rep.rows)

    pm5 = plucker_map_from_matching_field(BlockStructure((3, 2)))
    ks3 = kernel_slice(pm5, 3)
    assert ks3.dimension == 45 and ks3.new_minimal_generators == 0
    print("PASS toric kernels, flatness through degree 2, no new cubics at n=5")


def test_acceptance_08_seven_attainable_initial_supports():
    """The 2x4 Pluecker quadric has exactly 7 weight-attainable initial
    supports; every sampled weight vector lands in the enumerated family."""
    f = plucker_quadric_gr24()
    supports = attainable_initial_supports(f)
    assert len(supports) == 7
    assert sorted(len(s) for s in supports) == [1, 1, 1, 2, 2, 2, 3]
    assert frozenset(f.monomials()) in supports
    rng = random.Random(0)
    for _ in range(300):
        w = {xvar(i): rng.randrange(0, 9) for i in range(1, 7)}
        assert frozenset(weight_initial_form(w, f).monomials()) in supports
    print("PASS seven attainable initial supports for the 2x4 quadric")


def test_acceptance_09_property_suites_within_time_budget():
    """Order axioms on 10^4 random triples, reduction termination, 100
    random-weight basis checks at n <= 5, exhaustive layer containment at
    n <= 7; all within 120 seconds."""
    t0 = time.monotonic()
    rng = random.Random(20260814)

    # Monomial-order axioms on random triples.
    a = BlockStructure((2, 2))
    order = weight_matrix(a)
    vs = [VariableId(fam, i) for fam in "xyz" for i in range(1, a.n + 1)]

    def rand_mono():
        m = Monomial.one(a.n)
        for _ in range(rng.randrange(4)):
            m = m * Monomial.of(a.n, rng.choice(vs))
        return m

    for _ in range(10_000):
        p, q, r = rand_mono(), rand_mono(), rand_mono()
        cpq = order.compare(p, q)
        assert cpq == -order.compare(q, p)
        assert order.compare(p * r, q * r) == cpq
        if not p.is_one:
            assert order.compare(Monomial.one(a.n), p) == -1

    # Reduction terminates and leaves no reducible term.
    basis = [minor_expand(4, c) for c in combinations(range(1, 5), 3)]
    leads = [leading_monomial(order, g) for g in basis]
    for _ in range(50):
        f = Polynomial.from_terms(4, [(rng.randrange(1, 5), rand_mono())])
        for g in basis:
            if rng.randrange(2):
                f = f + g.term_mul(rng.randrange(1, 4), rand_mono())
        r = reduce(f, basis, order)
        for _, m in r.terms():
            assert not any(lm.divides(m) for lm in leads)

    # Universal basis property over sampled positive weights.
    samples = 0
    for n in (4, 5):
        minors = [minor_expand(n, c) for c in combinations(range(1, n + 1), 3)]
        prec = [VariableId(fam, i) for fam in "xyz" for i in range(1, n + 1)]
        for _ in range(50):
            weights = {v: rng.randrange(1, 60) for v in prec}
            assert is_groebner(minors, WeightOrder(n, weights, prec)).ok, weights
            samples += 1
    assert samples == 100

    # Layer containment for every block structure on up to 7 columns.
    for n in range(3, 8):
        for parts in all_compositions(n):
            assert check_layer_containment(BlockStructure(parts)).ok, parts

    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"{elapsed:.1f}s"
    print(f"PASS property suites in {elapsed:.1f}s (< 120s)")
