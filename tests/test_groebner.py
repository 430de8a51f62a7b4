"""S-polynomials, division, the Buchberger criterion, initial supports."""

import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import matchfields.groebner as groebner
from matchfields._packed import Layout
from matchfields import (
    BlockStructure,
    BudgetExceededError,
    Monomial,
    Polynomial,
    VariableId,
    WeightOrder,
    attainable_initial_supports,
    is_groebner,
    leading_monomial,
    leading_term,
    matching_ideal,
    minor_expand,
    plucker_quadric_gr24,
    reduce,
    s_polynomial,
    verify_theorem_main,
    weight_initial_form,
    weight_matrix,
    xvar,
    yvar,
    zvar,
)
from itertools import combinations

from helpers import (
    INJECTED_RESIDUAL,
    all_compositions,
    composition,
    leave_the_first_s_pair_unreduced,
)


def _unit_order(n):
    weights = {VariableId(fam, i): 1 for fam in "xyz" for i in range(1, n + 1)}
    precedence = [VariableId(fam, i) for fam in "xyz" for i in range(1, n + 1)]
    return WeightOrder(n, weights, precedence)


def test_s_polynomial_cancels_leading_terms():
    n = 2
    order = _unit_order(n)
    x1, x2 = Monomial.of(n, xvar(1)), Monomial.of(n, xvar(2))
    y1 = Monomial.of(n, yvar(1))
    f = Polynomial.from_terms(n, [(2, x1 * x1), (1, y1)])
    g = Polynomial.from_terms(n, [(3, x1 * x2), (1, x2)])
    s = s_polynomial(f, g, order)
    lcm = (x1 * x1).lcm(x1 * x2)
    assert all(m != lcm for m in s.monomials())
    # S = (x2/2)*2x1^2 + ... : explicit value (1/2)y1x2 - (1/3)x1x2
    assert s.coefficient(y1 * x2) == Fraction(1, 2)
    assert s.coefficient(x1 * x2) == Fraction(-1, 3)


def test_reduce_leaves_no_divisible_terms():
    rng = random.Random(3)
    n = 2
    order = _unit_order(n)
    vs = [VariableId(fam, i) for fam in "xyz" for i in range(1, n + 1)]

    def rand_poly(terms):
        pairs = []
        for _ in range(terms):
            m = Monomial.one(n)
            for _ in range(rng.randrange(1, 4)):
                m = m * Monomial.of(n, rng.choice(vs))
            pairs.append((rng.choice([-2, -1, 1, 2, 3]), m))
        return Polynomial.from_terms(n, pairs)

    for _ in range(60):
        basis = [rand_poly(rng.randrange(1, 4)) for _ in range(3)]
        basis = [b for b in basis if not b.is_zero]
        f = rand_poly(4)
        r = reduce(f, basis, order)
        leads = [leading_monomial(order, b) for b in basis]
        for m in r.monomials():
            assert not any(l.divides(m) for l in leads)


def test_reduce_of_basis_member_is_zero():
    a = BlockStructure((2, 2))
    order = weight_matrix(a)
    minors = [minor_expand(4, c) for c in combinations(range(1, 5), 3)]
    for f in minors:
        assert reduce(f, minors, order).is_zero
        assert reduce(f.term_mul(3, Monomial.of(4, xvar(1))), minors, order).is_zero


def test_the_first_basis_element_with_a_repeated_lead_reduces():
    """z3 leads both z3 + x1 and z3 + x2; the one that comes first in the
    basis cancels it."""
    n = 3
    order = weight_matrix(BlockStructure((n,)))
    x1, x2, z3 = (Monomial.of(n, v) for v in (xvar(1), xvar(2), zvar(3)))
    f, g, h = (Polynomial.from_terms(n, [(1, m) for m in ms]) for ms in ([z3], [z3, x1], [z3, x2]))
    assert leading_monomial(order, g) == leading_monomial(order, h) == z3
    assert reduce(f, [g, h], order) == Polynomial.from_terms(n, [(-1, x1)])
    assert reduce(f, [h, g], order) == Polynomial.from_terms(n, [(-1, x2)])


def test_is_groebner_positive_and_negative():
    n = 1
    order = _unit_order(n)
    x = Monomial.of(n, xvar(1))
    y = Monomial.of(n, yvar(1))
    z = Monomial.of(n, zvar(1))
    # x - y and y - z: linear forms, S-pair reduces to zero.
    f = Polynomial.from_terms(n, [(1, x), (-1, y)])
    g = Polynomial.from_terms(n, [(1, y), (-1, z)])
    check = is_groebner([f, g], order)
    assert check.ok
    # x*y - z and x*z - y under the unit order is the classic failure:
    # S = y^2 - z^2 (up to sign) is reducible by neither leading term.
    f = Polynomial.from_terms(n, [(1, x * y), (-1, z)])
    g = Polynomial.from_terms(n, [(1, x * z), (-1, y)])
    check = is_groebner([f, g], order)
    assert not check.ok
    assert check.witness is not None
    i, j, residual = check.witness
    assert not residual.is_zero


def test_budget_exhaustion_raises_not_false():
    a = BlockStructure((3, 2))
    with pytest.raises(BudgetExceededError):
        verify_theorem_main(a, budget=10)


@pytest.mark.parametrize("budget", [-1, 2.5, "5", True])
def test_a_budget_that_is_not_an_int_of_at_least_zero_is_an_input_error(budget):
    """A malformed budget is refused as input, not read as one that ran out."""
    n = 1
    order = _unit_order(n)
    f = Polynomial.from_terms(n, [(1, Monomial.of(n, xvar(1))), (-1, Monomial.of(n, yvar(1)))])
    calls = [
        lambda: reduce(f, [f], order, budget=budget),
        lambda: is_groebner([f, f], order, budget=budget),
        lambda: verify_theorem_main(BlockStructure((4,)), budget=budget),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"^budget must be None or a nonnegative integer, got "):
            call()


def test_coprime_criterion_agrees_with_full_reduction():
    for parts in [(4,), (2, 2), (1, 1, 2)]:
        a = BlockStructure(parts)
        fast = verify_theorem_main(a, use_coprime_criterion=True)
        slow = verify_theorem_main(a, use_coprime_criterion=False)
        assert fast.ok and slow.ok
        assert fast.s_pairs_total == slow.s_pairs_total


def test_verify_verdict_does_not_depend_on_the_draw():
    rng = random.Random(17)
    structures = [p for n in range(3, 6) for p in all_compositions(n)]
    for _ in range(80):
        parts = rng.choice(structures)
        w0, criteria = rng.choice((1, 2, 3)), rng.random() < 0.5
        rep = verify_theorem_main(BlockStructure(parts), w0=w0, use_coprime_criterion=criteria)
        pairs = comb(comb(sum(parts), 3), 2)
        assert (
            rep.ok,
            rep.per_minor_initial_ok,
            rep.initial_ideal_equals_matching_ideal,
            rep.s_pairs_total,
        ) == (True, True, True, pairs), (parts, w0, criteria, rep.failures)


def test_verify_theorem_small_cases():
    for n in range(3, 6):
        for parts in all_compositions(n):
            rep = verify_theorem_main(BlockStructure(parts))
            assert rep.ok, (parts, rep.failures)


def test_minors_are_groebner_for_random_positive_weights():
    """The maximal minors stay a basis under every sampled weight order."""
    rng = random.Random(2024)
    for n in (4, 5):
        minors = [minor_expand(n, c) for c in combinations(range(1, n + 1), 3)]
        precedence = [VariableId(fam, i) for fam in "xyz" for i in range(1, n + 1)]
        for _ in range(50):
            weights = {v: rng.randrange(1, 40) for v in precedence}
            order = WeightOrder(n, weights, precedence)
            check = is_groebner(minors, order)
            assert check.ok, (n, weights)


def test_weight_initial_form():
    f = plucker_quadric_gr24()
    # Zero weights keep every term.
    assert weight_initial_form({}, f) == f
    w = {xvar(2): 3, xvar(5): 3}
    init = weight_initial_form(w, f)
    assert init.num_terms == 1
    assert init.coefficient(Monomial.of(6, xvar(2), xvar(5))) == -1
    # Tie the first two terms above the third: both survive, signs intact.
    w = {xvar(1): 2, xvar(6): 2, xvar(2): 2, xvar(5): 2}
    init = weight_initial_form(w, f)
    assert init.num_terms == 2
    assert init.coefficient(Monomial.of(6, xvar(1), xvar(6))) == 1
    assert init.coefficient(Monomial.of(6, xvar(2), xvar(5))) == -1


def test_attainable_initial_supports_of_quadric():
    f = plucker_quadric_gr24()
    supports = attainable_initial_supports(f)
    assert len(supports) == 7
    sizes = sorted(len(s) for s in supports)
    assert sizes == [1, 1, 1, 2, 2, 2, 3]
    full = frozenset(f.monomials())
    assert full in supports
    for s in supports:
        assert s <= full and s


def test_attainable_initial_supports_small_polynomials():
    n = 2
    x = Monomial.of(n, xvar(1))
    y = Monomial.of(n, yvar(1))
    single = Polynomial.from_terms(n, [(4, x)])
    assert len(attainable_initial_supports(single)) == 1
    binomial = Polynomial.from_terms(n, [(1, x), (-1, y)])
    supports = attainable_initial_supports(binomial)
    # Either term alone, or the tie keeping both.
    assert sorted(len(s) for s in supports) == [1, 1, 2]


def test_attainable_supports_contain_every_sampled_initial_form():
    # Any actual weight vector realizes one of the enumerated supports.
    f = plucker_quadric_gr24()
    supports = attainable_initial_supports(f)
    rng = random.Random(17)
    for _ in range(200):
        w = {xvar(i): rng.randrange(0, 6) for i in range(1, 7)}
        init = weight_initial_form(w, f)
        assert frozenset(init.monomials()) in supports


def test_attainable_supports_respects_term_cap():
    from matchfields import TooLargeError

    n = 1
    big = Polynomial.from_terms(
        n, [(1, Monomial.of(n, xvar(1)).pow(k)) for k in range(13)]
    )
    with pytest.raises(TooLargeError):
        attainable_initial_supports(big, max_terms=12)
    with pytest.raises(TooLargeError):
        attainable_initial_supports(big)


@pytest.mark.parametrize("cap", [None, -1, 2.5, True, "12"])
def test_attainable_supports_refuses_a_cap_that_is_not_an_int_of_at_least_zero(cap):
    with pytest.raises(ValueError, match=r"^max_terms must be a nonnegative integer, got "):
        attainable_initial_supports(plucker_quadric_gr24(), max_terms=cap)


def test_verify_reports_per_minor_details():
    a = BlockStructure((2, 3))
    rep = verify_theorem_main(a, w0=3)
    assert rep.per_minor_initial_ok
    assert rep.s_pairs_total == 45
    assert rep.s_pairs_reduced_to_zero == 45
    assert rep.initial_ideal_equals_matching_ideal
    assert rep.failures == ()
    assert rep.ok


def _random_ring(rng, unit_weights=False):
    """A random order on n = 1 or 2 and a maker of random small polynomials."""
    n = rng.choice([1, 2])
    variables = [VariableId(fam, i) for fam in "xyz" for i in range(1, n + 1)]
    precedence = variables[:]
    rng.shuffle(precedence)
    weights = {v: 1 if unit_weights else rng.choice([1, 1, 2, 3]) for v in variables}
    order = WeightOrder(n, weights, precedence)

    def poly(terms, coefficients=(1, -1)):
        pairs = []
        for _ in range(terms):
            m = Monomial.one(n)
            for _ in range(rng.randrange(0, 4)):
                m = m * Monomial.of(n, rng.choice(variables))
            pairs.append((rng.choice(coefficients), m))
        return Polynomial.from_terms(n, pairs)

    return order, poly


def _random_basis(rng, poly, coefficients):
    basis = [poly(rng.randrange(1, 4), coefficients) for _ in range(rng.randrange(2, 6))]
    return [b for b in basis if not b.is_zero]


def test_pair_criteria_agree_with_full_reduction_on_random_bases():
    rng = random.Random(11)
    seen = {"groebner": 0, "not groebner": 0, "non-unit leading coefficient": 0}
    for trial in range(240):
        order, poly = _random_ring(rng)
        coefficients = (1, -1) if trial % 2 else (1, -1, 2, -3, Fraction(1, 2))
        basis = _random_basis(rng, poly, coefficients)
        fast = is_groebner(basis, order)
        full = is_groebner(basis, order, use_coprime_criterion=False)
        assert fast.ok == full.ok, (basis, order.precedence)
        assert fast.s_pairs_total == full.s_pairs_total
        if fast.ok:
            assert fast.s_pairs_reduced_to_zero == full.s_pairs_reduced_to_zero
        else:
            assert fast.s_pairs_reduced_to_zero < fast.s_pairs_total
        seen["groebner" if fast.ok else "not groebner"] += 1
        if any(abs(leading_term(order, b)[0]) != 1 for b in basis):
            seen["non-unit leading coefficient"] += 1
        leads = [leading_monomial(order, b) for b in basis]
        for check in (fast, full):
            if check.witness is not None:
                _, _, residual = check.witness
                assert not residual.is_zero
                for m in residual.monomials():
                    assert not any(l.divides(m) for l in leads)
    assert min(seen.values()) >= 40, seen


def test_the_witness_is_the_first_residual_pair_in_the_normal_strategy():
    """Without the criteria every pair is divided, by lcm degree, then by the
    order on lcms, then by position; the witness is the first pair whose
    S-polynomial leaves a residual, with that residual."""
    rng = random.Random(37)
    residual_pairs = degree_decides = 0
    for _ in range(300):
        order, poly = _random_ring(rng)
        basis = _random_basis(rng, poly, (1, -1))
        leads = [leading_monomial(order, b) for b in basis]
        residuals = {}
        for i, j in combinations(range(len(basis)), 2):
            r = reduce(s_polynomial(basis[i], basis[j], order), basis, order)
            if not r.is_zero:
                lcm = leads[i].lcm(leads[j])
                residuals[(lcm.degree, order.key(lcm), i, j)] = (i, j, r)
        want = residuals[min(residuals)] if residuals else None
        assert is_groebner(basis, order, use_coprime_criterion=False).witness == want
        if residuals:
            residual_pairs += 1
            degree_decides += min(residuals) != min(residuals, key=lambda k: k[1:])
    assert residual_pairs >= 100 and degree_decides >= 5, (residual_pairs, degree_decides)


def test_s_polynomial_equals_the_term_mul_difference_on_random_bases():
    """s_polynomial(f, g) is (lcm/lt(f)) * f - (lcm/lt(g)) * g written with
    term_mul and -, on seeded random pairs whose leading coefficients are
    +-1, other ints and Fractions."""
    rng = random.Random(13)
    kinds = set()
    for trial in range(200):
        order, poly = _random_ring(rng)
        coefficients = (1, -1) if trial % 2 else (1, -1, 2, -3, Fraction(1, 2))
        for f, g in combinations(_random_basis(rng, poly, coefficients), 2):
            (cf, mf), (cg, mg) = leading_term(order, f), leading_term(order, g)
            lcm = mf.lcm(mg)
            want = f.term_mul(1 / cf, lcm.exact_div(mf)) - g.term_mul(1 / cg, lcm.exact_div(mg))
            assert s_polynomial(f, g, order) == want, (f, g, order.precedence)
            for c in (cf, cg):
                kinds.add("+-1" if abs(c) == 1 else "int" if c.denominator == 1 else "Fraction")
    assert kinds == {"+-1", "int", "Fraction"}, kinds


def test_verify_weighs_with_w0_one_by_default(monkeypatch):
    seen = []

    def recorded(a, w0):
        seen.append(w0)
        return weight_matrix(a, w0)

    monkeypatch.setattr(groebner, "weight_matrix", recorded)
    assert verify_theorem_main(BlockStructure((2, 2))).ok
    assert seen == [1]


def _to_sympy(f, symbols):
    import sympy

    return sum(
        (
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*[symbols[v] ** e for v, e in m.items()])
            for c, m in f.terms()
        ),
        sympy.Integer(0),
    )


def test_reduce_matches_sympy_reduced_under_grevlex():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5)
    for _ in range(80):
        order, poly = _random_ring(rng, unit_weights=True)
        symbols = {v: sympy.Symbol(str(v)) for v in order.precedence}
        gens = [symbols[v] for v in order.precedence]  # greatest first
        basis = _random_basis(rng, poly, (1, -1, 2, Fraction(1, 3)))
        f = poly(rng.randrange(1, 6), (1, -1, 2, Fraction(1, 3)))
        _, expected = sympy.reduced(
            _to_sympy(f, symbols),
            [_to_sympy(b, symbols) for b in basis],
            *gens,
            order="grevlex",
        )
        got = _to_sympy(reduce(f, basis, order), symbols)
        assert sympy.expand(expected - got) == 0, (f, basis)


def test_sympy_groebner_bases_pass_with_and_without_criteria():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(8)
    for _ in range(25):
        order, poly = _random_ring(rng, unit_weights=True)
        n = order.n
        symbols = {v: sympy.Symbol(str(v)) for v in order.precedence}
        gens = [symbols[v] for v in order.precedence]
        basis = _random_basis(rng, poly, (1, -1, 2))
        gb = sympy.groebner([_to_sympy(b, symbols) for b in basis], *gens, order="grevlex")
        ours = []
        for g in gb.exprs:
            terms = sympy.Poly(g, *gens).terms()
            ours.append(
                Polynomial.from_terms(
                    n,
                    [
                        (
                            Fraction(int(c.p), int(c.q)),
                            Monomial(n, dict(zip(order.precedence, exps))),
                        )
                        for exps, c in terms
                    ],
                )
            )
        for crit in (True, False):
            check = is_groebner(ours, order, use_coprime_criterion=crit)
            assert check.ok and check.witness is None
            assert check.s_pairs_reduced_to_zero == check.s_pairs_total


def test_pair_criteria_save_budget():
    a = BlockStructure((3, 2))
    assert verify_theorem_main(a, budget=30).ok
    with pytest.raises(BudgetExceededError):
        verify_theorem_main(a, budget=30, use_coprime_criterion=False)



@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, pytest.param(8, marks=pytest.mark.slow)])
def test_verify_takes_six_division_steps_per_four_columns(n):
    """On every composition and w0 the pass over the minors takes exactly
    6 * C(n, 4) division steps.  A prefilter that drops a divisor of some lcm
    from the chain criterion keeps every verdict but sends more pairs to the
    division, so it shows here as a blown budget."""
    steps, pairs = 6 * comb(n, 4), comb(comb(n, 3), 2)
    for parts in all_compositions(n):
        a = BlockStructure(parts)
        for w0 in (1, 2, 3):
            rep = verify_theorem_main(a, w0, budget=steps)
            assert rep.ok and rep.s_pairs_reduced_to_zero == pairs, (parts, w0)
            if steps:
                with pytest.raises(BudgetExceededError):
                    verify_theorem_main(a, w0, budget=steps - 1)


@pytest.mark.slow
def test_verify_proves_n20():
    rng = random.Random(20)
    for parts, w0 in [((20,), 1), (composition(20, rng.getrandbits(19)), rng.choice((1, 2, 3)))]:
        rep = verify_theorem_main(BlockStructure(parts), w0)
        assert rep.ok, (parts, w0, rep.failures)
        assert rep.s_pairs_total == rep.s_pairs_reduced_to_zero == comb(comb(20, 3), 2) == 649_230


def test_support_equals_the_exponent_definition_on_non_squarefree_monomials():
    """_Packing.support reads the guard bits; bit i must be set exactly when
    the variable at precedence position i has a positive exponent, up to an
    exponent as large as the packing bound."""
    rng = random.Random(27)
    squarefree = 0
    for _ in range(3000):
        n = rng.randint(1, 4)
        variables = [VariableId(fam, i) for fam in "xyz" for i in range(1, n + 1)]
        precedence = rng.sample(variables, len(variables))
        weights = {v: rng.choice([1, 1, 2, 3]) for v in variables}
        bound = rng.choice([1, 2, 3, 7, 8, 15, 31])
        packing = groebner._Packing(WeightOrder(n, weights, precedence), bound)
        exponents, left = {}, bound
        for v in rng.sample(variables, rng.randint(0, len(variables))):
            e = rng.randint(0, left // weights[v])
            if e:
                exponents[v] = e
                left -= e * weights[v]
        m = Monomial(n, exponents)
        want = sum(1 << i for i, v in enumerate(precedence) if m.exponent(v))
        assert packing.support(packing.pack(m)) == want, (m, bound)
        squarefree += all(e == 1 for _, e in m.items())
    assert squarefree < 1500
    # Each variable alone at the packing bound, where its field holds 0.
    order = _unit_order(2)
    for bound in (1, 7, 8):
        packing = groebner._Packing(order, bound)
        for i, v in enumerate(order.precedence):
            p = packing.pack(Monomial(2, {v: bound}))
            assert packing.exponents(p)[i] == bound and packing.support(p) == 1 << i


def test_the_exact_test_rejects_a_settled_lead_inside_the_lcm_support():
    """z1^2 is settled with both x1*y1 and y1*z1 when their pair comes up,
    and its support lies inside that of their lcm x1*y1*z1, so the
    per-variable prefilter keeps it while it drops the leads x2, y2 and z2.
    It does not divide the lcm, so the exact test must reject it: the pair
    goes to the division and leaves the residual -x1*z1."""
    n = 2
    precedence = [VariableId(fam, i) for fam in "xyz" for i in (1, 2)]
    weights = dict.fromkeys(precedence, 1)
    weights[xvar(1)] = 3
    order = WeightOrder(n, weights, precedence)
    x1, y1, z1, x2, y2, z2 = (Monomial.of(n, v) for v in precedence)
    basis = [
        Polynomial.from_terms(n, [(1, x1 * y1), (-1, x1)]),
        Polynomial.from_terms(n, [(1, y1 * z1)]),
        Polynomial.from_terms(n, [(1, z1 * z1)]),
        *(Polynomial.from_terms(n, [(1, m)]) for m in (x2, y2, z2)),
    ]
    lcm = (x1 * y1).lcm(y1 * z1)
    assert set((z1 * z1).variables()) <= set(lcm.variables()) and not (z1 * z1).divides(lcm)
    check = is_groebner(basis, order)
    assert not check.ok and not is_groebner(basis, order, use_coprime_criterion=False).ok
    assert check.witness == (0, 1, Polynomial.from_terms(n, [(-1, x1 * z1)]))
    assert check.s_pairs_reduced_to_zero == check.s_pairs_total - 1


# Each composition and w0 under two orders that break the theorem: all
# weights 1 (every minor ties) and the true weights shuffled (wrong top
# terms, and leading monomials that miss the ideal).
PERTURBED_CASES = [
    (parts, w0, kind)
    for parts in [(3,), (4,), (2, 2), (3, 2), (1, 2, 2), (5,)]
    for w0 in (1, 2)
    for kind in ("unit", "shuffled")
]


def _perturbed_weight_matrix(kind, real):
    """weight_matrix with its weights replaced, its precedence kept."""

    def weight_matrix(a, w0=1):
        order = real(a, w0)
        if kind == "unit":
            values = [1] * len(order.precedence)
        else:
            values = [order.weights[v] for v in order.precedence]
            random.Random(1000 * w0 + 10 * a.n + a.r).shuffle(values)
        return WeightOrder(order.n, dict(zip(order.precedence, values)), order.precedence)

    return weight_matrix


def test_verify_failure_reports_are_pinned(monkeypatch):
    path = Path(__file__).parent / "data" / "verify_perturbed_orders.json"
    golden = json.loads(path.read_text())
    assert [(tuple(g["parts"]), g["w0"], g["weights"]) for g in golden] == PERTURBED_CASES
    real = groebner.weight_matrix
    for want in golden:
        perturbed = _perturbed_weight_matrix(want["weights"], real)
        monkeypatch.setattr(groebner, "weight_matrix", perturbed)
        rep = verify_theorem_main(BlockStructure(want["parts"]), want["w0"])
        assert not rep.ok
        for field in (
            "per_minor_initial_ok",
            "s_pairs_total",
            "s_pairs_reduced_to_zero",
            "initial_ideal_equals_matching_ideal",
        ):
            assert getattr(rep, field) == want[field], (want, field)
        assert rep.failures == tuple(want["failures"]), want
    lead_set = "leading monomials of the minors differ from the ideal"
    assert sum(lead_set in g["failures"] for g in golden) == 22


def _verify_with_divider(monkeypatch, a, w0):
    """verify_theorem_main(a, w0) and the one _Divider it builds."""
    built = []

    class Recorded(groebner._Divider):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(groebner, "_Divider", Recorded)
    report = verify_theorem_main(a, w0)
    (div,) = built
    return report, div


def test_packed_minors_match_minor_expand(monkeypatch):
    """Each row verify packs is its minor, with the lead, weights and bound
    of the dict references."""
    for n in range(3, 7):
        subsets = list(combinations(range(1, n + 1), 3))
        for parts in all_compositions(n):
            for w0 in (1, 2, 3):
                a = BlockStructure(parts)
                order = weight_matrix(a, w0)
                report, div = _verify_with_divider(monkeypatch, a, w0)
                assert report.ok
                packing = div.packing
                assert len(div.rows) == len(subsets)
                leads = []
                for cols, (lead, inv, tail) in zip(subsets, div.rows):
                    f = minor_expand(n, cols)
                    terms = {lead: 1 / Fraction(inv), **dict(tail)}
                    assert packing.polynomial(terms) == f
                    leads.append(leading_monomial(order, f))
                    assert packing.monomial(lead, n) == leads[-1]
                    for p in terms:
                        assert packing.weight(p) == order.weight(packing.monomial(p, n))
                for g, h in combinations(leads, 2):
                    assert order.weight(g.lcm(h)) <= packing.bound


def test_the_divider_table_holds_each_leads_guarded_form_and_support(monkeypatch):
    """Position i of the table belongs to row i's lead: guarded[i] is it with
    its guard bits set, supports[i] has bit v set exactly when the variable
    at precedence position v occurs in it, and leads sends it to i."""
    for n in range(3, 7):
        for parts in all_compositions(n):
            _, div = _verify_with_divider(monkeypatch, BlockStructure(parts), 1)
            packing = div.packing
            leads = [lead for lead, _, _ in div.rows]
            assert div.guarded == [p | packing.guards for p in leads]
            assert div.supports == [packing.support(p) for p in leads]
            for p, sup in zip(leads, div.supports):
                assert sup == sum(1 << v for v, e in enumerate(packing.exponents(p)) if e)
            assert list(div.leads.items()) == [(lg, i) for i, lg in enumerate(div.guarded)]


def test_verify_builds_no_order_keys_and_only_the_ideal_monomials(monkeypatch):
    calls = {"key": 0, "weight": 0, "monomial": 0}

    def counted(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(WeightOrder, "key", counted("key", WeightOrder.key))
    monkeypatch.setattr(WeightOrder, "weight", counted("weight", WeightOrder.weight))
    monkeypatch.setattr(Monomial, "__init__", counted("monomial", Monomial.__init__))
    for parts in [(6,), (3, 3), (2, 2, 2)]:
        assert verify_theorem_main(BlockStructure(parts)).ok
    assert calls == {"key": 0, "weight": 0, "monomial": 0}


@pytest.fixture
def layouts(monkeypatch):
    """The packed layouts built; every packed route starts by building one."""
    built = []
    init = Layout.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Layout, "__init__", counted)
    return built


@pytest.mark.parametrize("bad", [1.5, Fraction(3, 2), 2.0, True, False])
def test_weight_order_rejects_a_weight_that_is_not_an_int(layouts, bad):
    order = weight_matrix(BlockStructure((3,)))
    f = minor_expand(3, (1, 2, 3))
    with pytest.raises(ValueError, match="must be a positive integer"):
        is_groebner([f], WeightOrder(3, {**order.weights, xvar(1): bad}, order.precedence))
    # weight_matrix passes a non-int w0 on into every weight.
    with pytest.raises(ValueError, match="must be a positive integer"):
        verify_theorem_main(BlockStructure((3,)), w0=bad)
    assert layouts == []


@pytest.mark.parametrize("bad", [1.5, Fraction(3, 2), 2.0, "1", True, False])
def test_monomial_rejects_an_exponent_that_is_not_an_int(layouts, bad):
    order = weight_matrix(BlockStructure((3,)))
    f = minor_expand(3, (1, 2, 3))
    with pytest.raises(ValueError, match="must be a nonnegative integer"):
        reduce(Polynomial(3, {Monomial(3, {xvar(1): bad}): 1}), [f], order)
    assert layouts == []


@pytest.mark.parametrize(
    "parts", [(2.7, 1), ["3"], (3.0,), (Fraction(3),), (True, 2), (3, False)]
)
def test_block_structure_rejects_a_part_that_is_not_an_int(layouts, parts):
    with pytest.raises(ValueError, match="must be positive integers"):
        verify_theorem_main(BlockStructure(parts))
    assert layouts == []


@pytest.mark.parametrize("n", [3, 4, 5])
def test_minor_leads_match_sympy_grevlex_bases(n):
    """With all weights 1 the order is grevlex along the precedence.  The
    maximal minors are a universal Groebner basis with distinct squarefree
    leading monomials, so sympy's reduced basis has exactly their leads."""
    sympy = pytest.importorskip("sympy")
    variables = [VariableId(f, i) for f in "xyz" for i in range(1, n + 1)]
    minors = [minor_expand(n, c) for c in combinations(range(1, n + 1), 3)]
    for seed in range(3):
        precedence = random.Random(seed).sample(variables, len(variables))
        order = WeightOrder(n, dict.fromkeys(variables, 1), precedence)
        symbols = {v: sympy.Symbol(str(v)) for v in precedence}
        gens = [symbols[v] for v in precedence]  # greatest first
        basis = sympy.groebner([_to_sympy(f, symbols) for f in minors], *gens, order="grevlex")
        want = {
            tuple(leading_monomial(order, f).exponent(v) for v in precedence) for f in minors
        }
        assert {p.monoms(order="grevlex")[0] for p in basis.polys} == want, (n, seed)
        assert is_groebner(minors, order).ok


def test_a_residual_s_pair_fails_verify_with_its_witness(monkeypatch):
    leave_the_first_s_pair_unreduced(monkeypatch)
    report = verify_theorem_main(BlockStructure((4,)))
    assert report.ok is False
    assert report.per_minor_initial_ok is True
    assert (report.s_pairs_total, report.s_pairs_reduced_to_zero) == (6, 5)
    assert report.initial_ideal_equals_matching_ideal is False
    assert report.failures == (INJECTED_RESIDUAL,)
