"""Exact monomial/polynomial arithmetic and the weight-then-revlex order."""

import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from matchfields import (
    InvalidColumnsError,
    Monomial,
    NotDivisibleError,
    Polynomial,
    VariableId,
    WeightOrder,
    ZeroPolynomialError,
    leading_monomial,
    leading_term,
    minor_expand,
    xvar,
    yvar,
    zvar,
)
from matchfields.matching import BlockStructure, weight_matrix


def test_variable_id_repr_and_helpers():
    assert str(xvar(3)) == "x3"
    assert str(yvar(1)) == "y1"
    assert str(zvar(12)) == "z12"
    assert xvar(2) == VariableId("x", 2)


def test_monomial_construction_and_repr():
    m = Monomial.of(4, xvar(1), yvar(2), zvar(3))
    assert repr(m) == "x1*y2*z3"
    assert m.degree == 3
    assert m.exponent(xvar(1)) == 1
    assert m.exponent(xvar(4)) == 0
    sq = Monomial.of(4, zvar(3), zvar(3))
    assert repr(sq) == "z3^2"
    assert repr(Monomial.one(4)) == "1"
    assert Monomial.one(4).is_one


def test_polynomial_repr_signs_constants_and_fractions():
    x1, y1, y2 = (Monomial.of(2, v) for v in (xvar(1), yvar(1), yvar(2)))
    one = Monomial.one(2)
    assert repr(Polynomial.zero(2)) == "0"
    assert repr(Polynomial(2, {one: 3})) == "3"
    assert repr(Polynomial(2, {one: -1})) == "-1"
    assert repr(Polynomial(2, {x1: -1, y1: 1})) == "-x1 + y1"
    assert repr(Polynomial(2, {x1: Fraction(-1, 2)})) == "-1/2*x1"
    mixed = Polynomial(2, {x1: -1, y1: Fraction(1, 2), one: 2, y2: Fraction(-3, 4)})
    assert repr(mixed) == "2 - x1 + 1/2*y1 - 3/4*y2"


def test_monomial_rejects_bad_variables():
    with pytest.raises(ValueError):
        Monomial.of(3, xvar(4))
    with pytest.raises(ValueError):
        Monomial.of(3, VariableId("w", 1))


INEXACT = [0.1, 2.0, "1/3", Decimal("0.5"), True, False]


def _refused(value):
    """pytest.raises for the ValueError that names value as the refused input."""
    return pytest.raises(ValueError, match=f"got {re.escape(repr(value))}$")


@pytest.mark.parametrize("c", INEXACT)
def test_polynomial_refuses_a_coefficient_that_is_not_an_int_or_a_fraction(c):
    with _refused(c):
        Polynomial(3, {Monomial.of(3, xvar(1)): c})


@pytest.mark.parametrize("c", INEXACT)
def test_from_terms_refuses_a_coefficient_that_is_not_an_int_or_a_fraction(c):
    with _refused(c):
        Polynomial.from_terms(3, [(c, Monomial.of(3, xvar(1)))])


@pytest.mark.parametrize("c", INEXACT)
def test_term_mul_refuses_a_coefficient_that_is_not_an_int_or_a_fraction(c):
    x1 = Monomial.of(3, xvar(1))
    with _refused(c):
        Polynomial.from_terms(3, [(1, x1)]).term_mul(c, x1)


@pytest.mark.parametrize("n", [3.0, 2.5, "3", True, Fraction(3), 0, -1])
def test_monomial_refuses_an_ambient_n_that_is_not_a_positive_int(n):
    with _refused(n):
        Monomial(n)


@pytest.mark.parametrize("n", [3.0, 2.5, "3", True, Fraction(3), 0, -1])
def test_polynomial_refuses_an_ambient_n_that_is_not_a_positive_int(n):
    with _refused(n):
        Polynomial(n)


def test_ints_and_fractions_are_exact_coefficients():
    x1, y1 = Monomial.of(1, xvar(1)), Monomial.of(1, yvar(1))
    f = Polynomial(1, {x1: 2, y1: Fraction(1, 3)})
    assert f == Polynomial.from_terms(1, [(2, x1), (Fraction(1, 3), y1)])
    assert f.coefficient(x1) == 2 and f.coefficient(y1) == Fraction(1, 3)
    assert f.term_mul(3, x1) == Polynomial(1, {x1 * x1: 6, x1 * y1: 1})
    assert f.term_mul(Fraction(3, 2), y1) == Polynomial(1, {x1 * y1: 3, y1 * y1: Fraction(1, 2)})
    assert Monomial(1).n == Polynomial(1).n == 1


def test_monomial_multiplication_and_division():
    a = Monomial.of(3, xvar(1), yvar(2))
    b = Monomial.of(3, yvar(2), zvar(3))
    ab = a * b
    assert ab.exponent(yvar(2)) == 2
    assert ab.degree == 4
    assert a.divides(ab) and b.divides(ab)
    assert ab.exact_div(a) == b
    assert not ab.divides(a)
    with pytest.raises(NotDivisibleError):
        a.exact_div(b)


def test_monomial_gcd_lcm_coprime():
    a = Monomial.of(3, xvar(1), xvar(1), yvar(2))
    b = Monomial.of(3, xvar(1), zvar(3))
    assert repr(a.gcd(b)) == "x1"
    assert a.lcm(b) == Monomial.of(3, xvar(1), xvar(1), yvar(2), zvar(3))
    assert not a.coprime(b)
    assert a.coprime(Monomial.of(3, zvar(2)))
    assert a.lcm(b).exact_div(a.gcd(b)) == Monomial.of(3, xvar(1), yvar(2), zvar(3))


def test_monomial_gcd_lcm_random_identity():
    rng = random.Random(7)
    vs = [xvar(1), xvar(2), yvar(1), yvar(2), zvar(1), zvar(2)]
    for _ in range(300):
        a = Monomial.one(2)
        b = Monomial.one(2)
        for v in vs:
            a = a * Monomial.of(2, v).pow(rng.randrange(3))
            b = b * Monomial.of(2, v).pow(rng.randrange(3))
        assert a.gcd(b) * a.lcm(b) == a * b
        assert a.gcd(b).divides(a) and a.gcd(b).divides(b)
        assert a.divides(a.lcm(b)) and b.divides(a.lcm(b))


def test_polynomial_arithmetic_cancels():
    n = 2
    m1 = Monomial.of(n, xvar(1))
    m2 = Monomial.of(n, yvar(1))
    f = Polynomial.from_terms(n, [(1, m1), (2, m2)])
    g = Polynomial.from_terms(n, [(Fraction(1, 2), m1), (-2, m2)])
    assert (f + g).coefficient(m2) == 0
    assert (f + g).coefficient(m1) == Fraction(3, 2)
    assert (f - f).is_zero
    prod = f * g
    assert prod.coefficient(m1 * m2) == Fraction(-2) + Fraction(1)
    assert prod.coefficient(m1 * m1) == Fraction(1, 2)


def test_polynomial_zero_and_term_listing():
    n = 1
    z = Polynomial.zero(n)
    assert z.is_zero and z.num_terms == 0
    f = Polynomial.from_terms(n, [(1, Monomial.of(n, xvar(1))), (-1, Monomial.of(n, xvar(1)))])
    assert f.is_zero


def _simple_order(n):
    weights = {}
    for fam in "xyz":
        for i in range(1, n + 1):
            weights[VariableId(fam, i)] = 1
    precedence = [VariableId(fam, i) for fam in "xyz" for i in range(1, n + 1)]
    return WeightOrder(n, weights, precedence)


def test_weight_order_validation():
    n = 2
    good = _simple_order(n)
    assert good.weight(Monomial.of(n, xvar(1), yvar(2))) == 2
    with pytest.raises(ValueError):
        WeightOrder(n, {xvar(1): 1}, [xvar(1)])
    weights = {VariableId(fam, i): 1 for fam in "xyz" for i in (1, 2)}
    weights[zvar(2)] = 0
    with pytest.raises(ValueError):
        WeightOrder(n, weights, list(weights))


def test_grevlex_tie_break_prefers_smaller_late_exponent():
    # Equal weight and degree: the monomial with smaller exponent in the
    # least variable wins.  With precedence x1 > x2, x1 beats x2.
    n = 2
    order = _simple_order(n)
    x1 = Monomial.of(n, xvar(1))
    x2 = Monomial.of(n, xvar(2))
    assert order.compare(x1, x2) == 1
    assert order.max_monomial([x1, x2]) == x1
    # Classic grevlex check: x1*x2^2 < x1^2*x2.
    a = Monomial.of(n, xvar(1), xvar(2), xvar(2))
    b = Monomial.of(n, xvar(1), xvar(1), xvar(2))
    assert order.compare(a, b) == -1


def test_weight_dominates_degree_and_tie_break():
    n = 1
    weights = {xvar(1): 5, yvar(1): 1, zvar(1): 1}
    order = WeightOrder(n, weights, [xvar(1), yvar(1), zvar(1)])
    # x has weight 5; y^4 has weight 4 but degree 4 > 1: weight decides.
    x = Monomial.of(n, xvar(1))
    y4 = Monomial.of(n, yvar(1)).pow(4)
    assert order.compare(x, y4) == 1
    y5 = Monomial.of(n, yvar(1)).pow(5)
    # Equal weight 5: higher total degree wins.
    assert order.compare(y5, x) == 1


def test_order_axioms_random():
    """Total order compatible with multiplication, 1 is minimal."""
    rng = random.Random(20240814)
    a = BlockStructure((2, 2))
    order = weight_matrix(a)
    n = a.n
    vs = [VariableId(fam, i) for fam in "xyz" for i in range(1, n + 1)]

    def rand_mono():
        m = Monomial.one(n)
        for _ in range(rng.randrange(4)):
            m = m * Monomial.of(n, rng.choice(vs))
        return m

    for _ in range(10_000):
        p, q, r = rand_mono(), rand_mono(), rand_mono()
        cpq = order.compare(p, q)
        assert cpq == -order.compare(q, p)
        if cpq == 0:
            assert p == q
        # multiplicativity
        assert order.compare(p * r, q * r) == cpq
        # transitivity on a sorted triple
        s = sorted([p, q, r], key=order.key)
        assert order.compare(s[0], s[2]) <= 0
        # 1 is the least monomial
        if not p.is_one:
            assert order.compare(Monomial.one(n), p) == -1


def test_weight_additivity_random():
    rng = random.Random(99)
    a = BlockStructure((3, 1))
    order = weight_matrix(a, w0=2)
    n = a.n
    vs = [VariableId(fam, i) for fam in "xyz" for i in range(1, n + 1)]
    for _ in range(500):
        m1 = Monomial.of(n, rng.choice(vs)).pow(rng.randrange(1, 3))
        m2 = Monomial.of(n, rng.choice(vs), rng.choice(vs))
        assert order.weight(m1 * m2) == order.weight(m1) + order.weight(m2)


def test_leading_term_and_zero_error():
    n = 2
    order = _simple_order(n)
    f = Polynomial.from_terms(
        n, [(3, Monomial.of(n, xvar(1))), (5, Monomial.of(n, yvar(1), yvar(2)))]
    )
    c, m = leading_term(order, f)
    assert c == 5 and m == Monomial.of(n, yvar(1), yvar(2))
    assert leading_monomial(order, f) == m
    with pytest.raises(ZeroPolynomialError):
        leading_term(order, Polynomial.zero(n))


def test_minor_expand_three_columns():
    f = minor_expand(3, (1, 2, 3))
    assert f.num_terms == 6
    # Diagonal term has coefficient +1, its transposition partner -1.
    diag = Monomial.of(3, xvar(1), yvar(2), zvar(3))
    assert f.coefficient(diag) == 1
    swapped = Monomial.of(3, xvar(2), yvar(1), zvar(3))
    assert f.coefficient(swapped) == -1
    # Each term uses one variable per family with the chosen column set.
    for coeff, m in f.terms():
        assert abs(coeff) == 1
        assert m.degree == 3
        fams = sorted(v.family for v in m.variables())
        assert fams == ["x", "y", "z"]
        assert sorted(v.index for v in m.variables()) == [1, 2, 3]


def test_minor_expand_laplace_identity_random():
    """det via the 6-term rule equals cofactor expansion along the x row."""
    rng = random.Random(5)
    n = 6
    for _ in range(50):
        cols = tuple(sorted(rng.sample(range(1, n + 1), 3)))
        f = minor_expand(n, cols)
        i, j, k = cols
        # Cofactor expansion: x_i*(y_j z_k - y_k z_j) - x_j*(...) + x_k*(...)
        def two_by_two(c1, c2):
            return Polynomial.from_terms(
                n,
                [
                    (1, Monomial.of(n, yvar(c1), zvar(c2))),
                    (-1, Monomial.of(n, yvar(c2), zvar(c1))),
                ],
            )

        g = (
            two_by_two(j, k).term_mul(Fraction(1), Monomial.of(n, xvar(i)))
            - two_by_two(i, k).term_mul(Fraction(1), Monomial.of(n, xvar(j)))
            + two_by_two(i, j).term_mul(Fraction(1), Monomial.of(n, xvar(k)))
        )
        assert f == g


def test_minor_expand_rejects_bad_columns():
    with pytest.raises(InvalidColumnsError):
        minor_expand(4, (1, 2))
    with pytest.raises(InvalidColumnsError):
        minor_expand(4, (1, 2, 2))
    with pytest.raises(InvalidColumnsError):
        minor_expand(4, (0, 2, 3))
    with pytest.raises(InvalidColumnsError):
        minor_expand(4, (2, 4, 5))
