"""The shared packed-exponent layout against dict Monomial arithmetic."""

import random
from itertools import combinations_with_replacement

import pytest

from matchfields import BlockStructure, Monomial, VariableId, generator_triples, weight_matrix
from matchfields._packed import Layout, pack_minimal, pack_triples
from matchfields.algebra import FAMILIES, WeightOrder
from matchfields.groebner import _Packing

N = 3
VARIABLES = [VariableId(f, i) for f in FAMILIES for i in range(1, N + 1)]


def random_monomial(rng, top, at_most=None):
    """Exponents up to top (or up to top - at_most's), one of them at its cap."""
    cap = {v: top - (at_most.exponent(v) if at_most else 0) for v in VARIABLES}
    exps = {v: rng.randint(0, cap[v]) for v in rng.sample(VARIABLES, rng.randint(1, 5))}
    v = rng.choice(VARIABLES)
    exps[v] = cap[v]
    return Monomial(N, exps)


def guard_divides(layout, g, h):
    return ((h | layout.guards) - g) & layout.guards == layout.guards


def test_layout_matches_dict_monomials():
    rng = random.Random(6)
    for _ in range(400):
        top = (1 << rng.randint(1, 4)) - 1  # exponents reach the field maximum
        order = rng.sample(VARIABLES, len(VARIABLES))
        layout = Layout(order, top)
        a, b = random_monomial(rng, top), random_monomial(rng, top)
        c = random_monomial(rng, top, at_most=a)
        pa, pb, pc = (layout.pack(m) for m in (a, b, c))
        assert layout.exponents(pa) == [a.exponent(v) for v in order]
        assert layout.monomial(pa, N) == a and layout.monomial(pa + pc, N) == a * c
        assert layout.pack(a * c) == pa + pc
        assert layout.monus([pa, pb], pb) == [
            layout.pack(a.exact_div(a.gcd(b))),
            0,
        ]
        assert guard_divides(layout, pa, pb) == a.divides(b)
        assert guard_divides(layout, pb, pa) == b.divides(a)
        assert guard_divides(layout, pa, pa + pc)
        assert guard_divides(layout, pc, pa + pc)
        assert [layout.units.get(layout.pack(Monomial.of(N, v))) for v in order] == order


def test_layout_units_for_indexed_variables():
    layout = Layout(range(4), 3)
    assert list(layout.units) == [1, 1 << 3, 1 << 6, 1 << 9]
    assert layout.guards == sum(1 << (3 * i + 2) for i in range(4))


def test_pack_minimal_rejects_non_minimal_sets():
    x, y = Monomial.of(N, VARIABLES[0]), Monomial.of(N, VARIABLES[1])
    layout, packed = pack_minimal([x, y * y])
    assert packed == [layout.pack(x), layout.pack(y * y)]
    for bad in ([x, x], [x, x * y], [x * y, y], [x, Monomial.of(N + 1, VARIABLES[1])]):
        with pytest.raises(ValueError):
            pack_minimal(bad)


def random_order(rng):
    weights = {v: rng.randint(1, 4) for v in VARIABLES}
    return WeightOrder(N, weights, rng.sample(VARIABLES, len(VARIABLES)))


def packing_divides(packing, lead, term):
    guards = packing.guards
    return ((lead | guards) - (term & packing.exp_mask)) & guards == guards


def test_packing_matches_dict_monomials():
    """One int per monomial: it compares as the order does, tests
    divisibility, multiplies, takes lcms and unpacks like dict Monomials."""
    rng = random.Random(7)
    for _ in range(400):
        order = random_order(rng)
        a, b = random_monomial(rng, 3), random_monomial(rng, 3)
        packing = _Packing(order, 2 * max(order.weight(a), order.weight(b)))
        pa, pb, pab = packing.pack(a), packing.pack(b), packing.pack(a * b)
        assert packing.pack(Monomial.one(N)) == packing.one
        assert pab == pa + pb - packing.one
        assert (pa < pb) == (order.key(a) < order.key(b))
        assert (pa == pb) == (a == b)
        for g, h in ((a, b), (b, a), (a, a * b), (b, a * b), (a * b, a)):
            assert packing_divides(packing, packing.pack(g), packing.pack(h)) == g.divides(h)
        assert [v for i, v in enumerate(order.precedence) if packing.support(pa) >> i & 1] == [
            v for v in order.precedence if a.exponent(v)
        ]
        l = packing.lcm(pa, pb, packing.support(pa) & packing.support(pb))
        assert l == packing.pack(a.lcm(b))
        assert l >> packing.deg_shift & packing.field == a.lcm(b).degree
        assert packing.exponents(l) == [a.lcm(b).exponent(v) for v in order.precedence]
        assert packing.monomial(pa, N) == a and packing.monomial(pab, N) == a * b
        assert list(packing.polynomial({l: 1}).monomials()) == [a.lcm(b)]


def test_packing_rejects_monomials_past_its_bound():
    order = weight_matrix(BlockStructure((2, 3)))
    for m in (Monomial.of(5, *VARIABLES[:3]), Monomial.of(5, VARIABLES[2], VARIABLES[2])):
        w = order.weight(m)
        packing = _Packing(order, w)
        assert list(packing.polynomial({packing.pack(m): 1}).monomials()) == [m]
        with pytest.raises(OverflowError):
            _Packing(order, w - 1).pack(m)


def test_pack_triples_holds_every_product_up_to_its_bound():
    """At bound b, the code of each product of at most b triples, repeats
    included, is the sum of its factors' codes, and its fields read the
    exponent sums: no field carries into the next."""
    rng = random.Random(35)
    for _ in range(60):
        n, b = rng.randint(3, 8), rng.randint(1, 6)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
        parts = tuple(hi - lo for lo, hi in zip([0, *cuts], [*cuts, n]))
        every = generator_triples(BlockStructure(parts))
        triples = rng.sample(every, rng.randint(1, min(3, len(every))))
        layout, codes = pack_triples(triples, n, b)
        assert layout.variables == tuple(VariableId(f, c) for f in FAMILIES for c in range(1, n + 1))
        for d in range(b + 1):
            for product in combinations_with_replacement(range(len(triples)), d):
                code = sum(codes[i] for i in product)
                m = Monomial.one(n)
                for i in product:
                    m = m * triples[i].monomial(n)
                assert code == layout.pack(m), (parts, b, product)
                assert layout.exponents(code) == [m.exponent(v) for v in layout.variables]
                assert layout.monomial(code, n) == m
