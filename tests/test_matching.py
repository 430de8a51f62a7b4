"""Block structures, generator triples, weight matrices, block ordering."""

import dataclasses
import random
from fractions import Fraction
from itertools import combinations

import pytest

from matchfields import (
    BlockStructure,
    GeneratorTriple,
    InvalidColumnsError,
    InvalidSubsetError,
    MonomialIdeal,
    Monomial,
    NotAGeneratorError,
    TooSmallError,
    VariableId,
    block_order_compare,
    generator,
    generator_triples,
    matching_ideal,
    minor_expand,
    s_set,
    s_set_variables,
    s_size_closed_form,
    sort_generators,
    weight_matrix,
    xvar,
    yvar,
    zvar,
)

from matchfields import matching

from helpers import all_compositions


def test_block_structure_basics():
    a = BlockStructure((2, 3, 2))
    assert a.n == 7
    assert a.r == 3
    assert a.alphas == (0, 2, 5, 7)
    assert list(a.block(1)) == [1, 2]
    assert list(a.block(2)) == [3, 4, 5]
    assert list(a.block(3)) == [6, 7]
    assert [a.block_of(i) for i in range(1, 8)] == [1, 1, 2, 2, 2, 3, 3]


def test_block_structure_validation():
    with pytest.raises(ValueError):
        BlockStructure(())
    with pytest.raises(ValueError):
        BlockStructure((2, 0, 1))
    with pytest.raises(ValueError):
        BlockStructure((-1,))


def test_generator_swap_rule():
    # Single block: every subset keeps its natural (i, j, k) assignment.
    a = BlockStructure((5,))
    for sub in combinations(range(1, 6), 3):
        assert generator(a, sub) == GeneratorTriple(*sub)
    # Singleton blocks: the first block always meets the subset in exactly
    # one column, so every triple is swapped to (j, i, k).
    b = BlockStructure((1, 1, 1, 1, 1))
    for i, j, k in combinations(range(1, 6), 3):
        assert generator(b, (i, j, k)) == GeneratorTriple(j, i, k)
    # Mixed: with blocks {1,2,3},{4,5}, subset {1,2,4} has two columns in
    # the first block (no swap) while {1,4,5} has one (swap).
    c = BlockStructure((3, 2))
    assert generator(c, (1, 2, 4)) == GeneratorTriple(1, 2, 4)
    assert generator(c, (1, 4, 5)) == GeneratorTriple(4, 1, 5)
    assert generator(c, (3, 4, 5)) == GeneratorTriple(4, 3, 5)
    assert generator(c, (1, 2, 3)) == GeneratorTriple(1, 2, 3)
    # Every composition: generator and generator_triples both follow the
    # literal rule, which counts the columns in the first block that meets
    # the subset and swaps when that count is one.
    for n in range(3, 11):
        for parts in all_compositions(n):
            d = BlockStructure(parts)
            block = [t for t, p in enumerate(parts, 1) for _ in range(p)]
            expected = []
            for i, j, k in combinations(range(1, n + 1), 3):
                hits = sum(block[c - 1] == block[i - 1] for c in (i, j, k))
                expected.append(GeneratorTriple(j, i, k) if hits == 1 else GeneratorTriple(i, j, k))
            assert generator_triples(d) == expected, parts
            assert [generator(d, t.subset()) for t in expected] == expected, parts


def test_generator_accepts_unsorted_and_validates():
    a = BlockStructure((3, 2))
    assert generator(a, (5, 1, 4)) == generator(a, (1, 4, 5))
    with pytest.raises(InvalidSubsetError):
        generator(a, (1, 2))
    with pytest.raises(InvalidSubsetError):
        generator(a, (1, 1, 2))
    with pytest.raises(InvalidSubsetError):
        generator(a, (0, 1, 2))
    with pytest.raises(InvalidSubsetError):
        generator(a, (4, 5, 6))
    with pytest.raises(InvalidSubsetError):
        generator(a, "123")


@pytest.mark.parametrize("bad", [1.5, 2.0, Fraction(2), True, "2"])
@pytest.mark.parametrize(
    "call, error",
    [
        (lambda c: generator(BlockStructure((3, 2)), (c, 4, 5)), InvalidSubsetError),
        (lambda c: BlockStructure((3, 2)).block_of(c), ValueError),
        (lambda c: BlockStructure((3, 2)).block(c), ValueError),
        (lambda c: Monomial(5, {VariableId("x", c): 1}), ValueError),
        (lambda c: minor_expand(5, (c, 4, 5)), InvalidColumnsError),
    ],
    ids=["generator", "block_of", "block", "monomial", "minor_expand"],
)
def test_an_index_that_is_not_an_int_is_out_of_range(call, error, bad):
    with pytest.raises(error, match="outside"):
        call(bad)


def test_generator_triples_counts_and_minimum():
    assert len(generator_triples(BlockStructure((5,)))) == 10
    assert len(generator_triples(BlockStructure((2, 3, 2)))) == 35
    with pytest.raises(TooSmallError):
        generator_triples(BlockStructure((2,)))


def test_generator_triples_reads_the_table_alone(monkeypatch):
    a = BlockStructure((4, 4, 4))
    expected = [generator(a, c) for c in combinations(range(1, 13), 3)]
    calls = []

    def counted(f):
        def wrapper(*args):
            calls.append(f.__name__)
            return f(*args)

        return wrapper

    monkeypatch.setattr(matching, "generator", counted(matching.generator))
    monkeypatch.setattr(BlockStructure, "block_of", counted(BlockStructure.block_of))
    assert generator_triples(a) == expected
    assert calls == []
    a.block_of(5)  # the wrappers count
    assert calls == ["block_of"]


def test_sort_generators_reads_the_table_alone(monkeypatch):
    """The sort key reads the column table, not block_of, and orders every
    composition of n <= 8 as the validated block_of key does."""
    for n in range(3, 9):
        for parts in all_compositions(n):
            a = BlockStructure(parts)
            expected = sorted(
                generator_triples(a), key=lambda t: (-t.z, a.block_of(t.y), -t.y, t.x)
            )
            assert sort_generators(a) == expected, parts
    calls = []
    block_of = BlockStructure.block_of

    def counted(self, i):
        calls.append(i)
        return block_of(self, i)

    monkeypatch.setattr(BlockStructure, "block_of", counted)
    a = BlockStructure((4, 4, 4))
    assert len(sort_generators(a)) == 220
    assert calls == []
    a.block_of(5)  # the wrapper counts
    assert calls == [5]


def test_block_structure_equality_reads_parts_alone():
    a, b = BlockStructure((2, 3)), BlockStructure([2, 3])
    assert a == b and hash(a) == hash(b) and repr(a) == "BlockStructure([2, 3])"
    assert [f.name for f in dataclasses.fields(a)] == ["parts"]


def test_triple_subset_and_monomial():
    t = GeneratorTriple(4, 1, 5)
    assert t.subset() == (1, 4, 5)
    assert t.monomial(5) == Monomial.of(5, xvar(4), yvar(1), zvar(5))


def test_triple_prints_as_its_monomial():
    for n in range(3, 8):
        for parts in all_compositions(n):
            for t in generator_triples(BlockStructure(parts)):
                assert str(t) == repr(t.monomial(n)), t
    assert str(GeneratorTriple(10, 2, 11)) == "x10*y2*z11"


def test_matching_ideal_squarefree_distinct():
    for parts in [(4,), (2, 2), (1, 3), (3, 2, 1)]:
        a = BlockStructure(parts)
        ideal = matching_ideal(a)
        gens = ideal.sorted_generators()
        assert len(gens) == len(generator_triples(a))
        for g in gens:
            assert g.degree == 3
            assert all(e == 1 for _, e in g.items())


def test_monomial_ideal_minimalization():
    n = 2
    x = Monomial.of(n, xvar(1))
    xy = Monomial.of(n, xvar(1), yvar(1))
    z = Monomial.of(n, zvar(2))
    ideal = MonomialIdeal.from_monomials([xy, x, z, x])
    assert set(ideal.generators) == {x, z}
    with pytest.raises(ValueError):
        MonomialIdeal(frozenset({x, xy}))


def test_weight_matrix_frozen_example():
    a = BlockStructure((2, 3, 2))
    order = weight_matrix(a, w0=1)
    n = 7
    assert [order.weights[xvar(i)] for i in range(1, n + 1)] == [1] * 7
    assert [order.weights[yvar(i)] for i in range(1, n + 1)] == [7, 8, 4, 5, 6, 2, 3]
    assert [order.weights[zvar(i)] for i in range(1, n + 1)] == [1, 1, 13, 18, 23, 28, 33]


def test_weight_matrix_single_block():
    order = weight_matrix(BlockStructure((3,)), w0=1)
    assert [order.weights[yvar(i)] for i in (1, 2, 3)] == [2, 3, 4]
    assert [order.weights[zvar(i)] for i in (1, 2, 3)] == [1, 1, 5]


def test_weight_matrix_w0_shift():
    a = BlockStructure((3, 2))
    o1 = weight_matrix(a, w0=1)
    o5 = weight_matrix(a, w0=5)
    for i in range(1, 6):
        assert o5.weights[xvar(i)] == 5
        assert o5.weights[yvar(i)] == o1.weights[yvar(i)] + 4
    assert o5.weights[zvar(1)] == 5 and o5.weights[zvar(2)] == 5
    # z weights above index 2 step by n - 2 from the last y of block one.
    assert o5.weights[zvar(3)] == o5.weights[yvar(3)] + (5 - 2)
    assert o5.weights[zvar(4)] == o5.weights[yvar(3)] + 2 * (5 - 2)


@pytest.mark.parametrize("bad", ["2", 1.5, 2.0, Fraction(2), True, False, 0, None])
def test_weight_matrix_rejects_a_w0_that_is_not_a_positive_int(bad):
    with pytest.raises(ValueError, match="^w0 must be a positive integer"):
        weight_matrix(BlockStructure((3, 2)), bad)


def _fill_loop_weight_matrix(a, w0):
    """Reference: the weights and precedence as the block-by-block fill loop."""
    n, r = a.n, a.r
    alpha = a.alphas

    yw = {}
    for s in range(r, 0, -1):
        first = alpha[s - 1] + 1
        yw[first] = (w0 + 1) if s == r else yw[alpha[s + 1]] + 1
        for j in range(first + 1, alpha[s] + 1):
            yw[j] = yw[first] + (j - first)

    zw = {}
    if n >= 1:
        zw[1] = w0
    if n >= 2:
        zw[2] = w0
    top_y = yw[alpha[1]]
    for i in range(3, n + 1):
        zw[i] = top_y + (n - 2) * (i - 2)

    weights = {}
    for i in range(1, n + 1):
        weights[xvar(i)] = w0
        weights[yvar(i)] = yw[i]
        weights[zvar(i)] = zw[i]

    precedence = [zvar(i) for i in range(n, 2, -1)]
    for s in range(1, r + 1):
        precedence.extend(yvar(j) for j in range(alpha[s], alpha[s - 1], -1))
    if n >= 2:
        precedence.append(zvar(2))
    precedence.append(zvar(1))
    precedence.extend(xvar(i) for i in range(1, n + 1))
    return weights, precedence


def test_weight_matrix_matches_the_fill_loop():
    for n in range(1, 13):
        for parts in all_compositions(n):
            a = BlockStructure(parts)
            for w0 in (1, 2, 3):
                order = weight_matrix(a, w0)
                weights, precedence = _fill_loop_weight_matrix(a, w0)
                assert order.weights == weights, (parts, w0)
                assert list(order.precedence) == precedence, (parts, w0)


def test_weight_matrix_y_row_is_a_permutation_of_a_range():
    """The y weights are exactly w0+1 .. w0+n for every block structure."""
    for n in range(3, 9):
        for parts in all_compositions(n):
            a = BlockStructure(parts)
            for w0 in (1, 5):
                order = weight_matrix(a, w0=w0)
                ys = sorted(order.weights[yvar(i)] for i in range(1, n + 1))
                assert ys == list(range(w0 + 1, w0 + n + 1)), (parts, w0)


def test_weight_evaluation_on_seven_column_example():
    a = BlockStructure((2, 3, 2))
    order = weight_matrix(a, w0=1)
    m1 = Monomial.of(7, xvar(1), yvar(2), zvar(3))
    m2 = Monomial.of(7, xvar(1), yvar(1), zvar(3))
    assert order.weight(m1) == 22
    assert order.weight(m2) == 21
    assert order.compare(m1, m2) == 1
    assert order.weight(Monomial.one(7)) == 0


def test_weight_matrix_precedence_order():
    a = BlockStructure((2, 3, 2))
    order = weight_matrix(a)
    names = [str(v) for v in order.precedence]
    assert names == [
        "z7", "z6", "z5", "z4", "z3",
        "y2", "y1", "y5", "y4", "y3", "y7", "y6",
        "z2", "z1",
        "x1", "x2", "x3", "x4", "x5", "x6", "x7",
    ]


def test_block_order_frozen_sequence():
    a = BlockStructure((3, 2))
    seq = [(t.x, t.y, t.z) for t in sort_generators(a)]
    assert seq == [
        (1, 3, 5), (2, 3, 5), (4, 3, 5), (1, 2, 5), (4, 2, 5), (4, 1, 5),
        (1, 3, 4), (2, 3, 4), (1, 2, 4), (1, 2, 3),
    ]


def test_block_order_prefix_for_two_blocks_of_seven():
    a = BlockStructure((4, 3))
    seq = [(t.x, t.y, t.z) for t in sort_generators(a)]
    assert seq[:6] == [(1, 4, 7), (2, 4, 7), (3, 4, 7), (5, 4, 7), (6, 4, 7), (1, 3, 7)]
    assert len(seq) == 35


def test_block_order_trichotomy_and_consistency():
    rng = random.Random(11)
    for parts in [(3, 2), (2, 2, 2), (1, 4)]:
        a = BlockStructure(parts)
        ts = sort_generators(a)
        for _ in range(400):
            t1, t2 = rng.choice(ts), rng.choice(ts)
            c = block_order_compare(a, t1, t2)
            assert c == -block_order_compare(a, t2, t1)
            if c == 0:
                assert t1 == t2
            else:
                assert (ts.index(t1) < ts.index(t2)) == (c == -1)


def test_block_order_rejects_foreign_triples():
    a = BlockStructure((3, 2))
    with pytest.raises(NotAGeneratorError):
        block_order_compare(a, GeneratorTriple(1, 2, 3), GeneratorTriple(2, 1, 3))


def test_s_set_frozen_sizes_and_variables():
    a = BlockStructure((3, 2))
    ts = sort_generators(a)
    sizes = [len(s_set(a, t)) for t in ts]
    assert sizes == [0, 1, 2, 1, 2, 2, 1, 2, 2, 2]
    # s_set of (2,3,5) is {(1,3,5)}; the differing slot is x of the other.
    t = GeneratorTriple(2, 3, 5)
    assert s_set(a, t) == frozenset({GeneratorTriple(1, 3, 5)})
    assert s_set_variables(a, t) == frozenset({xvar(1)})
    # (4,1,5) differs from (4,2,5) in y and from (4,3,5) in y.
    t = GeneratorTriple(4, 1, 5)
    assert s_set_variables(a, t) == frozenset({yvar(2), yvar(3)})


def test_s_set_members_precede_and_differ_once():
    for parts in [(3, 2), (2, 2, 2), (6,)]:
        a = BlockStructure(parts)
        ts = sort_generators(a)
        for t in ts:
            for other in s_set(a, t):
                assert block_order_compare(a, other, t) == -1
                diffs = sum(1 for p, q in zip(other, t) if p != q)
                assert diffs == 1


def assert_s_size_closed_form_is_the_s_set_size(ns):
    for n in ns:
        for parts in all_compositions(n):
            a = BlockStructure(parts)
            for t in sort_generators(a):
                assert s_size_closed_form(a, t) == len(s_set(a, t)), (parts, t)


def test_s_size_closed_form_equals_the_s_set_size():
    # Both branches, x and y in one block and in two, on the 10 244 triples
    # of n <= 8.
    assert_s_size_closed_form_is_the_s_set_size(range(3, 9))


@pytest.mark.slow
def test_s_size_closed_form_equals_the_s_set_size_at_n9():
    assert_s_size_closed_form_is_the_s_set_size([9])


def test_s_set_sizes_sum_to_pairs_with_unique_lcm_degree_four():
    # Each member of an s-set shares a degree-4 lcm with its generator: the
    # union over generators counts each unordered adjacent pair once.
    a = BlockStructure((2, 2))
    ts = sort_generators(a)
    total = sum(len(s_set(a, t)) for t in ts)
    adjacent = sum(
        1
        for t1, t2 in combinations(ts, 2)
        if t1.monomial(4).lcm(t2.monomial(4)).degree == 4
    )
    assert total == adjacent
