"""Attainable initial supports and the exact feasibility engine behind them.

tests/data/supports_golden.json pins what the engine before the simplex
(Fourier-Motzkin elimination) returned: the sorted supports, as sorted
monomial reprs, of four polynomials, and its verdicts on 600 seeded random
systems (dimension 1-6, up to 3 equalities and 6 strict rows, entries in
[-2, 2], drawn from random.Random(1)).  The other checks need no reference
engine: systems built around a planted solution are feasible, and a planted
contradiction makes them infeasible; the supports of f are the nonempty faces
of its Newton polytope, so their Euler-Poincare sum is 1, and every weight
picks out one of them.
"""

import functools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from matchfields import (
    Monomial,
    Polynomial,
    attainable_initial_supports,
    minor_expand,
    plucker_quadric_gr24,
    weight_initial_form,
    xvar,
    yvar,
)
from matchfields.linalg import homogeneous_feasible, rational_rank

from helpers import recipe_polynomial

GOLDEN = json.loads((Path(__file__).parent / "data" / "supports_golden.json").read_text())


def small_polynomial(seed):
    """1 to 7 distinct terms over x1..x3, y1, y2 with exponents 0..3."""
    rng = random.Random(seed)
    variables = [xvar(1), xvar(2), xvar(3), yvar(1), yvar(2)]
    used = variables[: rng.randint(1, 5)]
    monos = {Monomial(3, {v: rng.randint(0, 3) for v in used}) for _ in range(rng.randint(1, 7))}
    return Polynomial.from_terms(3, [(rng.choice((1, -2, 3)), m) for m in monos])


POLYNOMIALS = {
    "plucker_quadric_gr24": plucker_quadric_gr24,
    "minor_1_2_3": lambda: minor_expand(3, (1, 2, 3)),
    "recipe_8": lambda: recipe_polynomial(8),
    "recipe_10": lambda: recipe_polynomial(10),
    "recipe_11": lambda: recipe_polynomial(11),
    "recipe_12": lambda: recipe_polynomial(12),
    **{f"small_{seed}": functools.partial(small_polynomial, seed) for seed in range(20)},
}
SLOW = {"recipe_11", "recipe_12"}
CASES = [pytest.param(name, marks=pytest.mark.slow) if name in SLOW else name for name in POLYNOMIALS]


@functools.cache
def supports_of(name):
    f = POLYNOMIALS[name]()
    return f, attainable_initial_supports(f)


def test_engine_verdicts_match_the_golden_systems():
    systems = GOLDEN["systems"]
    assert len(systems) == 600
    assert {s["feasible"] for s in systems if s["equalities"]} == {True, False}
    for s in systems:
        assert homogeneous_feasible(s["equalities"], s["strict"]) is s["feasible"], s


def test_engine_edge_cases():
    assert homogeneous_feasible([], [])
    assert homogeneous_feasible([[1, 0]], [])
    assert not homogeneous_feasible([], [[0, 0]])
    assert not homogeneous_feasible([], [[1, 0], [-1, 0]])
    # w = (1, -1, 0): the equality leaves w1 = -w2, and the strict rows hold.
    assert homogeneous_feasible([[1, 1, 0]], [[-1, 0, 0], [0, 1, 0]])
    assert not homogeneous_feasible([[1, 1, 0]], [[-1, 0, 0], [0, -1, 0]])
    with pytest.raises(ValueError, match="mixed dimension"):
        homogeneous_feasible([[1, 0]], [[1]])


@pytest.mark.parametrize("entry", [Fraction(1, 2), 0.5, True])
def test_engine_refuses_entries_that_are_not_ints(entry):
    with pytest.raises(ValueError, match="ints"):
        homogeneous_feasible([[1, entry]], [[-1, 0]])
    with pytest.raises(ValueError, match="ints"):
        homogeneous_feasible([], [[-1, 0], [0, entry]])


def planted_system(rng):
    """Equalities and strict rows that a seeded integer w satisfies.

    Each equality is (w.w) r - (r.w) w, which w puts at 0, and each strict row
    is a drawn r with r.w < 0."""
    dim = rng.randint(1, 8)
    w = [0] * dim
    while not any(w):
        w = [rng.randint(-1000, 1000) for _ in range(dim)]

    def dot(r):
        return sum(a * b for a, b in zip(r, w))

    equalities = []
    for _ in range(rng.randint(1, 4)):
        r = [rng.randint(-1000, 1000) for _ in range(dim)]
        equalities.append([dot(w) * a - dot(r) * b for a, b in zip(r, w)])
    strict, count = [], rng.randint(2, 8)
    while len(strict) < count:
        r = [rng.randint(-1000, 1000) for _ in range(dim)]
        if dot(r):
            strict.append(r if dot(r) < 0 else [-a for a in r])
    return equalities, strict


def test_engine_finds_planted_solutions_and_planted_contradictions():
    """Each planted system is feasible.  The strict row -(s1 + s2) + e1 makes
    it infeasible: s1 + s2 plus that row is e1, which is 0 wherever the
    equalities hold, yet a sum of three negatives."""
    rng = random.Random(25)
    for _ in range(300):
        equalities, strict = planted_system(rng)
        assert homogeneous_feasible(equalities, strict), (equalities, strict)
        (s1, s2, *_), e1 = strict, equalities[0]
        blocker = [c - a - b for a, b, c in zip(s1, s2, e1)]
        assert not homogeneous_feasible(equalities, [*strict, blocker]), (equalities, strict)


@pytest.mark.parametrize("name", sorted(GOLDEN["supports"]))
def test_supports_match_the_golden_file(name):
    _, supports = supports_of(name)
    rendered = sorted(sorted(repr(m) for m in s) for s in supports)
    assert rendered == GOLDEN["supports"][name]


@pytest.mark.parametrize("name", CASES)
def test_euler_poincare_sum_of_supports_is_one(name):
    """Sum over the supports S of (-1)^(dim aff S) is 1, with dim aff S the
    rank of the exponent differences within S."""
    f, supports = supports_of(name)
    variables = sorted({v for m in f.monomials() for v in m.variables()})

    def dim_aff(s):
        m0, *rest = s
        return rational_rank(
            {c: m.exponent(v) - m0.exponent(v) for c, v in enumerate(variables)}
            for m in rest
        )

    assert all(s <= f.monomials() and s for s in supports)
    assert sum((-1) ** dim_aff(s) for s in supports) == 1


@pytest.mark.parametrize("name", CASES)
def test_sampled_initial_forms_are_supports(name):
    f, supports = supports_of(name)
    variables = sorted({v for m in f.monomials() for v in m.variables()})
    rng = random.Random(name)
    for _ in range(200):
        w = {v: rng.randint(-5, 5) for v in variables}
        assert frozenset(weight_initial_form(w, f).monomials()) in supports, w


@pytest.mark.slow
def test_eleven_and_twelve_term_recipe_polynomials_return_supports():
    """The term count is the only size guard: 11 and 12 terms are answered."""
    for m, count in [(11, 1663), (12, 2693)]:
        f, supports = supports_of(f"recipe_{m}")
        assert f.num_terms == m
        assert len(supports) == count
