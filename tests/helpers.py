"""Shared test helpers."""

import random

from matchfields import Monomial, Polynomial, xvar, yvar


def composition(n, cuts):
    """The composition of n that is cut after its (i + 1)-th unit wherever
    bit i of cuts is set."""
    parts, last = [], 1
    for i in range(n - 1):
        if cuts >> i & 1:
            parts.append(last)
            last = 1
        else:
            last += 1
    parts.append(last)
    return tuple(parts)


def all_compositions(n):
    """Every composition of n, in the order of the bitmask of its cuts."""
    return (composition(n, cuts) for cuts in range(1 << (n - 1)))


def recipe_polynomial(m):
    """The seeded test polynomial with m terms: random.Random(1) draws
    distinct monomials over x1..x4, y1..y4, each exponent randint(0, 2), all
    with coefficient 1."""
    variables = [xvar(i) for i in range(1, 5)] + [yvar(i) for i in range(1, 5)]
    rng = random.Random(1)
    monos = []
    while len(monos) < m:
        mono = Monomial(4, {v: rng.randint(0, 2) for v in variables})
        if mono not in monos:
            monos.append(mono)
    return Polynomial.from_terms(4, [(1, mono) for mono in monos])
