"""Shared test helpers."""

import random

from matchfields import Monomial, Polynomial, xvar, yvar


def all_compositions(n):
    """Every composition of n, in the order of the bitmask of its cuts."""
    for bits in range(1 << (n - 1)):
        parts, last = [], 1
        for i in range(n - 1):
            if bits >> i & 1:
                parts.append(last)
                last = 1
            else:
                last += 1
        parts.append(last)
        yield tuple(parts)


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
