"""Shared test helpers."""

import random

import matchfields.groebner as groebner
from matchfields import Monomial, Polynomial, xvar, yvar

# verify_theorem_main's one residual on (4,) under leave_the_first_s_pair_unreduced:
# the S-polynomial of minors #2 and #3 itself.
INJECTED_RESIDUAL = (
    "S-pair of minors #2 and #3 leaves the nonzero residual "
    "x1*x3*y2*z4 - x1*x3*y4*z2 - x1*x4*y2*z3 + x1*x4*y3*z2 "
    "- x2*x3*y1*z4 + x2*x3*y4*z1 + x2*x4*y1*z3 - x2*x4*y3*z1"
)


def leave_the_first_s_pair_unreduced(monkeypatch):
    """Make the first normal form the division computes return its input
    unreduced, as a basis that is not Groebner would; the maximal minors
    always are one, so the failure branch is reached only this way."""
    normal_form = groebner._Divider.normal_form
    calls = []

    def first_unreduced(self, work):
        calls.append(None)
        return dict(work) if len(calls) == 1 else normal_form(self, work)

    monkeypatch.setattr(groebner._Divider, "normal_form", first_unreduced)


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
