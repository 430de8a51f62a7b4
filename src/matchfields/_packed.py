"""Exponent vectors packed into single ints, in the one layout all packed routes share.

Each variable of an ordered list gets a field wide enough for a bound, with
a guard bit above it; the first variable takes the lowest field.  While no
field passes the bound, a product packs as the sum of its factors, and g
divides h exactly when ((h | guards) - g) & guards == guards.
"""

from __future__ import annotations

from itertools import groupby
from typing import Collection, Hashable, Iterable

from .algebra import FAMILIES, Monomial, VariableId


class Layout:
    """Fields for the given variables, each holding a value <= bound."""

    __slots__ = ("variables", "bits", "width", "field", "offset", "units", "guards")

    def __init__(self, variables: Iterable[Hashable], bound: int):
        self.variables = tuple(variables)
        self.bits = max(bound, 1).bit_length()
        self.width = self.bits + 1
        self.field = (1 << self.bits) - 1
        self.offset = {v: i * self.width for i, v in enumerate(self.variables)}
        # Each variable's unit (its field holding 1), mapped to the variable.
        self.units = {1 << o: v for v, o in self.offset.items()}
        self.guards = sum(u << self.bits for u in self.units)

    def pack(self, m: Monomial) -> int:
        return sum(e << self.offset[v] for v, e in m.items())

    def exponents(self, p: int) -> list[int]:
        """The field values of packed p, in variable order."""
        return [p >> i * self.width & self.field for i in range(len(self.variables))]

    def monus(self, ps: Iterable[int], m: int) -> list[int]:
        """Field-wise max(p - m, 0) for each p; for monomials, p / gcd(p, m)."""
        guards, bits = self.guards, self.bits
        out = []
        for p in ps:
            # A field keeps its guard bit exactly where p's value is at least
            # m's; masking the other fields to 0 leaves max(p - m, 0).
            t = (p | guards) - m
            keep = t & guards
            out.append(t & (keep - (keep >> bits)))
        return out


def pack_triples(triples: Iterable, n: int, bound: int) -> tuple[Layout, list[int]]:
    """A Layout over x_1..x_n, y_1..y_n, z_1..z_n for bound and each GeneratorTriple
    packed in it as x_x * y_y * z_z, the sum of its three units, with no Monomial
    built; a product of at most bound triples packs as the sum of their codes."""
    layout = Layout([VariableId(f, c) for f in FAMILIES for c in range(1, n + 1)], bound)
    x, y, z = ([1 << layout.offset[VariableId(f, c)] for c in range(1, n + 1)] for f in FAMILIES)
    return layout, [x[t.x - 1] + y[t.y - 1] + z[t.z - 1] for t in triples]


def pack_minimal(gens: Collection[Monomial]) -> tuple[Layout, list[int]]:
    """A Layout over the variables of gens, sorted, and gens packed in it.

    Raises ValueError unless gens form a minimal generating set: they live
    over one ambient n, and none repeats or divides another.  A proper
    divisor has a smaller degree, so only pairs of unequal degree get the
    guard-bit test.
    """
    if len({g.n for g in gens}) > 1:
        raise ValueError("monomials live over different ambient n")
    variables = sorted({v for g in gens for v in g.variables()})
    layout = Layout(variables, max((e for g in gens for _, e in g.items()), default=1))
    packed = [layout.pack(g) for g in gens]
    if len(set(packed)) < len(packed):
        g = next(g for g, p in zip(gens, packed) if packed.count(p) > 1)
        raise ValueError(f"{g} occurs twice: not a minimal generating set")
    guards = layout.guards
    by_degree = sorted(zip(gens, packed), key=lambda gp: gp[0].degree)
    lower: list[tuple[Monomial, int]] = []
    for _, group in groupby(by_degree, key=lambda gp: gp[0].degree):
        group = list(group)
        for h, ph in group:
            for g, pg in lower:
                if ((ph | guards) - pg) & guards == guards:
                    raise ValueError(f"{g} divides {h}: not a minimal generating set")
        lower.extend(group)
    return layout, packed
