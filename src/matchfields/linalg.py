"""Small exact linear-algebra helpers: ranks and linear feasibility.

Ranks are computed by fraction-free integer elimination.  Feasibility of a
homogeneous system of equalities and strict inequalities is decided through
Motzkin's alternative by phase one of the simplex method with Bland's rule,
over fractions.Fraction.  No floating point and no modular arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence


def rational_rank(
    rows: Iterable[dict[int, Fraction | int]], *, pivots: set[int] | None = None
) -> int:
    """Rank over the rationals of the row span of sparse vectors.

    Rows map column index -> value (int or Fraction).  Each row is scaled to
    integers by the lcm of its denominators and eliminated against the
    pivot rows (stored with a positive leading entry) with fraction-free
    integer operations, dividing out the row content after each step so
    entries stay small.  Columns are arbitrary
    int indices.

    When a set is passed as pivots, the pivot columns are added to it: one
    per unit of rank, each the smallest column of a stored row, which is a
    combination of the input rows.
    """
    stored: dict[int, dict[int, int]] = {}
    rank = 0
    for row in rows:
        scale = lcm(*(v.denominator for v in row.values()))
        work = {c: v.numerator * (scale // v.denominator) for c, v in row.items() if v}
        while work:
            c = min(work)
            piv = stored.get(c)
            if piv is None:
                if work[c] < 0:
                    work = {cc: -vv for cc, vv in work.items()}
                stored[c] = work
                rank += 1
                break
            a, f = piv[c], work[c]
            g = gcd(a, f)
            a, f = a // g, f // g
            if a != 1:
                work = {cc: a * vv for cc, vv in work.items()}
            for cc, vv in piv.items():
                nv = work.get(cc, 0) - f * vv
                if nv:
                    work[cc] = nv
                else:
                    work.pop(cc, None)
            content = gcd(*work.values())
            if content > 1:
                work = {cc: vv // content for cc, vv in work.items()}
    if pivots is not None:
        pivots.update(stored)
    return rank


def homogeneous_feasible(
    equalities: Sequence[Sequence[Fraction | int]],
    strict: Sequence[Sequence[Fraction | int]],
) -> bool:
    """Does some rational w satisfy e.w == 0 for all e and s.w < 0 for all s?

    Equalities are substituted away, turning each strict row s into s'.  By
    Motzkin's alternative the system is infeasible exactly when some
    lambda >= 0 with sum(lambda) == 1 has sum(lambda_s * s') == 0.  Phase one
    of the simplex method decides that, exactly over Fraction: one
    artificial variable per constraint starts basic, and the system is
    infeasible exactly when their sum can be driven to 0.  Bland's rule
    (lowest entering index, ratio ties to the lowest basic index) never
    cycles, so each call terminates.
    """
    if len({len(r) for r in [*equalities, *strict]}) > 1:
        raise ValueError("constraint rows of mixed dimension")
    pivots: list[tuple[int, list[Fraction]]] = []

    def substitute(row: Sequence[Fraction | int]) -> list[Fraction]:
        row = [Fraction(v) for v in row]
        for c, prow in pivots:
            row = [v - row[c] * p for v, p in zip(row, prow)]
        return row

    # map is lazy: each equality is reduced by the pivots of those before it.
    for row in map(substitute, equalities):
        c = next((c for c, v in enumerate(row) if v), None)
        if c is not None:
            pivots.append((c, [v / row[c] for v in row]))
    rows = [substitute(row) for row in strict]

    # One row per column some s' touches, then sum(lambda) == 1; each ends in
    # its right-hand side.  Artificial i is basic variable m + i and, once it
    # leaves the basis, is never needed again, so it has no column.
    m = len(rows)
    table = [[*col, Fraction(0)] for col in zip(*rows) if any(col)]
    table.append([Fraction(1)] * (m + 1))
    basis = list(range(m, m + len(table)))
    # The lambdas' reduced costs, then minus the artificials' sum.
    cost = [-sum(col) for col in zip(*table)]
    while cost[m]:
        enter = next((j for j in range(m) if cost[j] < 0), None)
        if enter is None:
            return True  # the artificials' least sum is positive
        _, _, p = min(
            (row[m] / row[enter], basis[i], i)
            for i, row in enumerate(table)
            if row[enter] > 0
        )
        prow = table[p]
        prow[:] = [v / prow[enter] for v in prow]
        for row in [*table, cost]:
            if row is not prow and row[enter]:
                f = row[enter]
                row[:] = [v - f * pv for v, pv in zip(row, prow)]
        basis[p] = enter
    return False
