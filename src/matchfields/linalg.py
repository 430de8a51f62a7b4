"""Small exact linear-algebra helpers: ranks and linear feasibility.

Ranks are computed by fraction-free integer elimination.  Feasibility of a
homogeneous system of equalities and strict inequalities is decided through
Motzkin's alternative, each equality a free column, by phase one of the
simplex method with Bland's rule on one integer tableau that Edmonds' exact
division keeps integral.  No floating point and no modular arithmetic.
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
    equalities: Sequence[Sequence[int]],
    strict: Sequence[Sequence[int]],
) -> bool:
    """Does some rational w satisfy e.w == 0 for all e and s.w < 0 for all s?

    By Motzkin's alternative it does not exactly when some lambda >= 0 with
    sum(lambda) == 1 and some free mu give sum(lambda_s s) + sum(mu_e e) == 0;
    each equality is two columns, e and -e, so its mu takes either sign.
    Phase one of the simplex method decides that on one integer tableau, with
    one artificial variable per row basic at the start.  Each pivot divides
    exactly by the one before (Edmonds' integer-preserving elimination), so
    the tableau is the true one times the last pivot, which stays positive.
    Bland's rule (lowest entering index, ratio ties to the lowest basic index)
    never cycles, so each call terminates.  Entries must be ints.
    """
    rows = [*equalities, *strict]
    if len({len(r) for r in rows}) > 1:
        raise ValueError("constraint rows of mixed dimension")
    if any(type(v) is not int for r in rows for v in r):
        raise ValueError("constraint entries must be ints")
    # One row per coordinate some column touches, then sum(lambda) == 1, each
    # ending in its right-hand side, and the cost row: the reduced costs, then
    # minus the artificials' sum.  Artificial i is basic variable n + i and,
    # once it leaves the basis, is never needed again, so it has no column.
    cols = [*strict, *equalities, *([-v for v in e] for e in equalities)]
    m, n = len(strict), len(cols)
    table = [[*row, 0] for row in zip(*cols) if any(row)]
    table.append([1] * m + [0] * (n - m) + [1])
    basis = list(range(n, n + len(table)))
    cost = [-sum(col) for col in zip(*table)]
    last = 1
    while cost[n]:
        enter = next((j for j in range(n) if cost[j] < 0), None)
        if enter is None:
            return True  # the artificials' least sum is positive
        p = None  # the least ratio row[n] / row[enter], by cross-multiplying
        for i, row in enumerate(table):
            if row[enter] > 0 and (
                p is None
                or (row[n] * table[p][enter], basis[i]) < (table[p][n] * row[enter], basis[p])
            ):
                p = i
        prow, piv = table[p], table[p][enter]
        for row in [*table, cost]:
            if row is not prow:
                f = row[enter]
                row[:] = [(piv * v - f * pv) // last for v, pv in zip(row, prow)]
        basis[p], last = enter, piv
    return False
