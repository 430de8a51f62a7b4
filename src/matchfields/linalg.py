"""Small exact linear-algebra helpers: ranks and linear feasibility.

Ranks are computed by fraction-free integer elimination; feasibility works
over fractions.Fraction.  No floating point and no modular arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import TooLargeError

# Most rows Fourier-Motzkin elimination may hold after projecting a variable
# away.  The rows can square at each projection: the supports of 10-term
# polynomials in 8 variables need hundreds, of some 11-term ones over 10 000.
_FM_ROW_CAP = 10_000


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


def _normalize(vec: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    for v in vec:
        if v:
            scale = abs(v)
            return tuple(x / scale for x in vec)
    return vec


def homogeneous_feasible(
    equalities: Sequence[Sequence[Fraction | int]],
    strict: Sequence[Sequence[Fraction | int]],
) -> bool:
    """Does some rational w satisfy e.w == 0 for all e and s.w < 0 for all s?

    Exact Fourier-Motzkin elimination.  Equalities are removed first by
    substitution; the strict inequalities are then projected one variable at
    a time, combinations of a strict constraint staying strict.  The system
    is infeasible exactly when a 0 < 0 row is derived.  Raises TooLargeError
    once a projection holds more than _FM_ROW_CAP rows.
    """
    dims = {len(r) for r in list(equalities) + list(strict)}
    if len(dims) > 1:
        raise ValueError("constraint rows of mixed dimension")
    if not dims:
        return True
    dim = dims.pop()

    eqs = [tuple(Fraction(v) for v in row) for row in equalities]
    ineqs = [tuple(Fraction(v) for v in row) for row in strict]

    # Substitute equalities away: each pivot column is eliminated everywhere.
    reduced: list[tuple[int, tuple[Fraction, ...]]] = []
    for row in eqs:
        work = list(row)
        for pc, prow in reduced:
            if work[pc]:
                f = work[pc]
                work = [w - f * p for w, p in zip(work, prow)]
        pivot = next((c for c, v in enumerate(work) if v), None)
        if pivot is None:
            continue
        inv = 1 / work[pivot]
        prow = tuple(v * inv for v in work)
        reduced.append((pivot, prow))
    for pc, prow in reduced:
        ineqs = [
            tuple(v - row[pc] * p for v, p in zip(row, prow)) for row in ineqs
        ]

    rows = set()
    for r in ineqs:
        if not any(r):
            return False  # 0 < 0
        rows.add(_normalize(r))

    remaining = [c for c in range(dim) if any(r[c] for r in rows)]
    for c in remaining:
        pos = [r for r in rows if r[c] > 0]
        neg = [r for r in rows if r[c] < 0]
        keep = {r for r in rows if not r[c]}
        for p in pos:
            for q in neg:
                comb = tuple(
                    v * (-q[c]) + w * p[c] for v, w in zip(p, q)
                )
                if not any(comb):
                    return False
                keep.add(_normalize(comb))
            if len(keep) > _FM_ROW_CAP:
                raise TooLargeError(f"Fourier-Motzkin passed {_FM_ROW_CAP} rows")
        rows = keep
        if not rows:
            break
    return True
