"""Exact linear algebra over the rationals: ranks, determinants, feasibility.

No floating point enters any computation.  Ranks, determinants and the
convex-hull test run on plain Python ints by fraction-free elimination and
integer-preserving pivoting; ``fractions.Fraction`` enters only as the
convex-hull test's target point.  Matrices are lists of row tuples.
One fraction-free elimination gives both the rank and the determinant.
It keeps every entry a minor of the input, so each division by the
previous pivot is exact; that holds only when rows with a zero in the
pivot column are rescaled too, which the elimination and the simplex
tableau both do.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence


def _eliminate(rows: Sequence[Sequence[int]], cap: int | None) -> tuple[int, int]:
    """(rank, signed last pivot) of an integer matrix by fraction-free elimination.

    Every surviving row is mapped to ``(pv * a - rv * b) // prev_pivot``,
    a row with ``rv == 0`` in the pivot column included (it becomes
    ``pv * a // prev_pivot``): its entries stay minors of the input, so
    the next step's division is exact.  Popping the pivot row from
    position ``idx`` moves it past ``idx`` rows, so the sign flips when
    ``idx`` is odd; when the rank is full no row is ever dropped, and the
    signed last pivot is the determinant.  When ``cap`` is given, returns
    early with rank ``cap + 1`` as soon as the rank is known to exceed ``cap``.
    """
    work = [list(r) for r in rows if any(r)]
    ncols = len(work[0]) if work else 0
    rank = 0
    prev_pivot = sign = 1
    col = 0
    while work and col < ncols:
        pivot_row = None
        for idx, row in enumerate(work):
            if row[col]:
                pivot_row = idx
                break
        if pivot_row is None:
            col += 1
            continue
        if pivot_row & 1:
            sign = -sign
        pivot = work.pop(pivot_row)
        pv = pivot[col]
        rank += 1
        if cap is not None and rank > cap:
            return rank, 0
        reduced = []
        for row in work:
            rv = row[col]
            if rv:
                row = [(pv * a - rv * b) // prev_pivot for a, b in zip(row, pivot)]
            elif pv != prev_pivot:
                row = [pv * a // prev_pivot for a in row]
            if any(row):
                reduced.append(row)
        work = reduced
        prev_pivot = pv
        col += 1
    return rank, sign * prev_pivot


def rank_int(rows: Sequence[Sequence[int]], cap: int | None = None) -> int:
    """Rank of an integer matrix; with ``cap``, ``cap + 1`` once it exceeds ``cap``."""
    return _eliminate(rows, cap)[0]


def affine_rank(points: Sequence[Sequence[int]], cap: int | None = None) -> int:
    """Dimension of the affine hull: -1 for no points, 0 for a single point.

    The rank of the differences from the first point, eliminated on the
    transpose: one row per coordinate.  A polytope's vertex sets have more
    points than coordinates, so ``rank_int`` makes fewer Python-level row
    passes; the rank is the same.
    """
    if not points:
        return -1
    base = points[0]
    columns = zip(*points[1:])
    return rank_int([[x - b for x in column] for column, b in zip(columns, base)], cap=cap)


def det_int(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix: the signed last pivot of the
    elimination at full rank, 0 below it, and 1 for the empty matrix."""
    rank, last = _eliminate(matrix, None)
    return last if rank == len(matrix) else 0


def _phase_one_feasible(columns: list[list[int]], rhs: list[int]) -> bool:
    """Exact phase-1 simplex: does ``A lam = rhs`` admit ``lam >= 0``?

    ``columns`` holds the integer columns of A and ``rhs`` is integer.
    Artificial variables seed the basis; feasible iff their sum can be
    driven to zero.  Dantzig pricing with a Bland fallback guards against
    cycling.

    The tableau stays integer (Edmonds' integer-preserving pivoting, the
    scheme of Bareiss' determinant): row ``i`` holds the numerators of the
    rational tableau over one common divisor ``div``, the determinant of the
    current basis, which stays positive.  A pivot maps every numerator to
    ``(pv * a - f * b) // div`` and sets ``div = pv``; the division is
    exact.  Signs and ratios are those of the rational tableau, so each
    pivot choice is the one exact rational simplex would make.
    """
    nrows = len(rhs)
    ncols = len(columns)
    tableau = []
    for i in range(nrows):
        row = [col[i] for col in columns]
        b = rhs[i]
        if b < 0:
            row = [-x for x in row]
            b = -b
        row.append(b)
        tableau.append(row)
    basis = list(range(ncols, ncols + nrows))  # artificials
    # cost row: minimize sum of artificials => reduced costs of real columns
    cost = [-sum(column) for column in zip(*tableau)]
    div = 1
    iterations = 0
    bland_after = 40 * (nrows + ncols)
    while True:
        entering = None
        if iterations < bland_after:
            best = 0
            for j in range(ncols):
                if cost[j] < best:
                    best = cost[j]
                    entering = j
        else:
            for j in range(ncols):
                if cost[j] < 0:
                    entering = j
                    break
        if entering is None:
            return cost[ncols] == 0
        # ratio test b_i / a_i over a_i > 0, compared by cross-multiplication
        leaving = None
        best_b = best_a = 0
        for i in range(nrows):
            a = tableau[i][entering]
            if a > 0:
                b = tableau[i][ncols]
                if leaving is None:
                    leaving, best_b, best_a = i, b, a
                else:
                    lhs, rhs_ = b * best_a, best_b * a
                    if lhs < rhs_ or (lhs == rhs_ and basis[i] < basis[leaving]):
                        leaving, best_b, best_a = i, b, a
        if leaving is None:
            return cost[ncols] == 0
        pivot_row = tableau[leaving]
        pv = pivot_row[entering]
        for i in range(nrows):
            if i != leaving:
                row = tableau[i]
                f = row[entering]
                if f:
                    tableau[i] = [(pv * a - f * b) // div for a, b in zip(row, pivot_row)]
                elif pv != div:
                    tableau[i] = [pv * a // div for a in row]
        f = cost[entering]
        if f:
            cost = [(pv * a - f * b) // div for a, b in zip(cost, pivot_row)]
        elif pv != div:
            cost = [pv * a // div for a in cost]
        div = pv
        basis[leaving] = entering
        iterations += 1


def in_convex_hull(points: Sequence[Sequence[int]], target: Sequence[Fraction]) -> bool:
    """Exact membership of ``target`` in the convex hull of integer ``points``.

    ``target`` holds ints or ``Fraction``s.  Everything runs on integers:
    with ``L`` the lcm of the target's denominators, ``target`` is in the
    hull iff ``[p; 1] lam = [L t; L]`` has a solution ``lam >= 0``.
    Fast path: scan for a two-point certificate, a point ``p`` whose mirror
    ``2t - p`` is also a point; otherwise settle it with the integer
    phase-1 simplex.
    """
    if not points:
        return False
    scale = lcm(*(t.denominator for t in target))
    scaled = [t.numerator * (scale // t.denominator) for t in target]
    pts = [tuple(p) for p in points]
    doubled = [2 * t for t in scaled]
    if all(c % scale == 0 for c in doubled):
        centre = [c // scale for c in doubled]
        index = set(pts)
        for p in pts:
            if tuple(c - x for c, x in zip(centre, p)) in index:
                return True
    columns = [[*p, 1] for p in pts]
    return _phase_one_feasible(columns, scaled + [scale])
