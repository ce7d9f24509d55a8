"""Piecewise-linear unimodular triangulations of border strips and hypersimplex slices.

The cube self-map ``psi`` sending a point to the fractional parts of its
prefix sums is volume preserving.  Pulling the order-type simplices back
through it tiles the slice between consecutive integer coordinate-sum
hyperplanes; a border strip's polytope gets one cell per permutation w
whose inverse has the strip's descent set.  The slice Delta(k, n) is the
polytope of ``hypersimplex_region(k, n)``, a rectangle whose border strips
have the descent sets of size k-1 in 1..n-2, so its cells are the cells of
those descent sets, merged by permutation; the sets are walked directly,
without building the rectangle or its strips.

Those permutations are generated, not filtered.  i is a descent of w^-1
iff i+1 comes before i in w, so a descent set fixes the relative order of
every pair (i, i+1): the cells of a strip are the linear extensions of a
zigzag poset on 1..d, and ``inverse_descent_class`` lists them by a
depth-first walk that places values left to right.  Every branch of the
walk ends in a cell, so the cost is proportional to the cells emitted,
not to d!.

The pull-back is affine on each order-type simplex and sends the simplex's
0/1 staircase vertices to 0/1 points, so cells are built in integers, from
the walk's own state: placing v fixes bumps v-1 and v, which make the
pull-back of the origin, and adds the placed values below v to the parity
that is the cell's determinant (differencing consecutive edge rows leaves
a row permutation of a unit bidiagonal matrix).

This module is the generator alone.  The oracle side lives in
``oracle`` (the pull-back ``psi_inverse_int`` on integer numerators and
the full permutation scan ``scan_inverse_descents``) and in
``verify.check_triangulation``, which checks each slice cell against
them and each strip cell against its slice twin.
"""

from __future__ import annotations

from itertools import combinations
from operator import attrgetter
from typing import Iterator, NamedTuple

from .decompose import BorderStrip
from .errors import BadK

Perm = tuple[int, ...]


def _walk(d: int, descents: frozenset[int]) -> Iterator[tuple[list[int], list[int], int]]:
    """The walk behind ``inverse_descent_class``; each leaf yields its live
    state (w, bumps, odd), valid until the walk resumes.  Values are placed
    left to right, smallest admissible first, on an explicit stack: v may
    come next iff v+1 is already placed whenever v is a descent and v-1 is
    already placed whenever v-1 is not.  bumps[i] is 1 when i+1 precedes i
    in w, for 0 < i < d; bumps[0] = 0 and bumps[d] = 1 by the sentinels.
    ``odd`` is the parity of the pairs i < j with w_i < w_j.
    """
    if not descents <= set(range(1, d)):
        return
    desc = [i in descents for i in range(d + 1)]
    placed = [True] + [False] * d + [True]  # 0 and d+1 are sentinels
    bumps = [0] * d + [1]
    odd = 0
    w: list[int] = []
    nxt = [1]  # next value to try at each depth
    while True:
        depth = len(w)
        if depth == d:
            yield w, bumps, odd
        else:
            v = nxt[depth]
            while v <= d:
                if not placed[v]:
                    gain = 0 if placed[v - 1] else 1  # v placed before v-1
                    up = 1 if placed[v + 1] else 0  # v placed after v+1
                    if (up or not desc[v]) and (not gain or desc[v - 1]):
                        break
                v += 1
            if v <= d:
                nxt[depth] = v + 1
                bumps[v - 1] = gain
                bumps[v] = up
                odd ^= placed[1:v].count(True) & 1
                placed[v] = True
                w.append(v)
                nxt.append(1)
                continue
        nxt.pop()
        if not w:
            return
        v = w.pop()
        placed[v] = False
        odd ^= placed[1:v].count(True) & 1


def inverse_descent_class(d: int, descents: frozenset[int]) -> Iterator[Perm]:
    """The permutations w of 1..d whose inverse has descent set ``descents``,
    in lexicographic order."""
    return (tuple(w) for w, _, _ in _walk(d, descents))


class SimplexCell(NamedTuple):
    """A unimodular cell, in slice coordinates and lifted by the dropped coordinate."""

    perm: Perm
    vertices: tuple[tuple[int, ...], ...]
    vertices_lifted: tuple[tuple[int, ...], ...]
    det: int


def hypersimplex_triangulation(k: int, n: int) -> list[SimplexCell]:
    """The cells of the border strips of ``hypersimplex_region(k, n)``, by
    permutation: one per permutation of 1..n-1 whose inverse has k-1
    descents, so the count is Eulerian.  The strips' descent sets are the
    (k-1)-subsets of 1..n-2, walked as such.

    >>> [(c.perm, c.det) for c in hypersimplex_triangulation(2, 4)]
    [((1, 3, 2), 1), ((2, 1, 3), 1), ((2, 3, 1), -1), ((3, 1, 2), -1)]
    """
    if not 1 <= k <= n - 1:
        raise BadK(f"need 1 <= k <= n-1, got k={k}, n={n}")
    classes = combinations(range(1, n - 1), k - 1)
    return sorted((cell for ds in classes for cell in _cells(n - 1, frozenset(ds))), key=attrgetter("perm"))


def strip_triangulation(strip: BorderStrip) -> list[SimplexCell]:
    """Cells whose inverse-descent set equals the strip's descent set."""
    return _cells(len(strip), strip.descents)


def _cells(d: int, descents: frozenset[int]) -> list[SimplexCell]:
    """The cells of the permutations of 1..d whose inverse has descent set
    ``descents``.  Step v = w[d-1], ..., w[0] of the staircase moves the
    pull-back by +1 at v-1 and -1 at v; slot d is the dropped coordinate."""
    new = tuple.__new__
    cells = []
    for w, bumps, odd in _walk(d, descents):
        x = bumps[:]
        lifted = [tuple(x)]
        for v in reversed(w):
            x[v - 1] += 1
            x[v] -= 1
            lifted.append(tuple(x))
        verts = tuple([p[:-1] for p in lifted])
        cells.append(new(SimplexCell, (tuple(w), verts, tuple(lifted), -1 if odd else 1)))
    return cells
