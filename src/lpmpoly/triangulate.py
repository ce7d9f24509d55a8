"""Piecewise-linear unimodular triangulations of hypersimplex slices and strips.

The cube self-map ``psi`` sending a point to the fractional parts of its
prefix sums is volume preserving.  Pulling the order-type simplices back
through it tiles the slice between consecutive integer coordinate-sum
hyperplanes, one cell per permutation w with the matching statistics of
w^-1: exactly k-1 descents for the k-th hypersimplex slice, exactly the
strip's descent set for a border strip.

Those permutations are generated, not filtered.  i is a descent of w^-1
iff i+1 comes before i in w, so a descent set fixes the relative order of
every pair (i, i+1): the cells of a strip are the linear extensions of a
zigzag poset on 1..d, and ``inverse_descent_class`` lists them by a
depth-first walk that places values left to right.  Every branch of the
walk ends in a cell, so the cost is proportional to the cells emitted,
not to d!.  For a descent count the walk keeps the descents so far and
the pairs still free to become one, and enters only branches that can
still land on the target count.

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

from typing import Iterator, NamedTuple

from .decompose import BorderStrip
from .errors import BadK

Perm = tuple[int, ...]


def _walk(
    d: int, descents: frozenset[int] | None, count: int | None
) -> Iterator[tuple[list[int], list[int], int]]:
    """The walk behind ``inverse_descent_class``; each leaf yields its live
    state (w, bumps, odd), valid until the walk resumes.  Values are placed
    left to right, smallest admissible first, on an explicit stack.  With a
    descent set, v may come next iff v+1 is already placed whenever v is a
    descent and v-1 is already placed whenever v-1 is not.  With a count,
    placing v before v-1 adds a descent; a branch is entered only while
    descents-so-far <= count <= descents-so-far plus the pairs (i, i+1)
    whose values are both unplaced, and any such branch can still reach the
    count.  bumps[i] is 1 when i+1 precedes i in w, for 0 < i < d; bumps[0]
    = 0 and bumps[d] = 1 by the sentinels.  ``odd`` is the parity of the
    pairs i < j with w_i < w_j.
    """
    if descents is not None:
        if not descents <= set(range(1, d)):
            return
        desc = [i in descents for i in range(d + 1)]
    elif not 0 <= count <= max(d - 1, 0):
        return
    placed = [True] + [False] * d + [True]  # 0 and d+1 are sentinels
    bumps = [0] * d + [1]
    odd = 0
    w: list[int] = []
    nxt = [1]  # next value to try at each depth
    made = 0  # descents so far
    free = max(d - 1, 0)  # pairs (i, i+1) with both values unplaced
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
                    if descents is not None:
                        if (up or not desc[v]) and (not gain or desc[v - 1]):
                            break
                    elif made + gain <= count <= made + free - 1 + up:
                        break
                v += 1
            if v <= d:
                nxt[depth] = v + 1
                bumps[v - 1] = gain
                bumps[v] = up
                made += gain
                free -= gain + 1 - up
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
        made -= bumps[v - 1]  # both bumps still hold what placing v wrote
        free += bumps[v - 1] + 1 - bumps[v]


def inverse_descent_class(
    d: int, descents: frozenset[int] | None = None, count: int | None = None
) -> Iterator[Perm]:
    """The permutations w of 1..d whose inverse has descent set ``descents``
    (or, when that is None, exactly ``count`` descents), in lexicographic order."""
    return (tuple(w) for w, _, _ in _walk(d, descents, count))


class SimplexCell(NamedTuple):
    """A unimodular cell, in slice coordinates and lifted by the dropped coordinate."""

    perm: Perm
    vertices: tuple[tuple[int, ...], ...]
    vertices_lifted: tuple[tuple[int, ...], ...]
    det: int


def _cells(d: int, descents: frozenset[int] | None = None, count: int | None = None) -> list[SimplexCell]:
    """The walk's cells.  Step v = w[d-1], ..., w[0] of the staircase moves
    the pull-back by +1 at v-1 and -1 at v; slot d is the dropped coordinate."""
    new = tuple.__new__
    cells = []
    for w, bumps, odd in _walk(d, descents, count):
        x = bumps[:]
        lifted = [tuple(x)]
        for v in reversed(w):
            x[v - 1] += 1
            x[v] -= 1
            lifted.append(tuple(x))
        verts = tuple([p[:-1] for p in lifted])
        cells.append(new(SimplexCell, (tuple(w), verts, tuple(lifted), -1 if odd else 1)))
    return cells


def hypersimplex_triangulation(k: int, n: int) -> list[SimplexCell]:
    """One cell per permutation whose inverse has k-1 descents; count is Eulerian.

    >>> [(c.perm, c.det) for c in hypersimplex_triangulation(2, 4)]
    [((1, 3, 2), 1), ((2, 1, 3), 1), ((2, 3, 1), -1), ((3, 1, 2), -1)]
    """
    if not 1 <= k <= n - 1:
        raise BadK(f"need 1 <= k <= n-1, got k={k}, n={n}")
    return _cells(n - 1, count=k - 1)


def strip_triangulation(strip: BorderStrip) -> list[SimplexCell]:
    """Cells whose inverse-descent set equals the strip's descent set."""
    return _cells(len(strip), descents=strip.descents)
