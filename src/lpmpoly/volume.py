"""Normalized volumes via descent-class counts.

The volume of a connected region's polytope is the total, over its border
strips, of the number of permutations whose descent set matches the strip.
One transfer DP over the boxes, column by column, computes it, the
descent-set DP of de Bruijn (1970) and Stanley's EC1 ch. 1: a box holds,
per rank of the last value among the values placed so far, the number of
partial fillings reaching it.  An East move to the next box is an ascent
and adds prefix sums, a North move a descent and adds suffix sums.  A
column is a range of rows, so the DP takes two bounds per column and keeps
one column of counts; O(boxes * n).  ``volume`` reads the ranges off the
E-step heights of the bounding paths, summing over all strips at once;
``strip_volume`` reads them off one strip's boxes.  The oracle routes are
the inclusion-exclusion ``oracle.exact_descent_count`` over
``border_strips`` and the filling count ``oracle.brute_syt``.
Unimodular-simplex normalization throughout: a unit simplex has volume 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import comb
from operator import add
from typing import Sequence

from .decompose import BorderStrip
from .errors import DisconnectedRegion
from .matroid import is_connected
from .paths import Region


@cache
def eulerian(k: int, n: int) -> int:
    """Permutations of [n] with exactly k-1 descents.

    Row by row of the triangle A(j, m) = j A(j, m-1) + (m-j+1) A(j-1, m-1),
    keeping the first k entries; O(nk) and no recursion.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    row = [1]  # row[j-1] = A(j, m), from m = 1
    for m in range(2, n + 1):
        prev = [0, *row, 0]
        row = [j * prev[j] + (m - j + 1) * prev[j - 1] for j in range(1, min(m, k) + 1)]
    return row[k - 1]


@cache
def catalan_number(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def catalan_area(n: int) -> Fraction:
    """Total gap area between the diagonal and the paths weakly below it, n-by-n grid.

    Closed form; ``verify.check_catalan_area`` replays it against the
    first-return recurrence.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Fraction(4**n, 2) - Fraction(comb(2 * n + 2, n + 1), 4)


def _fillings(lo: Sequence[int], hi: Sequence[int]) -> int:
    """Standard fillings totalled over the monotone box paths from the first
    box to the last, column k holding rows lo[k] + 1..hi[k]; 1 for no boxes.
    The boxes must be connected, so every box but the first has a West or a
    South neighbour: both bounds rise column to column, and each column
    starts at most on the top row of the one before.  A box's counts are the
    prefix sums of its West neighbour's plus the suffix sums of its South
    neighbour's; only the previous column is kept."""
    west: list[list[int]] = []
    base, top = 0, lo[0] + 1 if lo else 0
    counts = [1]  # the first box
    for low, high in zip(lo, hi):
        if west:
            counts = list(accumulate(west[low - base], initial=0))
        column = [counts]
        for left in west[low + 1 - base :] + [None] * (high - top):  # None: no West neighbour
            below = list(accumulate(reversed(counts), initial=0))
            below.reverse()
            counts = list(map(add, accumulate(left, initial=0), below)) if left else below
            column.append(counts)
        west, base, top = column, low, high
    return sum(counts)


def strip_volume(strip: BorderStrip) -> int:
    """Standard fillings of the strip: ascents along rows, descents up columns.

    >>> from lpmpoly.paths import Box
    >>> strip_volume(BorderStrip((Box(1, 1),))), strip_volume(BorderStrip(()))
    (1, 1)
    >>> strip_volume(BorderStrip((Box(1, 1), Box(2, 1), Box(2, 2))))  # an L
    2
    """
    lo, hi, col = [], [], None
    for c, row in strip.boxes:
        if c != col:  # a step East starts a column
            col = c
            lo.append(row - 1)
            hi.append(row)
        hi[-1] = row
    return _fillings(lo, hi)


def volume(region: Region) -> int:
    """Normalized volume of a connected region's polytope: total over its strips.

    >>> from lpmpoly.paths import region_from_words
    >>> volume(region_from_words("EENN", "NNEE")), volume(region_from_words("EENN", "NENE"))
    (4, 2)
    """
    if not is_connected(region):
        raise DisconnectedRegion(
            "volume of a direct sum is not a plain total; compute per connected block"
        )
    return _fillings(region.lower.east_step_heights(), region.upper.east_step_heights())
