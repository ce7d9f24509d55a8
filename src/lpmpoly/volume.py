"""Normalized volumes via descent-class counts.

The volume of a connected region's polytope is the total, over its border
strips, of the number of permutations whose descent set matches the strip.
One transfer DP over boxes sorted by (col, row) computes it, the
descent-set DP of de Bruijn (1970) and Stanley's EC1 ch. 1: a box holds,
per rank of the last value among the values placed so far, the number of
partial fillings reaching it.  An East move to the next box is an ascent
and adds prefix sums, a North move a descent and adds suffix sums.
O(boxes * n).  ``volume`` runs it on the region's boxes, summing over all
strips at once; ``strip_volume`` runs it on one strip's boxes, whose path
order is (col, row) order.  The oracle routes are the inclusion-exclusion
``oracle.exact_descent_count`` over ``border_strips`` and the filling
count ``oracle.brute_syt``.  Unimodular-simplex normalization throughout:
a unit simplex has volume 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import comb
from typing import Sequence

from .decompose import BorderStrip
from .errors import DisconnectedRegion
from .matroid import is_connected
from .paths import Box, Region, region_boxes


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


def _fillings(boxes: Sequence[Box]) -> int:
    """Standard fillings totalled over the monotone box paths from the first
    box to the last, ``boxes`` sorted by (col, row); 1 for no boxes."""
    if not boxes:
        return 1
    first = boxes[0]
    fillings: dict[tuple[int, int], list[int]] = {first: [1]}
    for col, row in boxes[1:]:
        west = fillings.get((col - 1, row))
        south = fillings.get((col, row - 1))
        size = col + row - first.col - first.row + 1
        counts = list(accumulate(west, initial=0)) if west else [0] * size
        if south:
            below = list(accumulate(south, initial=0))
            counts = [c + below[-1] - s for c, s in zip(counts, below)]
        fillings[col, row] = counts
    return sum(fillings[boxes[-1]])


def strip_volume(strip: BorderStrip) -> int:
    """Standard fillings of the strip: ascents along rows, descents up columns."""
    return _fillings(strip.boxes)


def volume(region: Region) -> int:
    """Normalized volume of a connected region's polytope: total over its strips."""
    if not is_connected(region):
        raise DisconnectedRegion(
            "volume of a direct sum is not a plain total; compute per connected block"
        )
    return _fillings(region_boxes(region))
