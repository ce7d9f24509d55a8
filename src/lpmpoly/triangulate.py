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
0/1 staircase vertices to 0/1 points, so cells are built in integers;
``psi`` and its pull-back run on integer numerators over a shared
denominator.  A cell's determinant is read off its permutation, not
computed: differencing consecutive edge rows leaves a row permutation of
a unit bidiagonal matrix.  ``verify.check_triangulation`` is the oracle
side: it checks the 0/1 property on every cell, rebuilds each cell's
vertices as ``psi_inverse_int`` of its permutation's staircase points and
compares them with the cell's, recomputes each cell's determinant from its
edge rows with ``ratlinalg.det_int``, and compares the generated
permutations with the full scan in ``oracle.scan_inverse_descents``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, Sequence

from .decompose import BorderStrip
from .errors import BadK, NonUnimodularCell, WrongChamber
from .volume import inverse_permutation

Perm = tuple[int, ...]


def _bumps(w: Perm) -> list[int]:
    """1 at index i >= 1 when i is a descent of w^-1 (i+1 precedes i in w); index 0 holds 0."""
    inv = inverse_permutation(w)
    return [1 if i and inv[i] < inv[i - 1] else 0 for i in range(len(w))]


def psi_int(x: Sequence[int], den: int) -> tuple[int, ...]:
    """``psi`` on numerators: the prefix sums of ``x`` modulo ``den``."""
    out = []
    acc = 0
    for xi in x:
        acc = (acc + xi) % den
        out.append(acc)
    return tuple(out)


def psi_inverse_int(w: Perm, y: Sequence[int], den: int) -> tuple[int, ...]:
    """``psi_inverse_on`` on numerators over ``den``: x_i = y_i - y_{i-1} + bump_i * den."""
    if len(y) != len(w):
        raise ValueError("point and permutation dimensions differ")
    chain = [y[v - 1] for v in w]
    if chain != sorted(chain) or (chain and not 0 <= chain[0] <= chain[-1] <= den):
        raise WrongChamber(f"point violates the order type of {w}")
    bumps = _bumps(w)
    return tuple(y[i] - (y[i - 1] if i else 0) + b * den for i, b in enumerate(bumps))


def _over_common_denominator(x: Sequence) -> tuple[list[int], int]:
    den = lcm(*(v.denominator for v in x))
    return [v.numerator * (den // v.denominator) for v in x], den


def psi(x: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Fractional parts of the prefix sums; bijective off the break set."""
    nums, den = _over_common_denominator(x)
    return tuple(Fraction(v, den) for v in psi_int(nums, den))


def psi_inverse_on(w: Perm, y: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Invert the prefix-sum map on the closed simplex of order type ``w``."""
    nums, den = _over_common_denominator(y)
    return tuple(Fraction(v, den) for v in psi_inverse_int(w, nums, den))


def inverse_descent_class(
    d: int, descents: frozenset[int] | None = None, count: int | None = None
) -> Iterator[Perm]:
    """The permutations w of 1..d whose inverse has descent set ``descents``
    (or, when that is None, exactly ``count`` descents), in lexicographic order.

    Values are placed left to right, smallest admissible first, on an
    explicit stack.  With a descent set, v may come next iff v+1 is already
    placed whenever v is a descent and v-1 is already placed whenever v-1 is
    not.  With a count, placing v before v-1 adds a descent; a branch is
    entered only while descents-so-far <= count <= descents-so-far plus the
    pairs (i, i+1) whose values are both unplaced, and any such branch can
    still reach the count.
    """
    if descents is not None:
        if not descents <= set(range(1, d)):
            return
        desc = [i in descents for i in range(d + 1)]
    elif not 0 <= count <= max(d - 1, 0):
        return
    placed = [True] + [False] * d + [True]  # 0 and d+1 are sentinels
    w: list[int] = []
    nxt = [1]  # next value to try at each depth
    made = 0  # descents so far
    free = max(d - 1, 0)  # pairs (i, i+1) with both values unplaced
    while True:
        depth = len(w)
        if depth == d:
            yield tuple(w)
        else:
            v = nxt[depth]
            while v <= d:
                if not placed[v]:
                    if descents is not None:
                        if (placed[v + 1] or not desc[v]) and (placed[v - 1] or desc[v - 1]):
                            break
                    else:
                        gain = 0 if placed[v - 1] else 1
                        if made + gain <= count <= made + free - (0 if placed[v + 1] else 1):
                            break
                v += 1
            if v <= d:
                nxt[depth] = v + 1
                gain = 0 if placed[v - 1] else 1
                made += gain
                free -= gain + (0 if placed[v + 1] else 1)
                placed[v] = True
                w.append(v)
                nxt.append(1)
                continue
        nxt.pop()
        if not w:
            return
        v = w.pop()
        placed[v] = False
        gain = 0 if placed[v - 1] else 1
        made -= gain
        free += gain + (0 if placed[v + 1] else 1)


@dataclass(frozen=True)
class SimplexCell:
    """A unimodular cell, in slice coordinates and lifted by the dropped coordinate."""

    perm: Perm
    vertices: tuple[tuple[int, ...], ...]
    vertices_lifted: tuple[tuple[int, ...], ...]
    det: int

    def to_json_dict(self) -> dict:
        return {
            "perm": list(self.perm),
            "vertices": [[f"{c}/1" for c in v] for v in self.vertices],
            "det": abs(self.det),
        }


def cell_for_permutation(w: Perm) -> SimplexCell:
    """Pull the staircase vertices of the order-type simplex back through the map.

    The staircase's next vertex sets coordinate j = w[idx] - 1 of y to 1,
    which moves the pull-back by +1 at j and -1 at j+1.  Edge row t (vertex
    t minus the first) is the sum of those moves for w[d-1], ..., w[d-t], so
    differencing consecutive rows leaves the rows e_v - e_{v+1} in the order
    v = w[d-1], ..., w[0]: the unit bidiagonal matrix with its rows permuted
    by w reversed.  The determinant is that permutation's sign, (-1) to the
    number of pairs i < j with w_i < w_j.
    """
    d = len(w)
    bumps = _bumps(w)
    level = sum(bumps) + 1
    x = bumps  # the pull-back of the origin
    verts = [tuple(x)]
    for idx in range(d - 1, -1, -1):
        j = w[idx] - 1
        x[j] += 1
        if j + 1 < d:
            x[j + 1] -= 1
        verts.append(tuple(x))
    det = (-1) ** sum(a < b for i, a in enumerate(w) for b in w[i + 1 :])
    lifted = tuple(v + (level - sum(v),) for v in verts)
    return SimplexCell(w, tuple(verts), lifted, det)


def hypersimplex_triangulation(k: int, n: int) -> list[SimplexCell]:
    """One cell per permutation whose inverse has k-1 descents; count is Eulerian."""
    if not 1 <= k <= n - 1:
        raise BadK(f"need 1 <= k <= n-1, got k={k}, n={n}")
    return [cell_for_permutation(w) for w in inverse_descent_class(n - 1, count=k - 1)]


def strip_triangulation(strip: BorderStrip) -> list[SimplexCell]:
    """Cells whose inverse-descent set equals the strip's descent set."""
    return [
        cell_for_permutation(w)
        for w in inverse_descent_class(len(strip), descents=strip.descents)
    ]


def triangulation_volume_check(cells: list[SimplexCell]) -> int:
    """Total of the per-cell determinants, each required to be a unit."""
    for cell in cells:
        if abs(cell.det) != 1:
            raise NonUnimodularCell(f"cell {cell.perm} has determinant {cell.det}")
    return len(cells)
