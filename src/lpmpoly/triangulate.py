"""Piecewise-linear unimodular triangulations of hypersimplex slices and strips.

The cube self-map sending a point to the fractional parts of its prefix
sums is volume preserving; pulling the order-type simplices back through
it tiles each slice between consecutive integer coordinate-sum hyperplanes,
one cell per permutation with the matching inverse-descent statistics.
The pull-back is affine on each order-type simplex and sends the simplex's
0/1 staircase vertices to 0/1 points, so cells are built in integers;
``verify.check_triangulation`` checks the 0/1 property on every cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import floor
from typing import Sequence

from .decompose import BorderStrip
from .errors import BadK, NonUnimodularCell, WrongChamber
from .ratlinalg import det_int
from .volume import descent_set, inverse_permutation

Perm = tuple[int, ...]


def psi(x: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Fractional parts of the prefix sums; bijective off the break set."""
    out = []
    acc = Fraction(0)
    for xi in x:
        acc += xi
        out.append(acc - floor(acc))
    return tuple(out)


def _inverse_affine(w: Perm, y: Sequence) -> tuple:
    """The pull-back on the simplex of order type ``w``; exact on ints and Fractions."""
    inv = inverse_permutation(w)
    x = [y[0]]
    for i in range(1, len(y)):
        bump = 1 if inv[i] < inv[i - 1] else 0
        x.append(y[i] - y[i - 1] + bump)
    return tuple(x)


def psi_inverse_on(w: Perm, y: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Invert the prefix-sum map on the closed simplex of order type ``w``."""
    if len(y) != len(w):
        raise ValueError("point and permutation dimensions differ")
    chain = [y[w[i] - 1] for i in range(len(w))]
    if any(a > b for a, b in zip(chain, chain[1:])) or (
        chain and not 0 <= chain[0] <= chain[-1] <= 1
    ):
        raise WrongChamber(f"point violates the order type of {w}")
    return _inverse_affine(w, y)


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
    """Pull the staircase vertices of the order-type simplex back through the map."""
    d = len(w)
    level = len(descent_set(inverse_permutation(w))) + 1 if d else 1
    verts = []
    for t in range(d + 1):
        y = [0] * d
        for idx in range(d - t, d):
            y[w[idx] - 1] = 1
        verts.append(_inverse_affine(w, y) if d else ())
    base = verts[0]
    det = det_int([[a - b for a, b in zip(v, base)] for v in verts[1:]])
    lifted = tuple(v + (level - sum(v),) for v in verts)
    return SimplexCell(w, tuple(verts), lifted, det)


def hypersimplex_triangulation(k: int, n: int) -> list[SimplexCell]:
    """One cell per permutation whose inverse has k-1 descents; count is Eulerian."""
    if not 1 <= k <= n - 1:
        raise BadK(f"need 1 <= k <= n-1, got k={k}, n={n}")
    cells = []
    for w in permutations(range(1, n)):
        if len(descent_set(inverse_permutation(w))) == k - 1:
            cells.append(cell_for_permutation(w))
    return cells


def strip_triangulation(strip: BorderStrip) -> list[SimplexCell]:
    """Cells whose inverse-descent set equals the strip's descent set."""
    target = strip.descents
    cells = []
    for w in permutations(range(1, len(strip) + 1)):
        if descent_set(inverse_permutation(w)) == target:
            cells.append(cell_for_permutation(w))
    return cells


def triangulation_volume_check(cells: list[SimplexCell]) -> int:
    """Total of the per-cell determinants, each required to be a unit."""
    for cell in cells:
        if abs(cell.det) != 1:
            raise NonUnimodularCell(f"cell {cell.perm} has determinant {cell.det}")
    return len(cells)
