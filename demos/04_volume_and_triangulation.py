"""Normalized volumes and unimodular triangulations.

The volume of a connected region's polytope counts permutations by
descent set, one class per border strip.  The slice of the cube between
consecutive integer coordinate-sum hyperplanes triangulates into unit
simplices labeled by permutations, pulled back through the prefix-sum
fractional-part map.  A slice's cells are the cells of the border strips
of its rectangle region, merged by permutation.  That map and its inverse
on each chamber live in the oracle module, on integer numerators over a
shared denominator: the verify sweep rebuilds every cell's vertices with
them.
"""

from lpmpoly import (
    eulerian,
    hypersimplex_region,
    hypersimplex_triangulation,
    strip_triangulation,
    volume,
)
from lpmpoly.decompose import BorderStrip
from lpmpoly.oracle import psi_int, psi_inverse_int
from lpmpoly.paths import Box

print("volumes of rectangle regions are Eulerian numbers:")
for n in (4, 5, 6):
    row = [volume(hypersimplex_region(k, n)) for k in range(1, n)]
    print(f"    n={n}:", row, "=", [eulerian(k, n - 1) for k in range(1, n)])

print("\ntriangulating the middle slice for k=2, n=4:")
cells = hypersimplex_triangulation(2, 4)
for cell in cells:
    print("    label", cell.perm, "vertices", cell.vertices, "det", cell.det)
print("cells:", len(cells), "= Eulerian", eulerian(2, 3))

print("\nthe prefix-sum map and its chamber inverses round-trip exactly (numerators over 4):")
y = (3, 1)
x = psi_inverse_int((2, 1), y, 4)
print(f"    y = {y}  ->  x = {x}  ->  psi(x) = {psi_int(x, 4)}")

print("\na 3-box corner strip triangulates into its filling count of cells:")
ell = BorderStrip((Box(1, 1), Box(2, 1), Box(2, 2)))
for cell in strip_triangulation(ell):
    print("    label", cell.perm, "lifted vertices", cell.vertices_lifted)
