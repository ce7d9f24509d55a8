"""Counting lattice points of dilations, exactly, and auditing a formula.

The dynamic program over prefix sums is the ground truth; with strict
inequalities inside each connected block it counts the relative-interior
points.  By Ehrhart-Macdonald reciprocity, L(-t) = (-1)^d L°(t), the plain
counts up to t = ceil(d/2) and the interior counts up to t = floor(d/2)
fix the exact rational dilation polynomial.  The windowed-composition
double sum is evaluated side by side and reported, mismatches and all.
"""

from lpmpoly import (
    count_lattice_points,
    ehrhart_polynomial,
    gamma_set,
    reconcile_ehrhart_formula,
    region_from_words,
)
from lpmpoly.oracle import s_set

octahedron = region_from_words("EENN", "NNEE")
print("dilation counts:", [count_lattice_points(octahedron, t) for t in range(6)])
poly = ehrhart_polynomial(octahedron)
print("polynomial coefficients (constant first):", poly.coeffs)
print("normalized volume from the leading coefficient:", poly.normalized_volume)
print("interior counts:", [count_lattice_points(octahedron, t, interior=True) for t in range(1, 6)])
print("reciprocity, (-1)^d L(-t):", [int((-1) ** poly.degree * poly(-t)) for t in range(1, 6)])

print("\nwindowed compositions:", gamma_set(octahedron))
print("slack arrays for rank 2, t=2:", s_set(2, 2))

print("\nformula audit (lower, upper, t, formula, truth, match):")
for region in (region_from_words("EN", "NE"), octahedron):
    for line in reconcile_ehrhart_formula(region, 3).csv_lines():
        print("   ", line)
