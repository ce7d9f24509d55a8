"""The polytope of a region: dimension, edges, facets, and faces.

Vertices are the 0/1 basis vectors.  Two vertices span an edge exactly
when they differ by one swap.  Facets are certified, not assumed: an
inequality counts only if the face it cuts, again a path region, has
dimension dim - 1.
"""

from lpmpoly import (
    dimension,
    edge_count_by_area,
    edges,
    face_region,
    facets,
    h_representation,
    region_from_words,
    vertices,
)

region = region_from_words("EENN", "NENE")
verts = vertices(region)
print("vertices:", ["".join(map(str, v)) for v in verts])
print("dimension:", dimension(region))
print("edges:", edges(region))
print("edge count from areas below the paths:", edge_count_by_area(region))

print("\nfull inequality description:")
rep = h_representation(region)
for cons in rep.equalities + rep.inequalities:
    print("   ", cons.coeffs, cons.rel, cons.rhs)

print("\ncertified facets (note how few survive):")
for facet in facets(region):
    tight = [("".join(map(str, verts[t]))) for t in facet.tight]
    print(f"    {facet.constraint.coeffs} {facet.constraint.rel} "
          f"{facet.constraint.rhs}   tight on {tight}")

print("\nevery facet is again a path region (a prefix facet's is pinched at a point):")
for facet in facets(region):
    print(f"    {facet.kind}@{facet.position}: {face_region(region, facet)}")
