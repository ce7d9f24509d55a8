"""Lattice path matroid polytopes in exact arithmetic.

Build a region from two bounding paths, then ask for its bases, polytope
faces, decompositions, volume, Ehrhart polynomial, or triangulations.
Every closed form the library exposes is verified against brute-force
oracles; run ``lpm verify all`` or see :mod:`lpmpoly.verify`.
"""

from time import perf_counter as _clock

_import_start = _clock()  # ``cli.IMPORT_SECONDS`` counts from here

from .paths import (
    Box,
    PathWord,
    Region,
    catalan_region,
    enumerate_paths,
    hypersimplex_region,
    intersection_vertices,
    kcatalan_region,
    rectangle_region,
    reduced_catalan_region,
    region_boxes,
    region_from_words,
)
from .matroid import (
    BasisVector,
    ComponentPartition,
    IntervalPresentation,
    bases,
    components,
    delete,
    is_connected,
    is_independent,
    presentation,
)
from .polytope import (
    Facet,
    HRepresentation,
    LinearConstraint,
    catalan_edge_formula,
    catalan_facet_count,
    dimension,
    edge_count_by_area,
    edges,
    face_region,
    facets,
    h_representation,
    kcatalan_facet_count,
    vertices,
)
from .decompose import (
    BorderStrip,
    DecompositionNode,
    Split,
    border_strips,
    decomposition_tree,
    find_split,
    hyperplane_split,
    region_to_strip,
)
from .volume import (
    catalan_area,
    catalan_number,
    eulerian,
    strip_volume,
    volume,
)
from .ehrhart import (
    EhrhartPolynomial,
    count_lattice_points,
    ehrhart_polynomial,
    gamma_set,
    reconcile_ehrhart_formula,
)
from .triangulate import (
    SimplexCell,
    hypersimplex_triangulation,
    strip_triangulation,
)

__all__ = [
    "Box",
    "PathWord",
    "Region",
    "catalan_region",
    "enumerate_paths",
    "hypersimplex_region",
    "intersection_vertices",
    "kcatalan_region",
    "rectangle_region",
    "reduced_catalan_region",
    "region_boxes",
    "region_from_words",
    "BasisVector",
    "ComponentPartition",
    "IntervalPresentation",
    "bases",
    "components",
    "delete",
    "is_connected",
    "is_independent",
    "presentation",
    "Facet",
    "HRepresentation",
    "LinearConstraint",
    "catalan_edge_formula",
    "catalan_facet_count",
    "dimension",
    "edge_count_by_area",
    "edges",
    "face_region",
    "facets",
    "h_representation",
    "kcatalan_facet_count",
    "vertices",
    "BorderStrip",
    "DecompositionNode",
    "Split",
    "border_strips",
    "decomposition_tree",
    "find_split",
    "hyperplane_split",
    "region_to_strip",
    "catalan_area",
    "catalan_number",
    "eulerian",
    "strip_volume",
    "volume",
    "EhrhartPolynomial",
    "count_lattice_points",
    "ehrhart_polynomial",
    "gamma_set",
    "reconcile_ehrhart_formula",
    "SimplexCell",
    "hypersimplex_triangulation",
    "strip_triangulation",
]
