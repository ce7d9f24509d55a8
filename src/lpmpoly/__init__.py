"""Lattice path matroid polytopes in exact arithmetic.

Build a region from two bounding paths, then ask for its bases, polytope
faces, decompositions, volume, Ehrhart polynomial, or triangulations.
Every closed form the library exposes is verified against brute-force
oracles; run ``lpm verify all`` or see :mod:`lpmpoly.verify`.
"""

from .paths import (
    Box,
    PathWord,
    Region,
    area_below,
    catalan_region,
    enumerate_paths,
    hypersimplex_region,
    intersection_vertices,
    kcatalan_region,
    make_region,
    parse_path,
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
    is_basis,
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
    GoodPartition,
    Split,
    SplitResult,
    border_strips,
    decomposition_tree,
    find_split,
    good_partition_of_split,
    hyperplane_split,
    is_border_strip,
    region_to_strip,
    strip_to_region,
    verify_good_partition,
)
from .volume import (
    catalan_area,
    catalan_number,
    eulerian,
    exact_descent_count,
    strip_volume,
    volume,
)
from .ehrhart import (
    EhrhartPolynomial,
    GammaBounds,
    basis_fold,
    count_lattice_points,
    ehrhart_polynomial,
    gamma_bounds,
    gamma_set,
    reconcile_ehrhart_formula,
    s_set,
)
from .triangulate import (
    SimplexCell,
    hypersimplex_triangulation,
    psi,
    psi_inverse_on,
    strip_triangulation,
    triangulation_volume_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
