from dataclasses import replace
from itertools import product

import pytest

from lpmpoly import (
    catalan_edge_formula,
    catalan_facet_count,
    catalan_region,
    dimension,
    edge_count_by_area,
    edges,
    enumerate_paths,
    face_region,
    facets,
    h_representation,
    kcatalan_facet_count,
    kcatalan_region,
    reduced_catalan_region,
    region_from_words,
    vertices,
)
from lpmpoly.errors import DisconnectedRegion, NotAFacet, NotGeneralizedCatalan
from lpmpoly import polytope
from lpmpoly.oracle import all_regions, brute_facets
from lpmpoly.polytope import Facet, facet_candidates
from lpmpoly.ratlinalg import affine_rank
from lpmpoly.verify import check_facets


def test_vertices_examples():
    assert len(vertices(region_from_words("EENN", "NENE"))) == 5
    assert len(vertices(region_from_words("EENN", "NNEE"))) == 6
    assert vertices(region_from_words("EN", "EN")) == [(0, 1)]


@pytest.mark.parametrize(
    "lower,upper,dim",
    [("EENN", "NENE", 3), ("EENN", "NNEE", 3), ("EN", "EN", 0)],
)
def test_dimension_examples(lower, upper, dim):
    assert dimension(region_from_words(lower, upper)) == dim


def test_dimension_equals_affine_rank():
    for region in all_regions(8):
        assert dimension(region) == affine_rank(vertices(region))


@pytest.mark.parametrize(
    "lower,upper,count",
    [("EENN", "NENE", 8), ("EN", "NE", 1), ("EENN", "NNEE", 12)],
)
def test_edges_examples(lower, upper, count):
    assert len(edges(region_from_words(lower, upper))) == count


def test_edge_count_by_area_examples():
    assert edge_count_by_area(region_from_words("EENN", "NENE")) == 8
    assert edge_count_by_area(region_from_words("EN", "NE")) == 1
    assert edge_count_by_area(catalan_region(3)) == 8
    with pytest.raises(NotGeneralizedCatalan):
        edge_count_by_area(region_from_words("ENEN", "NENE"))


def test_catalan_edge_formula_values():
    assert [catalan_edge_formula(n) for n in (1, 2, 3)] == [0, 1, 8]
    for n in range(1, 8):
        assert catalan_edge_formula(n) == len(edges(catalan_region(n)))


def test_h_representation_examples():
    rep = h_representation(region_from_words("EENN", "NENE"))
    cons = {(c.coeffs, c.rel, c.rhs) for c in rep.inequalities}
    assert ((1, 1, 0, 0), "<=", 1) in cons
    assert ((1, 1, 1, 0), ">=", 1) in cons
    assert rep.equalities[0].coeffs == (1, 1, 1, 1)
    assert rep.equalities[0].rhs == 2


def test_h_representation_integer_points_are_bases():
    for region in all_regions(6):
        rep = h_representation(region)
        checks = list(rep.equalities) + list(rep.inequalities)
        points = {
            pt
            for pt in product((0, 1), repeat=region.size)
            if all(c.holds(pt) for c in checks)
        }
        assert points == set(vertices(region))


def test_facet_examples():
    fs = facets(region_from_words("EENN", "NENE"))
    summary = {(f.kind, f.position) for f in fs}
    assert summary == {
        ("x_lower", 1),
        ("x_lower", 2),
        ("x_upper", 3),
        ("x_upper", 4),
        ("prefix_upper", 2),
    }
    seg = facets(region_from_words("EN", "NE"))
    assert {(f.kind, f.position) for f in seg} == {("x_lower", 1), ("x_lower", 2)}
    assert len(facets(region_from_words("EENN", "NNEE"))) == 8
    with pytest.raises(DisconnectedRegion):
        facets(region_from_words("ENEN", "ENEN"))


def test_facets_cut_exactly_the_polytope():
    # within the affine hull and the unit cube, facet inequalities leave
    # exactly the basis vectors as integer points
    for region in all_regions(6, connected_only=True):
        fs = facets(region)
        kept = {
            pt
            for pt in product((0, 1), repeat=region.size)
            if sum(pt) == region.r and all(f.constraint.holds(pt) for f in fs)
        }
        assert kept == set(vertices(region))


def test_facet_tight_sets_have_corank_one():
    for region in all_regions(6, connected_only=True):
        verts = vertices(region)
        d = dimension(region)
        for f in facets(region):
            assert affine_rank([verts[t] for t in f.tight]) == d - 1


def test_catalan_facet_counts():
    assert catalan_facet_count(2) == 5
    for n in (2, 3, 4, 8):
        assert len(facets(reduced_catalan_region(n))) == catalan_facet_count(n)


def test_kcatalan_facet_claims():
    # claimed counts hold off the width-1 column, where the claim over-counts by 2
    assert kcatalan_facet_count(1, 2) == 2 == len(facets(kcatalan_region(1, 2)))
    assert kcatalan_facet_count(2, 2) == 3 == len(facets(kcatalan_region(2, 2)))
    assert kcatalan_facet_count(1, 3) == 7
    assert len(facets(kcatalan_region(1, 3))) == 5


def test_face_region_examples():
    region = region_from_words("EENN", "NENE")
    by_kind = {(f.kind, f.position): f for f in facets(region)}
    left, right = face_region(region, by_kind[("prefix_upper", 2)])
    assert (left.lower.word, left.upper.word) == ("EN", "NE")
    assert (right.lower.word, right.upper.word) == ("EN", "NE")
    child = face_region(region, by_kind[("x_upper", 4)])
    assert len(enumerate_paths(child)) == 3
    seg = region_from_words("EN", "NE")
    vertex = face_region(seg, facets(seg)[0])
    assert len(enumerate_paths(vertex)) == 1


def test_face_bijection_full_sweep():
    from lpmpoly.verify import check_faces

    result = check_faces(7)
    assert result.ok, result.failures


def test_face_region_rejects_non_facets():
    region = region_from_words("EENN", "NENE")
    others = facets(region_from_words("EENN", "NNEE"))
    foreign = next(f for f in others if (f.kind, f.position) == ("x_lower", 3))
    with pytest.raises(NotAFacet):
        face_region(region, foreign)


def test_face_region_accepts_exactly_the_listed_facets():
    # one facet certified alone against membership in the oracle's facet
    # list: every candidate with its true tight tuple, and listed facets
    # with perturbed tight tuples
    for region in all_regions(7, connected_only=True):
        listed = brute_facets(region)
        paths = enumerate_paths(region)
        for kind, position, cons in facet_candidates(region):
            start = position - 1 if kind in ("x_lower", "x_upper") else 0
            tight = tuple(
                k for k, path in enumerate(paths)
                if path.profile[position] - path.profile[start] == cons.rhs
            )
            copies = [Facet(cons, tight, kind, position)]
            if copies[0] in listed:
                copies += [
                    replace(copies[0], tight=other)
                    for other in (tight[1:], tight + (len(paths),), tuple(sorted(set(tight) ^ {0})))
                ]
            for facet in copies:
                try:
                    face_region(region, facet)
                    accepted = True
                except NotAFacet:
                    accepted = False
                assert accepted == (facet in listed), (region, kind, position, facet.tight)
    with pytest.raises(DisconnectedRegion):
        face_region(region_from_words("ENEN", "NEEN"), listed[0])


def test_check_facets_flags_duplicate_facets(monkeypatch):
    # without the dominance test every candidate cutting a facet is listed
    assert check_facets(max_size=5).ok
    monkeypatch.setattr(polytope, "_tight_on_whole_face", lambda *args: False)
    res = check_facets(max_size=5)
    assert not res.ok
    assert any("facet list mismatch" in f for f in res.failures)
