import inspect
import random
from itertools import product

import pytest

from lpmpoly import (
    catalan_edge_formula,
    catalan_facet_count,
    catalan_region,
    count_lattice_points,
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
from lpmpoly.errors import DisconnectedRegion, EmptyFace, NotAFacet, NotGeneralizedCatalan
from lpmpoly import matroid, polytope
from lpmpoly.matroid import components, delete
from lpmpoly.oracle import all_regions, brute_facets, facet_candidates
from lpmpoly.paths import PathWord, Region, area_below, fix_letter, path_from_profile, pin
from lpmpoly.polytope import Facet, LinearConstraint
from lpmpoly.ratlinalg import affine_rank
from lpmpoly.verify import check_facets

from bounds_reference import two_pass_tighten


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


def test_dimension_checks_compare_against_the_component_count(monkeypatch):
    # dimension reads the touch count; the check and the errata row keep the
    # component partition as their second route, so skewing its count fails
    # both while dimension itself is untouched.
    from lpmpoly import verify
    from lpmpoly.matroid import ComponentPartition

    assert verify.check_dimension(5, range(2, 4)).ok
    real = verify.components
    monkeypatch.setattr(
        verify, "components", lambda region: ComponentPartition(real(region).blocks[1:])
    )
    res = verify.check_dimension(5, range(2, 4))
    assert res.failures and all("component-count" in f for f in res.failures)
    rows = {row.claim: row for row in verify.build_errata_report(4, 1, 6)}
    assert rows["dimension-components-formula"].verdict == "erratum"


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


def test_edge_count_by_area_matches_path_areas_and_the_catalan_formula():
    for region in all_regions(8):
        if region.lower.word == "E" * region.m + "N" * region.r:
            assert edge_count_by_area(region) == sum(map(area_below, enumerate_paths(region))), region
    for n in range(1, 61):
        assert edge_count_by_area(catalan_region(n)) == catalan_edge_formula(n), n


def test_catalan_edge_formula_values():
    assert [catalan_edge_formula(n) for n in (1, 2, 3)] == [0, 1, 8]
    for n in range(1, 8):
        assert catalan_edge_formula(n) == len(edges(catalan_region(n)))
    # past the sweeps: the connected core of catalan_region(n + 1) has its edges
    for n in (7, 8):
        found = edges(reduced_catalan_region(n))
        assert len(found) == catalan_edge_formula(n + 1)
        assert found == sorted(set(found))


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
    pinched = face_region(region, by_kind[("prefix_upper", 2)])
    assert pinched == region_from_words("ENEN", "NENE")
    assert components(pinched).count == 2
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


BOX = ("x_lower", "x_upper")


def scanned_tight(paths, kind, position, rhs):
    """A candidate's tight tuple by the path scan: the indices of the paths
    whose rise over its run of steps is ``rhs``."""
    start = position - 1 if kind in BOX else 0
    return tuple(
        k for k, path in enumerate(paths)
        if path.profile[position] - path.profile[start] == rhs
    )


def test_face_region_accepts_exactly_the_listed_facets():
    # one facet certified alone against membership in the oracle's facet
    # list: every candidate with its true tight tuple, and listed facets
    # with perturbed tight tuples
    for region in all_regions(7, connected_only=True):
        listed = brute_facets(region)
        paths = enumerate_paths(region)
        for kind, position, cons in facet_candidates(region):
            tight = scanned_tight(paths, kind, position, cons.rhs)
            copies = [Facet(cons, tight, kind, position)]
            if copies[0] in listed:
                copies += [
                    copies[0]._replace(tight=other)
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


def malformed_copies(region, facet):
    """Copies of a listed facet that name no candidate of the region, or
    carry a constraint other than its own.  Positions -1 and n are past the
    profile reads of a prefix candidate's corner test; a box facet at n is
    its own copy there and is left out."""
    n = region.size
    cons = facet.constraint
    flipped = {"<=": ">=", ">=": "<="}[cons.rel]
    copies = [
        facet._replace(position=-1),
        facet._replace(position=0),
        facet._replace(position=n),
        facet._replace(position=n + 1),
        facet._replace(kind="x_middle"),
        facet._replace(constraint=cons._replace(rel=flipped)),
        facet._replace(constraint=cons._replace(rhs=cons.rhs - 1)),
        facet._replace(constraint=cons._replace(rhs=cons.rhs + 1)),
        facet._replace(constraint=cons._replace(coeffs=cons.coeffs + (0,))),
        facet._replace(constraint=cons._replace(coeffs=cons.coeffs[:-1])),
    ]
    return [copy for copy in copies if copy != facet]


def off_corner_prefix_facets(region):
    """Prefix bounds at every position of 1..n where their path has no
    corner, each with its own constraint and true tight tuple."""
    n = region.size
    paths = enumerate_paths(region)
    out = []
    for kind, path, corner, rel in (
        ("prefix_upper", region.upper, "EN", "<="),
        ("prefix_lower", region.lower, "NE", ">="),
    ):
        for i in range(1, n + 1):
            if path.word[i - 1 : i + 1] != corner:
                rhs = path.profile[i]
                cons = LinearConstraint((1,) * i + (0,) * (n - i), rel, rhs)
                out.append(Facet(cons, scanned_tight(paths, kind, i, rhs), kind, i))
    return out


def test_face_region_rejects_malformed_facets_with_not_a_facet():
    # the facet is looked up directly, not found in a candidate list: every
    # malformed field must end in NotAFacet, never in an IndexError or a
    # ValueError from reading the region at a position it does not have
    for region in all_regions(7, connected_only=True):
        listed = facets(region)
        bad = [copy for facet in listed for copy in malformed_copies(region, facet)]
        for facet in bad + off_corner_prefix_facets(region):
            with pytest.raises(NotAFacet):
                face_region(region, facet)


def test_check_facets_flags_duplicate_facets(monkeypatch):
    # without the dominance test every candidate cutting a facet is listed
    assert check_facets(max_size=5, catalan_ns=range(3, 7)).ok
    monkeypatch.setattr(polytope, "_dominated", lambda *args: False)
    res = check_facets(max_size=5, catalan_ns=range(3, 7))
    assert not res.ok
    assert any("facet list mismatch" in f for f in res.failures)


def tight_on_whole_face(low, high, kind, position, rhs):
    """Every path of a face is tight on the candidate, read off the face's
    min and max profiles ``low`` and ``high`` over all n steps: some path
    takes E at step i exactly when low[i] <= high[i-1], and some path takes
    N there when high[i] > low[i-1]."""
    i = position
    if kind == "x_upper":
        return low[i] > high[i - 1]
    if kind == "x_lower":
        return high[i] <= low[i - 1]
    return low[i] == high[i] == rhs


def test_dominated_matches_the_scan_of_every_earlier_candidate():
    # on the face of every candidate, facet or not, of every connected
    # region, the only regions ``facets`` and ``face_region`` take: only
    # x_lower bounds are ever tight on a whole face
    found = set()
    for region in all_regions(8, connected_only=True):
        candidates = facet_candidates(region)
        for k, (kind, i, cons) in enumerate(candidates):
            surgery = fix_letter if kind in BOX else pin
            bounds = surgery(region, i, cons.rhs)
            if bounds is None:
                continue
            (_, low), (_, high) = bounds
            tight = {
                other for other, j, c in candidates[:k] if tight_on_whole_face(low, high, other, j, c.rhs)
            }
            assert polytope._dominated(low, high, kind, i) == bool(tight), (region, kind, i)
            found |= tight
    assert found == {"x_lower"}


def reference_certified(region, candidates, k):
    """The face of candidate k, by the face-region route: delete or pinch,
    build the face as a region, read its dimension off ``components``, then
    put the deleted letter back to test every earlier candidate in turn."""
    kind, i, cons = candidates[k]
    rhs = cons.rhs
    dim = region.size - components(region).count
    if dim <= 0:
        return None
    try:
        if kind in BOX:
            face = delete(region, i, rhs)
        else:
            bounds = two_pass_tighten(region.lower.profile, region.upper.profile, i, height=rhs)
            if bounds is None:
                raise EmptyFace
            face = Region(*(path_from_profile(b) for b in bounds))
    except EmptyFace:
        return None
    if face.size - components(face).count != dim - 1:
        return None
    low, high = face.lower.profile, face.upper.profile
    if kind in BOX:
        low, high = (h[:i] + tuple(x + rhs for x in h[i - 1 :]) for h in (low, high))
    earlier = candidates[:k]
    if any(tight_on_whole_face(low, high, other, j, c.rhs) for other, j, c in earlier):
        return None
    return face


def certification_mismatches(region):
    """Where ``facets`` and ``face_region`` part from the face-region route:
    the facet list, and for every candidate with its true tight tuple the
    face returned or NotAFacet."""
    candidates = facet_candidates(region)
    every_path = enumerate_paths(region)
    want, faces = [], {}
    for k, (kind, position, cons) in enumerate(candidates):
        facet = Facet(cons, scanned_tight(every_path, kind, position, cons.rhs), kind, position)
        faces[facet] = reference_certified(region, candidates, k)
        if faces[facet] is not None:
            want.append(facet)
    out = []
    if facets(region) != want:
        out.append(f"facet list of {region}")
    for facet, face in faces.items():
        try:
            got = face_region(region, facet)
        except NotAFacet:
            got = None
        if got != face:
            out.append(f"face_region of {facet.kind} at {facet.position} on {region}")
    return out


def connected_draw(seed=20121220, count=31, cap=3000):
    """Connected regions of 10-40 elements: two random paths of n - 2 steps
    bound the band, the upper one raised by an initial N and closed by an E,
    the lower one opened by an E and closed by an N, so the bounding paths
    touch at their ends only.  A draw with more than ``cap`` paths, whose
    tight sets would cost too much to scan, is drawn again."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = 10 + len(out) * 30 // (count - 1)
        r = rng.randint(1, n - 1)
        a, b = (
            PathWord("".join(rng.sample("N" * (r - 1) + "E" * (n - r - 1), n - 2))).profile
            for _ in range(2)
        )
        low = (0, *map(min, a, b), r)
        high = (0, *(h + 1 for h in map(max, a, b)), r)
        region = Region(path_from_profile(low), path_from_profile(high))
        if count_lattice_points(region, 1) <= cap:
            out.append(region)
    return out


def test_certification_matches_the_face_region_route_on_the_sweep():
    for region in all_regions(8, connected_only=True):
        assert certification_mismatches(region) == [], region


def test_connected_draw_spans_ten_to_forty_elements():
    regions = connected_draw()
    assert [region.size for region in regions] == list(range(10, 41))
    assert all(polytope.is_connected(region) for region in regions)


@pytest.mark.parametrize("region", connected_draw(), ids=repr)
def test_certification_matches_the_face_region_route_on_seeded_regions(region):
    assert certification_mismatches(region) == []


# Each mutant rewrites the touch test of ``_certified``: the first forgets
# that a deletion face drops position i, the second counts the touches of
# the region instead of the face's bounds.
TOUCH_TEST = "if touch_count(low, high) - (low[i] == high[i]) != 2:"
MUTANTS = {
    "no position-i correction": "if touch_count(low, high) != 2:",
    "the region's touches": (
        "if touch_count(region.lower.profile, region.upper.profile) - (low[i] == high[i]) != 2:"
    ),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_face_region_route_catches_touch_count_mutants(monkeypatch, mutant):
    source = inspect.getsource(polytope._certified)
    assert source.count(TOUCH_TEST) == 1
    namespace = dict(vars(polytope))
    exec(source.replace(TOUCH_TEST, MUTANTS[mutant]), namespace)
    monkeypatch.setattr(polytope, "_certified", namespace["_certified"])
    regions = [region for region in all_regions(6, connected_only=True) if region.size > 1]
    assert any(certification_mismatches(region) for region in regions)


# Each fault breaks the whole-block branch of ``tight_sets``, which runs
# only on regions of ``paths.MEET_MIN_SIZE`` elements or more: past every
# sweep of ``lpm verify all``, but not its staircase regions.
BLOCK_FAULTS = {
    "block range shifted": ("range(i, i + len(", "range(i + 1, i + len("),
    "run read from step 0": ("h[position] - h[start] == rhs", "h[position] - h[0] == rhs"),
}


@pytest.mark.parametrize("fault", BLOCK_FAULTS)
def test_check_facets_catches_whole_block_faults(monkeypatch, fault):
    assert check_facets(max_size=4, catalan_ns=range(3, 7)).ok
    source = inspect.getsource(polytope.tight_sets)
    old, new = BLOCK_FAULTS[fault]
    assert source.count(old) == 1
    namespace = dict(vars(polytope))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(polytope, "tight_sets", namespace["tight_sets"])
    res = check_facets(max_size=4, catalan_ns=range(3, 7))
    assert not res.ok
    assert any("tight set differs from the vertex scan" in f for f in res.failures)


def _count_constructions(monkeypatch):
    """Count ``Region`` constructions, checked or not, and ``PathWord``s
    wrapped round a profile, which ``path_from_profile`` and the word cuts
    both go through."""
    counts = {"Region": 0, "PathWord": 0}
    init = Region.__init__
    wrap = Region._from_paths.__func__
    from_profile = PathWord._from_profile.__func__

    def counted_init(self, *args):
        counts["Region"] += 1
        init(self, *args)

    def counted_wrap(cls, *args):
        counts["Region"] += 1
        return wrap(cls, *args)

    def counted_from_profile(cls, *args):
        counts["PathWord"] += 1
        return from_profile(cls, *args)

    monkeypatch.setattr(Region, "__init__", counted_init)
    monkeypatch.setattr(Region, "_from_paths", classmethod(counted_wrap))
    monkeypatch.setattr(PathWord, "_from_profile", classmethod(counted_from_profile))
    return counts


def test_certification_builds_only_the_returned_face(monkeypatch):
    regions = [reduced_catalan_region(5), region_from_words("EENEN", "NENEE")]
    listed = [(region, facets(region)) for region in regions]
    assert {f.kind for _, fs in listed for f in fs} == {*BOX, "prefix_upper", "prefix_lower"}
    counts = _count_constructions(monkeypatch)
    for region, fs in listed:
        facets(region)
        assert counts == {"Region": 0, "PathWord": 0}, region
        for facet in fs:
            assert isinstance(face_region(region, facet), Region)
            assert counts == {"Region": 1, "PathWord": 2}, facet
            counts.update(Region=0, PathWord=0)


def test_box_face_region_fixes_the_letter_once(monkeypatch):
    # The certificate's bounds are the face's before the cut, so the box
    # face is cut from them, not fixed again by ``delete``.
    regions = [reduced_catalan_region(5), region_from_words("EENEN", "NENEE")]
    listed = [(region, f) for region in regions for f in facets(region) if f.kind in BOX]
    assert listed
    calls = []
    fix = polytope.fix_letter

    def counted(*args):
        calls.append(args)
        return fix(*args)

    monkeypatch.setattr(polytope, "fix_letter", counted)
    monkeypatch.setattr(matroid, "fix_letter", counted)
    for region, facet in listed:
        calls.clear()
        face = face_region(region, facet)
        assert calls == [(region, facet.position, facet.constraint.rhs)], facet
        assert face == delete(region, facet.position, facet.constraint.rhs)
