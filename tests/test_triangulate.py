import random
from fractions import Fraction
from heapq import merge
from itertools import combinations, permutations, product
from math import factorial

import pytest

from lpmpoly import (
    BorderStrip,
    Box,
    border_strips,
    eulerian,
    find_split,
    hypersimplex_region,
    hypersimplex_triangulation,
    region_to_strip,
    strip_triangulation,
    strip_volume,
)
from lpmpoly.errors import BadK, WrongChamber
from lpmpoly.oracle import (
    all_regions,
    descent_set,
    inverse_permutation,
    psi_int,
    psi_inverse_int,
    scan_inverse_descents,
)
from lpmpoly.polytope import h_representation
from lpmpoly import oracle, triangulate, verify
from lpmpoly.triangulate import inverse_descent_class
from lpmpoly.verify import all_strips, check_triangulation

F = Fraction


def test_psi_examples():
    # numerators over 4: psi(1/2, 1/4) = (1/2, 3/4), psi(3/4, 1/2) = (3/4, 1/4)
    assert psi_int((2, 1), 4) == (2, 3)
    assert psi_int((3, 2), 4) == (3, 1)
    assert psi_int((0, 0, 0), 1) == (0, 0, 0)


def test_psi_inverse_examples():
    assert psi_inverse_int((1, 2), (1, 2), 4) == (1, 1)
    assert psi_inverse_int((2, 1), (3, 1), 4) == (3, 2)
    # at the origin the identity chamber maps back to the origin; chambers
    # with inverse descents apply their unit corrections even there
    assert psi_inverse_int((1, 2, 3), (0, 0, 0), 1) == (0, 0, 0)
    assert psi_inverse_int((2, 1), (0, 0), 1) == (0, 1)
    with pytest.raises(WrongChamber):
        psi_inverse_int((1, 2), (3, 1), 4)


def test_round_trip_on_interior_points():
    for n in range(2, 6):
        for w in permutations(range(1, n)):
            for s in range(20):
                den = 7 * n + 13 + s
                y = [0] * (n - 1)
                for i in range(n - 1):
                    y[w[i] - 1] = 7 * i + 1 + (s % 5)
                y = tuple(y)
                assert psi_int(psi_inverse_int(w, y, den), den) == y


@pytest.mark.parametrize(
    "k,n,count", [(1, 3, 1), (2, 4, 4), (2, 5, 11), (3, 5, 11)]
)
def test_hypersimplex_cell_counts(k, n, count):
    cells = hypersimplex_triangulation(k, n)
    assert len(cells) == count
    assert all(abs(cell.det) == 1 for cell in cells)


def test_hypersimplex_errors():
    with pytest.raises(BadK):
        hypersimplex_triangulation(0, 4)
    with pytest.raises(BadK):
        hypersimplex_triangulation(4, 4)


def test_slice_walks_the_descent_sets_of_its_rectangles_strips():
    # hypersimplex_triangulation walks the (k-1)-subsets of 1..n-2 without
    # building hypersimplex_region(k, n); they are its strips' descent sets,
    # and the slice's cells are its strips' cells merged by permutation
    for n in range(2, 9):
        for k in range(1, n):
            strips = border_strips(hypersimplex_region(k, n))
            assert {len(strip) for strip in strips} == {n - 1}
            walked = [list(ds) for ds in combinations(range(1, n - 1), k - 1)]
            assert walked == sorted(sorted(strip.descents) for strip in strips)
            if n <= 7:
                cells = [c for strip in strips for c in strip_triangulation(strip)]
                assert hypersimplex_triangulation(k, n) == sorted(cells, key=lambda c: c.perm)


def test_cells_partition_by_descents():
    for n in range(2, 7):
        total = 0
        for k in range(1, n):
            cells = hypersimplex_triangulation(k, n)
            assert len(cells) == eulerian(k, n - 1)
            total += len(cells)
        assert total == factorial(n - 1)


def test_cell_geometry():
    for k, n in ((1, 4), (2, 4), (2, 5)):
        for cell in hypersimplex_triangulation(k, n):
            assert abs(cell.det) == 1
            for v in cell.vertices:
                assert set(v) <= {0, 1}
                assert sum(v) in (k - 1, k)
            for v in cell.vertices_lifted:
                assert sum(v) == k
                assert set(v) <= {0, 1}


def barycentric_coordinates(vertices, point):
    """Coefficients expressing ``point`` affinely over ``vertices``, by
    Gauss-Jordan elimination in ``Fraction``s; None if not in the hull's span."""
    k = len(vertices)
    rows = [[F(v[i]) for v in vertices] + [F(x)] for i, x in enumerate(point)]
    rows.append([F(1)] * (k + 1))
    pivots = []
    for col in range(k):
        pivot = next((i for i in range(len(pivots), len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        top = len(pivots)
        rows[top], rows[pivot] = rows[pivot], rows[top]
        rows[top] = [x / rows[top][col] for x in rows[top]]
        for i, row in enumerate(rows):
            if i != top and row[col]:
                rows[i] = [a - row[col] * b for a, b in zip(row, rows[top])]
        pivots.append(col)
    if any(row[k] for row in rows[len(pivots):]):
        return None
    lam = [F(0)] * k
    for i, col in enumerate(pivots):
        lam[col] = rows[i][k]
    return lam


def _interior_point(cell):
    weights = list(range(1, len(cell.vertices) + 1))
    total = sum(weights)
    dim = len(cell.vertices[0])
    return tuple(
        sum(F(w) * v[i] for w, v in zip(weights, cell.vertices)) / total
        for i in range(dim)
    )


def test_cells_have_disjoint_interiors():
    # an interior sample of each cell lands strictly inside itself and
    # outside every other cell of the same slice
    for k, n in ((2, 4), (2, 5)):
        cells = hypersimplex_triangulation(k, n)
        for cell in cells:
            z = _interior_point(cell)
            for other in cells:
                lam = barycentric_coordinates(other.vertices, z)
                inside = lam is not None and all(c > 0 for c in lam)
                assert inside == (other is cell)


def _grid_points(n, k):
    for pt in product([F(i, 7) for i in range(1, 7)], repeat=n - 1):
        total = sum(pt)
        if k - 1 < total < k:
            yield pt


def test_chamber_coverage_on_grid():
    # points whose prefix-sum differences are all non-integral lie in
    # exactly one cell; walls are excluded from the sample
    for n in (3, 4, 5):
        for k in range(1, n):
            cells = hypersimplex_triangulation(k, n)
            for z in _grid_points(n, k):
                prefix = [F(0)]
                for x in z:
                    prefix.append(prefix[-1] + x)
                if any(
                    (prefix[b] - prefix[a]).denominator == 1
                    for a in range(n)
                    for b in range(a + 1, n)
                ):
                    continue
                hits = []
                for cell in cells:
                    lam = barycentric_coordinates(cell.vertices, z)
                    if lam is not None and all(c >= 0 for c in lam):
                        hits.append(cell.perm)
                assert len(hits) == 1, (n, k, z, hits)


def test_strip_triangulation_examples():
    single = BorderStrip((Box(1, 1),))
    assert len(strip_triangulation(single)) == 1
    ell = BorderStrip((Box(1, 1), Box(2, 1), Box(2, 2)))
    cells = strip_triangulation(ell)
    assert len(cells) == 2
    flat = BorderStrip((Box(1, 1), Box(2, 1), Box(3, 1)))
    assert len(strip_triangulation(flat)) == 1


def test_strip_cells_lie_in_strip_polytope():
    # every strip of at most 5 boxes is the border-strip region it fills
    regions = [
        region
        for region in all_regions(6, connected_only=True)
        if region.size > 1 and find_split(region) is None
    ]
    strips = [region_to_strip(region) for region in regions]
    assert sorted(s.direction_word for s in strips) == sorted(
        s.direction_word for s in all_strips(5)
    )
    for region, strip in zip(regions, strips):
        cells = strip_triangulation(strip)
        assert len(cells) == strip_volume(strip)
        rep = h_representation(region)
        for cell in cells:
            assert abs(cell.det) == 1
            for v in cell.vertices_lifted:
                assert all(c.holds(v) for c in rep.inequalities)
                assert all(c.holds(v) for c in rep.equalities)
            assert descent_set(inverse_permutation(cell.perm)) == strip.descents


def _fault_every_cell(monkeypatch, fault):
    """Pass each cell of ``verify``'s slice and strip routes through ``fault``."""
    for route in ("hypersimplex_triangulation", "strip_triangulation"):
        real = getattr(verify, route)
        monkeypatch.setattr(verify, route, lambda *args, real=real: [fault(c) for c in real(*args)])


def test_check_triangulation_fails_a_cell_that_is_not_unimodular(monkeypatch):
    # a doubled determinant is a recorded failure, not an exception
    tiny = dict(n_max=3, strip_max=1, roundtrip_n=2, samples=1)
    assert check_triangulation(**tiny).ok
    _fault_every_cell(monkeypatch, lambda cell: cell._replace(det=2 * cell.det))
    res = check_triangulation(**tiny)
    assert not res.ok
    assert "cell (1, 2) has determinant -2, not a unit" in res.failures
    assert all("determinant" in f for f in res.failures)


def test_check_triangulation_flags_a_vertex_off_the_cube(monkeypatch):
    tiny = dict(n_max=3, strip_max=1, roundtrip_n=2, samples=1)
    assert check_triangulation(**tiny).ok

    def pushed(cell):
        if len(cell.perm) < 2:
            return cell
        (a, b, *rest), *others = cell.vertices  # keep the coordinate sum
        return cell._replace(vertices=((a + 2, b - 2, *rest), *others))

    _fault_every_cell(monkeypatch, pushed)
    res = check_triangulation(**tiny)
    assert not res.ok
    assert res.failures and all("0/1 simplex" in f for f in res.failures)


def _strip(word):
    boxes = [Box(1, 1)]
    for step in word:
        c, r = boxes[-1]
        boxes.append(Box(c + 1, r) if step == "R" else Box(c, r + 1))
    return BorderStrip(tuple(boxes))


def test_generator_matches_the_scan_in_order():
    strips = all_strips(8)
    for d in range(0, 9):
        scan = scan_inverse_descents(d)
        for count in range(0, d):
            want = list(merge(*(ws for s, ws in scan.items() if len(s) == count)))
            assert [c.perm for c in hypersimplex_triangulation(count + 1, d + 1)] == want, (d, count)
        for strip in (s for s in strips if len(s) == d):
            got = list(inverse_descent_class(d, descents=strip.descents))
            assert got == scan[strip.descents], strip.direction_word


def test_random_long_strips():
    rng = random.Random(20121220)
    seen = 0
    while seen < 8:
        strip = _strip("".join(rng.choice("RU") for _ in range(rng.randint(9, 11))))
        size = strip_volume(strip)
        if size > 30000:  # keep the run short; the class is enumerated in full
            continue
        seen += 1
        perms = list(inverse_descent_class(len(strip), descents=strip.descents))
        assert len(perms) == size
        assert all(a < b for a, b in zip(perms, perms[1:]))
        assert all(descent_set(inverse_permutation(w)) == strip.descents for w in perms)
        assert all(sorted(w) == list(range(1, len(strip) + 1)) for w in perms)


def test_single_cell_extremes():
    (low,) = hypersimplex_triangulation(1, 12)
    assert low.perm == tuple(range(1, 12)) and abs(low.det) == 1
    (high,) = hypersimplex_triangulation(11, 12)
    assert high.perm == tuple(range(11, 0, -1)) and abs(high.det) == 1
    (row,) = strip_triangulation(_strip("R" * 11))
    assert row.perm == tuple(range(1, 13)) and abs(row.det) == 1
    (column,) = strip_triangulation(_strip("U" * 11))
    assert column.perm == tuple(range(12, 0, -1)) and abs(column.det) == 1


def test_signed_cells_beyond_the_sweep():
    # ``lpm verify all`` checks determinants against det_int only up to d = 6
    # and ``lpm triangulate`` prints abs(det), so a parity slip at larger d
    # shows only here: seeded cells of the slices (k, 8) to (k, 12) with at
    # most 5000 cells, and of seeded strips of 9 to 11 boxes
    rng = random.Random(20121222)
    drawn = []
    for n in range(8, 13):
        for k in range(1, n):
            if eulerian(k, n - 1) <= 5000:
                cells = hypersimplex_triangulation(k, n)
                assert len(cells) == eulerian(k, n - 1), (k, n)
                assert all(a.perm < b.perm for a, b in zip(cells, cells[1:])), (k, n)
                drawn += [(k, cell) for cell in rng.sample(cells, min(len(cells), 25))]
    strips = 0
    while strips < 6:
        strip = _strip("".join(rng.choice("RU") for _ in range(rng.randint(8, 10))))
        if strip_volume(strip) > 5000:
            continue
        strips += 1
        cells = strip_triangulation(strip)
        drawn += [(len(strip.descents) + 1, cell) for cell in rng.sample(cells, min(len(cells), 25))]
    assert {len(cell.perm) for _, cell in drawn} == set(range(7, 12))
    assert {cell.det for _, cell in drawn} == {-1, 1}
    for level, cell in drawn:
        assert cell.det == verify._edge_det(cell), cell.perm
        assert cell.vertices == verify._pullback_vertices(cell.perm), cell.perm
        assert cell.vertices_lifted == tuple(v + (level - sum(v),) for v in cell.vertices), cell.perm


def test_check_triangulation_flags_a_dropped_branch(monkeypatch):
    tiny = dict(n_max=5, strip_max=1, roundtrip_n=2, samples=1)
    assert check_triangulation(**tiny).ok
    real = triangulate._walk

    def pruned(d, descents):  # loses the subtree that starts with d
        return (leaf for leaf in real(d, descents) if not (d > 2 and leaf[0][0] == d))

    monkeypatch.setattr(triangulate, "_walk", pruned)
    res = check_triangulation(**tiny)
    assert not res.ok
    assert any("differ from the scan" in f for f in res.failures)


def test_check_triangulation_flags_a_wrong_determinant(monkeypatch):
    tiny = dict(n_max=4, strip_max=1, roundtrip_n=2, samples=1)
    assert check_triangulation(**tiny).ok

    def flipped(cell):  # one cell's sign is wrong, still a unit
        return cell._replace(det=-cell.det) if cell.perm == (2, 3, 1) else cell

    _fault_every_cell(monkeypatch, flipped)
    res = check_triangulation(**tiny)
    assert not res.ok
    assert "cell (2, 3, 1) determinant differs from det_int" in res.failures
    assert all("determinant differs from det_int" in f for f in res.failures)


@pytest.mark.parametrize(
    "route,message",
    [
        ("hypersimplex_triangulation", "vertices differ from the pull-back at (k,n)"),
        ("strip_triangulation", "strip cell differs from its slice twin on"),
    ],
    ids=("slices", "strips"),
)
def test_check_triangulation_flags_vertices_rotated_among_cells(monkeypatch, route, message):
    tiny = dict(n_max=5, strip_max=1, roundtrip_n=2, samples=1)
    assert check_triangulation(**tiny).ok
    real = getattr(verify, route)

    def rotated(*args):  # each cell takes the next cell's vertices: 0/1, in the slice
        cells = real(*args)
        moved = [cell.vertices for cell in cells[1:] + cells[:1]]
        return [cell._replace(vertices=v) for cell, v in zip(cells, moved)]

    monkeypatch.setattr(verify, route, rotated)
    res = check_triangulation(**tiny)
    assert not res.ok
    assert res.failures and all(message in f for f in res.failures)



def test_check_triangulation_checks_each_permutation_once(monkeypatch):
    # the slices (k, n) for n <= 7 and the strips of at most 6 boxes both
    # cover every permutation of length <= 6, 873 in all
    calls = []
    real = verify._pullback_vertices

    def counted(w):
        calls.append(w)
        return real(w)

    monkeypatch.setattr(verify, "_pullback_vertices", counted)
    assert check_triangulation(n_max=7, strip_max=1, roundtrip_n=2, samples=1).ok
    assert len(calls) == len(set(calls)) == 873


def test_check_triangulation_scans_each_length_once(monkeypatch):
    # the slices (k, n) for n <= 7 read lengths 1..6, the strip counts 1..4
    calls = []
    real = oracle.scan_inverse_descents

    def counted(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(oracle, "scan_inverse_descents", counted)
    assert check_triangulation(n_max=7, strip_max=4, roundtrip_n=2, samples=1).ok
    assert sorted(calls) == [1, 2, 3, 4, 5, 6]


def test_check_triangulation_sizes_its_strips_from_n_max(monkeypatch):
    # the strips of at most n_max - 1 = 3 boxes: 1 + 2 + 4 direction words
    calls = []
    real = verify.strip_triangulation

    def counted(strip):
        calls.append(strip)
        return real(strip)

    monkeypatch.setattr(verify, "strip_triangulation", counted)
    assert check_triangulation(n_max=4, strip_max=4, roundtrip_n=2, samples=1).ok
    assert len(calls) == 7
    assert sorted(len(strip) for strip in calls) == [1, 2, 2, 3, 3, 3, 3]


def test_check_triangulation_flags_strip_cells_unlike_their_verified_twins(monkeypatch):
    # every strip permutation has a slice twin at n_max = 7, and rotated
    # vertices make each cell differ from it
    real = verify.strip_triangulation

    def rotated(strip):
        cells = real(strip)
        moved = [cell.vertices for cell in cells[1:] + cells[:1]]
        return [cell._replace(vertices=v) for cell, v in zip(cells, moved)]

    monkeypatch.setattr(verify, "strip_triangulation", rotated)
    res = check_triangulation(n_max=7, strip_max=1, roundtrip_n=2, samples=1)
    assert not res.ok
    assert res.failures and all("strip cell differs from its slice twin on" in f for f in res.failures)
