import random
from fractions import Fraction
from itertools import combinations

import pytest

from lpmpoly import BorderStrip, Box, region_from_words, vertices
from lpmpoly.errors import TooLarge
from lpmpoly.oracle import (
    SWEEP_CAP,
    all_paths,
    all_regions,
    brute_adjacent,
    brute_bases,
    brute_components,
    brute_facets,
    brute_syt,
    gap_area_series,
)
from lpmpoly.ratlinalg import affine_rank, det_int, in_convex_hull, rank_int


def test_brute_bases_examples():
    assert len(brute_bases(region_from_words("EENN", "NENE"))) == 5
    assert brute_bases(region_from_words("EN", "EN")) == {frozenset({2})}
    assert len(brute_bases(region_from_words("EENN", "NNEE"))) == 6
    with pytest.raises(TooLarge):
        brute_bases(region_from_words("E" * 8 + "N" * 8, "N" * 8 + "E" * 8))


def test_brute_adjacent_on_octahedron():
    verts = vertices(region_from_words("EENN", "NNEE"))
    idx = {v: i for i, v in enumerate(verts)}
    antipodal = (idx[(1, 1, 0, 0)], idx[(0, 0, 1, 1)])
    near = (idx[(1, 1, 0, 0)], idx[(1, 0, 1, 0)])
    assert not brute_adjacent(verts, *antipodal)
    assert brute_adjacent(verts, *near)


def test_brute_facet_examples():
    assert len(brute_facets(region_from_words("EENN", "NENE"))) == 5
    assert len(brute_facets(region_from_words("EN", "NE"))) == 2
    assert len(brute_facets(region_from_words("EENN", "NNEE"))) == 8


def test_brute_syt_examples():
    assert brute_syt(BorderStrip((Box(1, 1),))) == 1
    assert brute_syt(BorderStrip((Box(1, 1), Box(2, 1), Box(2, 2)))) == 2
    assert brute_syt(BorderStrip((Box(1, 1), Box(1, 2)))) == 1


def test_brute_components_examples():
    assert brute_components(region_from_words("EENN", "NNEE")) == [
        frozenset({1, 2, 3, 4})
    ]
    cat3 = region_from_words("EEENNN", "ENENEN")
    assert brute_components(cat3) == [
        frozenset({1}),
        frozenset({2, 3, 4, 5}),
        frozenset({6}),
    ]
    assert brute_components(region_from_words("EN", "EN")) == [
        frozenset({1}),
        frozenset({2}),
    ]


def test_all_paths_and_regions():
    assert [p.word for p in all_paths(1, 1)] == ["EN", "NE"]
    regions = list(all_regions(2))
    assert len(regions) == 2 + 5  # sizes 1 and 2
    assert len(list(all_regions(2, connected_only=True))) < len(regions)
    assert next(all_regions(SWEEP_CAP)).size == 1
    with pytest.raises(TooLarge, match=f"region sweep is capped at {SWEEP_CAP} ground elements"):
        next(all_regions(SWEEP_CAP + 1))


def test_gap_area_series_values():
    series = gap_area_series(4)
    assert series[0] == 0
    assert series[1] == Fraction(1, 2)
    assert series[2] == 3
    assert series[3] == Fraction(29, 2)


def test_rank_helpers():
    assert rank_int([(1, 0), (0, 1), (1, 1)]) == 2
    assert rank_int([(2, 4), (1, 2)]) == 1
    assert rank_int([]) == 0
    assert affine_rank([(0, 0), (1, 0), (0, 1)]) == 2
    assert affine_rank([(5, 5)]) == 0
    assert affine_rank([]) == -1
    assert det_int([[1, 2], [3, 4]]) == -2
    assert det_int([]) == 1


def test_in_convex_hull():
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert in_convex_hull(square, (Fraction(1, 2), Fraction(1, 2)))
    assert in_convex_hull(square, (Fraction(1, 3), Fraction(2, 3)))
    assert not in_convex_hull(square, (Fraction(3, 2), Fraction(1, 2)))
    assert in_convex_hull([(0, 0)], (Fraction(0), Fraction(0)))
    assert not in_convex_hull([], (Fraction(0),))


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _point_set(rng, kind, dim):
    if kind == "single":
        return [tuple(rng.randint(-3, 3) for _ in range(dim))]
    if kind == "collinear":
        base = [rng.randint(-2, 2) for _ in range(dim)]
        step = [rng.randint(-2, 2) for _ in range(dim)]
        step[rng.randrange(dim)] = rng.choice((-1, 1, 2))
        ks = rng.sample(range(-3, 4), rng.randint(2, 5))
        return [tuple(b + k * s for b, s in zip(base, step)) for k in ks]
    points = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(2, 9))]
    if kind == "duplicates":
        points += rng.choices(points, k=rng.randint(1, 4))
        rng.shuffle(points)
    return points


def test_in_convex_hull_against_certificates():
    """Seeded point sets; each answer is certified without a second LP.

    An explicit rational convex combination of the points is in the hull.
    A point past a separating integer functional c (c.t > max c.p) is not:
    it is the combination moved along c until c.t = max c.p + 1/q.
    """
    rng = random.Random(20121220)
    kinds = ("general", "duplicates", "collinear", "single")
    denominators = set()
    for trial in range(800):
        dim = rng.randint(1, 5)
        points = _point_set(rng, kinds[trial % 4], dim)
        weights = [rng.randint(0, 6) for _ in points]
        weights[rng.randrange(len(points))] += 1
        total = sum(weights)
        inside = [
            Fraction(sum(w * p[d] for w, p in zip(weights, points)), total) for d in range(dim)
        ]
        denominators.update(x.denominator for x in inside)
        assert in_convex_hull(points, inside), (points, inside)
        assert in_convex_hull(points, rng.choice(points))  # plain int target
        c = [rng.randint(-3, 3) for _ in range(dim)]
        c[rng.randrange(dim)] = rng.choice((-2, -1, 1, 3))
        top = max(_dot(c, p) for p in points)
        norm = _dot(c, c)
        step = (top - _dot(c, inside)) / norm + Fraction(1, rng.randint(1, 9) * norm)
        outside = [x + step * ci for x, ci in zip(inside, c)]
        assert _dot(c, outside) > top
        denominators.update(x.denominator for x in outside)
        assert not in_convex_hull(points, outside), (points, outside, c)
    assert len(denominators - {1, 2}) > 5


def _fraction_rank(rows):
    """Gauss-Jordan rank over ``Fraction``: the reference for ``rank_int``."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((k for k in range(rank, len(work)) if work[k][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        top = work[rank]
        for k, row in enumerate(work):
            if k != rank and row[col]:
                f = row[col] / top[col]
                work[k] = [a - f * b for a, b in zip(row, top)]
        rank += 1
    return rank


RANK_WITNESS = [[0, 0, -1, 1, 1], [0, 0, 0, -1, 1], [1, -1, 1, 0, -1], [1, 1, -1, -1, 1], [0, 0, -1, 0, 1]]


def test_rank_int_rescales_rows_with_a_zero_pivot_entry():
    # the second pivot (column 1) is 2; the rows with 0 there must be
    # doubled, or the next step's division by 2 truncates a row to zero
    assert _fraction_rank(RANK_WITNESS) == 5
    assert rank_int(RANK_WITNESS) == 5
    assert rank_int(RANK_WITNESS, cap=4) == 5


def test_rank_int_matches_fraction_reference():
    rng = random.Random(20121220)
    for trial in range(3000):
        rows = [[rng.randint(-3, 3) for _ in range(rng.randint(1, 6))]]
        rows += [[rng.randint(-3, 3) for _ in rows[0]] for _ in range(rng.randint(0, 6))]
        want = _fraction_rank(rows)
        assert rank_int(rows) == want, rows
        cap = rng.randint(0, 6)
        assert rank_int(rows, cap=cap) == (want if want <= cap else cap + 1), (rows, cap)


def _fraction_det(rows):
    """Gaussian elimination over ``Fraction``: the reference for ``det_int``."""
    work = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(len(work)):
        pivot = next((k for k in range(col, len(work)) if work[k][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        top = work[col]
        det *= top[col]
        for k in range(col + 1, len(work)):
            f = work[k][col] / top[col]
            work[k] = [a - f * b for a, b in zip(work[k], top)]
    return det


def test_det_int_matches_fraction_reference():
    rng = random.Random(20121223)
    singular = zero_rows = swapped = 0
    for trial in range(3000):
        n = rng.randint(0, 6)
        rows = [[rng.choice((-3, -1, 0, 0, 0, 1, 2, 5)) for _ in range(n)] for _ in range(n)]
        if n >= 2 and trial % 5 == 0:  # a repeated row
            i, j = rng.sample(range(n), 2)
            rows[i] = list(rows[j])
        if n and trial % 7 == 0:
            rows[rng.randrange(n)] = [0] * n
            zero_rows += 1
        want = _fraction_det(rows)
        assert det_int(rows) == want, rows
        singular += want == 0
        swapped += n > 0 and rows[0][0] == 0 and want != 0  # the first pivot needs a row swap
    assert singular > 500 and zero_rows > 300 and swapped > 200


def test_affine_rank_matches_fraction_reference():
    rng = random.Random(20121221)
    for trial in range(2000):
        dim = rng.randint(1, 7)
        points = [tuple(rng.randint(0, 1) for _ in range(dim)) for _ in range(rng.randint(1, 12))]
        want = _fraction_rank([[a - b for a, b in zip(p, points[0])] for p in points[1:]] or [[0]])
        assert affine_rank(points) == want, points
        cap = rng.randint(0, dim)
        assert affine_rank(points, cap=cap) == (want if want <= cap else cap + 1), (points, cap)


def test_brute_adjacent_matches_hull_of_all_other_vertices():
    """The cube-face restriction against the unrestricted midpoint test on
    every vertex pair of every region of at most 6 elements."""
    pairs = 0
    for region in all_regions(6):
        verts = vertices(region)
        if len(verts) > 40:
            continue
        for i, j in combinations(range(len(verts)), 2):
            mid = [Fraction(a + b, 2) for a, b in zip(verts[i], verts[j])]
            others = [v for k, v in enumerate(verts) if k not in (i, j)]
            assert brute_adjacent(verts, i, j) == (not in_convex_hull(others, mid)), (region, i, j)
            pairs += 1
    assert pairs == 7927


def test_brute_adjacent_runs_the_lp_on_a_crowded_face():
    """Vertices 0 and 1 agree on the last coordinate; four others share that
    face with no two of them mirror images through the midpoint, so only the
    LP decides.  Their average is the midpoint; drop one and it escapes."""
    face = [(0, 0, 0, 1, 0), (0, 1, 1, 0, 0), (1, 0, 1, 0, 0), (1, 1, 0, 1, 0)]
    off_face = [(1, 1, 1, 1, 1), (0, 0, 0, 0, 1)]
    verts = [(0, 0, 0, 0, 0), (1, 1, 1, 1, 0)] + face + off_face
    assert not brute_adjacent(verts, 0, 1)
    fewer = verts[:5] + off_face
    assert brute_adjacent(fewer, 0, 1)
    mid = [Fraction(1, 2)] * 4 + [Fraction(0)]
    assert in_convex_hull(verts[2:], mid) and not in_convex_hull(fewer[2:], mid)
