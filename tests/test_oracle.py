import random
from fractions import Fraction

import pytest

from lpmpoly import BorderStrip, Box, region_from_words, vertices
from lpmpoly.errors import TooLarge
from lpmpoly.oracle import (
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
