"""Seeded random regions beyond the exhaustive sweeps, fast routes against oracles.

The sweeps in :mod:`lpmpoly.verify` stop at 6-9 elements.  Here a fixed
stdlib ``random`` seed draws connected regions of 9-16 elements and every
profile-bound route is replayed against its enumerative counterpart.  The
draw keeps regions with at most ``PATH_CAP`` paths and ``STRIP_CAP`` border
strips, so the affine-rank and inclusion-exclusion oracles stay at desk scale.
"""

import random
from itertools import combinations

import pytest

from lpmpoly import (
    border_strips,
    count_lattice_points,
    delete,
    edges,
    enumerate_paths,
    facets,
    vertices,
    volume,
)
from lpmpoly import oracle
from lpmpoly.errors import EmptyFace
from lpmpoly.paths import PathWord, Region, path_from_profile
from lpmpoly.polytope import facet_candidates

SEED = 20121220
COUNT = 40
PATH_CAP = 400
STRIP_CAP = 200


def _path_count(low, high):
    counts = {0: 1}
    for i in range(1, len(low)):
        counts = {
            h: counts.get(h, 0) + counts.get(h - 1, 0) for h in range(low[i], high[i] + 1)
        }
    return counts[low[-1]]


def random_regions(seed=SEED, count=COUNT):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = 9 + len(out) % 8  # five regions of each size 9..16
        r = rng.randint(1, n - 1)
        words = [rng.sample("N" * r + "E" * (n - r), n) for _ in range(2)]
        a, b = (PathWord("".join(w)).profile for w in words)
        low = tuple(map(min, a, b))
        high = tuple(map(max, a, b))
        if any(low[i] == high[i] for i in range(1, n)) or _path_count(low, high) > PATH_CAP:
            continue
        region = Region(path_from_profile(low), path_from_profile(high))
        if len(border_strips(region)) <= STRIP_CAP:
            out.append(region)
    return out


REGIONS = random_regions()


def test_draw_reaches_past_the_sweeps():
    sizes = {region.size for region in REGIONS}
    assert len(REGIONS) == COUNT
    assert sizes == set(range(9, 17))


@pytest.mark.parametrize("region", REGIONS, ids=repr)
def test_fast_routes_match_oracles(region):
    assert facets(region) == oracle.certify_facet_candidates(region, facet_candidates(region))
    assert volume(region) == sum(
        oracle.exact_descent_count(len(s), s.descents) for s in border_strips(region)
    )
    assert edges(region) == oracle.swap_edges(region)
    words = [p.word for p in enumerate_paths(region)]
    for i in range(1, region.size + 1):
        for value in (0, 1):
            want = oracle.projected_face(words, i, value)
            try:
                got = {p.word for p in enumerate_paths(delete(region, i, value))}
            except EmptyFace:
                got = set()
            assert got == want, (i, value)


@pytest.mark.parametrize("region", REGIONS, ids=repr)
def test_window_counts_match_stepwise_dp(region):
    for t in range(7):
        assert count_lattice_points(region, t) == oracle.stepwise_lattice_count(region, t), t


def test_window_counts_match_stepwise_dp_on_sweep():
    for region in oracle.all_regions(6):
        for t in range(6):
            assert count_lattice_points(region, t) == oracle.stepwise_lattice_count(region, t), (region, t)


def test_midpoint_oracle_matches_swap_edges():
    small = [region for region in REGIONS if len(vertices(region)) <= 40]
    assert len(small) >= 5
    for region in small:
        verts = vertices(region)
        swaps = set(oracle.swap_edges(region))
        for i, j in combinations(range(len(verts)), 2):
            assert oracle.brute_adjacent(verts, i, j) == ((i, j) in swaps), (region, i, j)
