"""Seeded random regions beyond the exhaustive sweeps, fast routes against oracles.

The sweeps in :mod:`lpmpoly.verify` stop at 6-9 elements.  Here a fixed
stdlib ``random`` seed draws connected regions of 9-16 elements and every
profile-bound route is replayed against its enumerative counterpart.  The
draw keeps regions with at most ``PATH_CAP`` paths and ``STRIP_CAP`` border
strips, so the affine-rank and inclusion-exclusion oracles stay at desk scale.
A second draw of 6-24 elements lets the paths touch, so disconnected
regions, loops and coloops come in; on it and the first, the enumeration
kernels (edges, bases, decomposition leaves) meet their oracles, and the
edges meet theirs on every region of at most 7 elements as well.
Wider draws of 14-36 elements check the lattice-point window sums and,
with direct sums of connected blocks, loops and coloops, the Ehrhart
polynomial read off half the dilations by reciprocity; rank-7 draws check
the Ehrhart double sum's transfer chain.
"""

import random
from functools import cache
from itertools import combinations, product
from operator import le

import pytest

from lpmpoly import (
    BorderStrip,
    Box,
    bases,
    border_strips,
    components,
    count_lattice_points,
    decomposition_tree,
    delete,
    dimension,
    edges,
    ehrhart_polynomial,
    enumerate_paths,
    facets,
    gamma_set,
    is_connected,
    region_from_words,
    vertices,
    volume,
)
from lpmpoly import oracle, paths
from lpmpoly.ehrhart import transfer_chain
from lpmpoly.errors import EmptyFace
from lpmpoly.paths import Region, path_from_profile, region_boxes
from lpmpoly.polytope import h_representation, tight_sets

from regions_reference import between_two_random_paths

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
        region = between_two_random_paths(rng, n)
        low, high = region.lower.profile, region.upper.profile
        if any(low[i] == high[i] for i in range(1, n)) or _path_count(low, high) > PATH_CAP:
            continue
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
    assert facets(region) == oracle.certify_facet_candidates(region, oracle.facet_candidates(region))
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
        assert count_lattice_points(region, t) == oracle.stepwise_count(region, t), t


def test_window_counts_match_stepwise_dp_on_sweep():
    for region in oracle.all_regions(6):
        for t in range(6):
            assert count_lattice_points(region, t) == oracle.stepwise_count(region, t), (region, t)


def touching_regions(seed=SEED, count=60):
    """Regions of 6-24 elements between two random paths, which may touch:
    disconnected ones, loops and coloops among them.  A draw with more than
    ``5 * PATH_CAP`` paths is drawn again, so the swap oracle stays at desk
    scale."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = 6 + len(out) % 19
        region = between_two_random_paths(rng, n)
        if _path_count(region.lower.profile, region.upper.profile) <= 5 * PATH_CAP:
            out.append(region)
    return out


TOUCHING = touching_regions()


def test_touching_draw_has_disconnected_regions_loops_and_coloops():
    kinds = [block.kind for region in TOUCHING for block in components(region).blocks]
    assert {"loop", "coloop"} <= set(kinds)
    assert sum(not is_connected(region) for region in TOUCHING) >= len(TOUCHING) // 2
    assert any(
        [block.kind for block in components(region).blocks].count("block") >= 2
        for region in TOUCHING
    )
    assert max(region.size for region in TOUCHING) == 24


def test_edges_match_the_swap_oracle_on_the_sweep():
    # every region of at most 7 elements, disconnected ones included: the edge
    # walk resumes behind touch points, loops and coloops at every position
    for region in oracle.all_regions(7):
        assert edges(region) == oracle.swap_edges(region), region


def _strips_by_block(region):
    """Box sets of the border strips of a direct sum, sorted: one strip of
    each connected block, shifted to where the block sits; the region's own
    strips when it is connected."""
    p, q = region.lower.profile, region.upper.profile
    choices = []
    for start, stop, kind in components(region).blocks:
        if kind != "block":
            continue
        base = p[start - 1]
        block = Region(*(
            path_from_profile(tuple(h - base for h in prof[start - 1 : stop + 1])) for prof in (p, q)
        ))
        shift = start - 1 - base
        strips = border_strips(block)
        choices.append([[Box(b.col + shift, b.row + base) for b in s.boxes] for s in strips])
    return sorted(sorted(sum(pick, [])) for pick in product(*choices))


@pytest.mark.parametrize("region", TOUCHING + REGIONS, ids=repr)
def test_enumeration_kernels_match_oracles(region):
    assert edges(region) == oracle.swap_edges(region)
    if region.size <= 12:  # the basis scan's cap
        assert {frozenset(b.support) for b in bases(region)} == oracle.brute_bases(region)
    strips = border_strips(region)
    assert strips == oracle.box_path_strips(region)
    assert all(BorderStrip(strip.boxes) == strip for strip in strips)
    leaves = decomposition_tree(region).leaves()
    want = _strips_by_block(region)
    assert sorted(sorted(region_boxes(leaf.region)) for leaf in leaves) == want
    if is_connected(region):
        assert want == sorted(list(s.boxes) for s in strips)


_all_paths = cache(oracle.all_paths)


def _paths_between(region):
    """The oracle's words with the region's step counts that stay between its
    bounding paths, in lexicographic order."""
    p, q = region.lower.profile, region.upper.profile
    return [
        path for path in _all_paths(region.m, region.r)
        if all(map(le, p, path.profile)) and all(map(le, path.profile, q))
    ]


def _assert_listings_match_oracles(region):
    want = _paths_between(region)
    assert [p.word for p in enumerate_paths(region)] == [p.word for p in want]
    listed = list(bases(region))
    assert [b.coords for b in listed] == [tuple(p.bits()) for p in want]
    assert [b.support for b in listed] == [p.north_positions() for p in want]
    assert vertices(region) == [b.coords for b in listed]
    if region.size <= oracle.BASES_CAP:
        assert {frozenset(b.support) for b in listed} == oracle.brute_bases(region)


MIDDLE = [region for region in REGIONS + TOUCHING if 10 <= region.size <= 14]


def test_middle_draw_splits_connected_and_touching_regions():
    assert {region.size for region in MIDDLE} == set(range(10, 15))
    assert min(region.size for region in MIDDLE) >= paths.MEET_MIN_SIZE
    assert {is_connected(region) for region in MIDDLE} == {True, False}


@pytest.mark.parametrize("region", MIDDLE, ids=repr)
def test_split_listings_match_oracles(region):
    _assert_listings_match_oracles(region)


def test_split_listings_match_oracles_on_the_sweep(monkeypatch):
    # every region of two or more elements split at n // 2, as from MEET_MIN_SIZE up
    monkeypatch.setattr(paths, "MEET_MIN_SIZE", 0)
    for region in oracle.all_regions(8):
        _assert_listings_match_oracles(region)
    for region in oracle.all_regions(7, connected_only=True):
        assert facets(region) == oracle.certify_facet_candidates(region, oracle.facet_candidates(region))


def _assert_tight_sets_match_scan(region):
    # the reference route: every vertex against every row
    rep = h_representation(region)
    rows = rep.equalities + rep.inequalities
    verts = vertices(region)
    want = [tuple(k for k, v in enumerate(verts) if c.tight(v)) for c in rows]
    assert tight_sets(region, rows) == want


@pytest.mark.parametrize("region", MIDDLE, ids=repr)
def test_split_tight_sets_match_the_vertex_scan(region):
    # from MEET_MIN_SIZE elements: whole blocks before the cut, tail selections after it
    _assert_tight_sets_match_scan(region)


def test_tight_sets_match_the_vertex_scan_on_the_sweep():
    # one walk, cut 0: every run ends after the cut
    for region in oracle.all_regions(7):
        _assert_tight_sets_match_scan(region)


LONG = [
    region_from_words("E" * 300 + "NN", "NN" + "E" * 300),  # a two-row band of 45 451 paths
    region_from_words("EN" * 600, "EN" * 600),  # a single path of 1200 steps
]


@pytest.mark.parametrize("region", LONG, ids=lambda region: f"{region.m}x{region.r}")
def test_long_listings_are_strictly_ordered_and_complete(region):
    words = [p.word for p in enumerate_paths(region)]
    assert all(a < b for a, b in zip(words, words[1:]))
    assert len(words) == count_lattice_points(region, 1)
    coords = [b.coords for b in bases(region)]
    assert all(a < b for a, b in zip(coords, coords[1:]))
    assert len(coords) == len(words)


def wide_regions(seed=SEED, count=8):
    """Regions of 14-36 elements whose paths may touch, so the admissible
    prefix sums can jump past the previous step's range."""
    rng = random.Random(seed)
    sizes = (14 + k * 22 // (count - 1) for k in range(count))
    return [between_two_random_paths(rng, n, rng.randint(n // 3, 2 * n // 3)) for n in sizes]


WIDE = wide_regions()


def test_wide_draw_covers_the_window_zones():
    # The range of prefix sums after step i is [t*p_i, t*q_i], so each end moves
    # by 0 or t: the top pins to the old hi when the upper path steps E, the
    # bottom zone shrinks to one entry when the lower path steps N, and the new
    # range starts past the old hi when both paths step N from a touch point.
    upper_e = lower_n = past_hi = False
    for region in WIDE:
        p, q = region.lower.profile, region.upper.profile
        for i in range(1, region.size + 1):
            upper_e |= q[i] == q[i - 1]
            lower_n |= p[i] == p[i - 1] + 1
            past_hi |= p[i] > q[i - 1]
    assert upper_e and lower_n and past_hi
    assert {region.size for region in WIDE} >= {14, 36}


@pytest.mark.parametrize("region", WIDE, ids=repr)
def test_window_counts_match_stepwise_dp_on_wide_regions(region):
    for t in (0, 1, 2, 7, 19):
        assert count_lattice_points(region, t) == oracle.stepwise_count(region, t), t


def direct_sums(seed=SEED, count=6):
    """A loop, a coloop and two to four connected blocks of 2-8 elements, in
    seeded order: 6-34 elements whose paths touch between every two pieces."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        pieces = [("E", "E"), ("N", "N")]
        while len(pieces) < 2 + rng.randint(2, 4):
            n = rng.randint(2, 8)
            block = between_two_random_paths(rng, n)
            if is_connected(block):
                pieces.append((block.lower.word, block.upper.word))
        rng.shuffle(pieces)
        out.append(region_from_words("".join(w for w, _ in pieces), "".join(w for _, w in pieces)))
    return out


SUMS = direct_sums()


def test_direct_sums_have_loops_coloops_and_blocks():
    for region in SUMS:
        kinds = [block.kind for block in components(region).blocks]
        assert kinds.count("loop") == kinds.count("coloop") == 1
        assert kinds.count("block") >= 2


@pytest.mark.parametrize("region", WIDE + SUMS, ids=repr)
def test_interior_counts_match_strict_stepwise_dp(region):
    for t in (0, 1, 2, 3, 7):
        want = oracle.stepwise_count(region, t, interior=True)
        assert count_lattice_points(region, t, interior=True) == want, t


@pytest.mark.parametrize("region", WIDE + SUMS, ids=repr)
def test_ehrhart_polynomial_matches_every_plain_dilation_and_reciprocity(region):
    # d + 1 plain counts fix a polynomial of degree d; the route under test
    # reads only those up to ceil(d/2), the rest through interior counts
    d = dimension(region)
    poly = ehrhart_polynomial(region)
    assert poly.degree == d
    assert [poly(t) for t in range(d + 1)] == [count_lattice_points(region, t) for t in range(d + 1)]
    for t in (1, 2, 3):
        assert count_lattice_points(region, t, interior=True) == (-1) ** d * poly(-t), t


def rank_seven_regions(seed=SEED, count=2):
    """Rank-7 regions of 10-12 elements with 5-30 windowed compositions, so the
    literal double sum (20 216 slack arrays at t = 2) stays at desk scale."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        region = between_two_random_paths(rng, rng.randint(10, 12), 7)
        if 5 <= len(gamma_set(region)) <= 30:
            out.append(region)
    return out


def test_transfer_chain_matches_literal_double_sum_on_sweep():
    for region in oracle.all_regions(6):
        compositions = gamma_set(region)
        for t in range(3 if region.size == 6 else 4):
            want = oracle.literal_double_sum(region.r, t, compositions)
            assert transfer_chain(region.r, t, compositions) == want, (region, t)


@pytest.mark.parametrize("region", rank_seven_regions(), ids=repr)
def test_transfer_chain_matches_literal_double_sum_at_rank_seven(region):
    assert region.r == 7
    compositions = gamma_set(region)
    for t in range(3):
        want = oracle.literal_double_sum(region.r, t, compositions)
        assert transfer_chain(region.r, t, compositions) == want, t


def test_midpoint_oracle_matches_swap_edges():
    small = [region for region in REGIONS if len(vertices(region)) <= 40]
    assert len(small) >= 5
    for region in small:
        verts = vertices(region)
        swaps = set(oracle.swap_edges(region))
        for i, j in combinations(range(len(verts)), 2):
            assert oracle.brute_adjacent(verts, i, j) == ((i, j) in swaps), (region, i, j)
