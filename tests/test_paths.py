import random

import pytest

from lpmpoly import (
    Box,
    PathWord,
    Region,
    catalan_edge_formula,
    catalan_region,
    enumerate_paths,
    intersection_vertices,
    rectangle_region,
    region_boxes,
    region_from_words,
)
from lpmpoly.errors import DominanceViolation, EmptyWord, EndpointMismatch, InvalidCharacter
from lpmpoly.oracle import all_regions
from lpmpoly.paths import area_below, path_from_profile, tighten_bounds
from math import comb


def test_parse_basic():
    p = PathWord("EENN")
    assert (p.m, p.r) == (2, 2)
    assert p.profile == (0, 0, 0, 1, 2)
    assert PathWord("N").m == 0
    assert PathWord("N").r == 1


def test_parse_errors():
    with pytest.raises(InvalidCharacter) as err:
        PathWord("EXN")
    assert err.value.position == 2
    with pytest.raises(EmptyWord):
        PathWord("")


def test_region_validation():
    Region(PathWord("EENN"), PathWord("NNEE"))
    Region(PathWord("EENN"), PathWord("NENE"))
    with pytest.raises(DominanceViolation) as err:
        Region(PathWord("NENE"), PathWord("EENN"))
    assert err.value.position == 1
    with pytest.raises(EndpointMismatch):
        Region(PathWord("EN"), PathWord("NNE"))


def test_dominance_violation_names_the_first_step_above():
    with pytest.raises(DominanceViolation) as err:
        Region(PathWord("EENNNE"), PathWord("ENEENN"))
    assert err.value.position == 4


def test_path_from_profile_wraps_the_profile_it_is_given():
    for n in range(1, 9):
        for r in range(n + 1):
            for path in enumerate_paths(rectangle_region(n - r, r)):
                rebuilt = path_from_profile(path.profile)
                parsed = PathWord(rebuilt.word)
                assert rebuilt == path
                assert (rebuilt.profile, rebuilt.m, rebuilt.r) == (parsed.profile, parsed.m, parsed.r)
    assert path_from_profile([0, 1, 1]).profile == (0, 1, 1)
    for bad in ((0, 2), (0, 1, 0), (0, -1), (0, 300), (1, 1, 2)):
        with pytest.raises(ValueError):
            path_from_profile(bad)
    with pytest.raises(EmptyWord):
        path_from_profile((0,))


@pytest.mark.parametrize(
    "lower,upper,expected",
    [
        ("EENN", "NNEE", 6),
        ("EENN", "NENE", 5),
        ("EN", "EN", 1),
    ],
)
def test_enumerate_counts(lower, upper, expected):
    assert len(enumerate_paths(region_from_words(lower, upper))) == expected


def test_enumerate_words_and_order():
    words = [p.word for p in enumerate_paths(region_from_words("EENN", "NENE"))]
    assert words == ["EENN", "ENEN", "ENNE", "NEEN", "NENE"]
    assert words == sorted(words)


def test_enumerate_order_sweep_and_long_path():
    for region in all_regions(6):
        words = [p.word for p in enumerate_paths(region)]
        assert words == sorted(set(words))
    word = "EN" * 600  # deeper than the default recursion limit
    assert [p.word for p in enumerate_paths(region_from_words(word, word))] == [word]


def test_intersection_vertices():
    assert intersection_vertices(region_from_words("EENN", "NNEE")) == [(0, 0), (2, 2)]
    assert intersection_vertices(region_from_words("EENN", "NENE")) == [(0, 0), (2, 2)]
    assert len(intersection_vertices(region_from_words("ENEN", "ENEN"))) == 5


@pytest.mark.parametrize(
    "word,area", [("EENN", 0), ("ENEN", 1), ("NENE", 3), ("NNEE", 4)]
)
def test_area_below(word, area):
    assert area_below(PathWord(word)) == area


def test_area_below_matches_box_scan():
    # independent oracle: count boxes under the path directly
    for region in all_regions(6):
        for path in enumerate_paths(region):
            single = Region(PathWord("E" * path.m + "N" * path.r), path)
            assert area_below(path) == len(region_boxes(single))


def test_region_boxes():
    assert region_boxes(region_from_words("EENN", "NNEE")) == (
        Box(1, 1),
        Box(1, 2),
        Box(2, 1),
        Box(2, 2),
    )
    assert region_boxes(region_from_words("EENN", "NENE")) == (
        Box(1, 1),
        Box(2, 1),
        Box(2, 2),
    )
    assert region_boxes(region_from_words("EN", "EN")) == ()


def test_sandwich_property():
    for region in all_regions(5):
        for path in enumerate_paths(region):
            Region(region.lower, path)
            Region(path, region.upper)


def test_rectangle_counts_binomial():
    for n in range(1, 11):
        for r in range(n + 1):
            paths = enumerate_paths(rectangle_region(n - r, r))
            assert len(paths) == comb(n, r)


def test_dyck_area_total_matches_closed_form():
    for n in range(1, 8):
        total = sum(area_below(p) for p in enumerate_paths(catalan_region(n)))
        assert total == catalan_edge_formula(n)


def test_region_boxes_monotone_under_widening():
    for region in all_regions(5):
        for wider in all_regions(5):
            if (region.m, region.r) != (wider.m, wider.r):
                continue
            lo_ok = all(
                a <= b
                for a, b in zip(wider.lower.profile, region.lower.profile)
            )
            hi_ok = all(
                a <= b
                for a, b in zip(region.upper.profile, wider.upper.profile)
            )
            if lo_ok and hi_ok:
                assert set(region_boxes(region)) <= set(region_boxes(wider))


def _two_pass_tighten(low, high, i, step=None, height=None):
    """The reference closure: one full forward and one full backward pass."""
    n = len(low) - 1
    lo, hi = list(low), list(high)
    if height is not None:
        lo[i] = max(lo[i], height)
        hi[i] = min(hi[i], height)
        fixed_min, fixed_max = 0, 1
    else:
        fixed_min = fixed_max = 1 if step == "N" else 0
    for j in range(1, n + 1):
        rise_min, rise_max = (fixed_min, fixed_max) if j == i else (0, 1)
        lo[j] = max(lo[j], lo[j - 1] + rise_min)
        hi[j] = min(hi[j], hi[j - 1] + rise_max)
    for j in range(n - 1, -1, -1):
        rise_min, rise_max = (fixed_min, fixed_max) if j + 1 == i else (0, 1)
        lo[j] = max(lo[j], lo[j + 1] - rise_max)
        hi[j] = min(hi[j], hi[j + 1] - rise_min)
    if any(a > b for a, b in zip(lo, hi)):
        return None
    return tuple(lo), tuple(hi)


def _tighten_mismatches(region):
    """Calls on which the local closure and the reference differ: both
    letters at every step, and every height from -1 to r + 1."""
    low, high = region.lower.profile, region.upper.profile
    bad = []
    for i in range(1, region.size + 1):
        fixes = [{"step": s} for s in "EN"] + [{"height": h} for h in range(-1, region.r + 2)]
        for fix in fixes:
            if tighten_bounds(low, high, i, **fix) != _two_pass_tighten(low, high, i, **fix):
                bad.append((region, i, fix))
    return bad


def test_local_tighten_bounds_matches_two_full_passes_on_sweep():
    assert [bad for region in all_regions(7) for bad in _tighten_mismatches(region)] == []


def test_local_tighten_bounds_matches_two_full_passes_on_wide_regions():
    """Seeded regions of 30-60 elements between two random paths, which may touch."""
    rng = random.Random(20121220)
    touching = 0
    for trial in range(12):
        n = rng.randint(30, 60)
        r = rng.randint(1, n - 1)
        a, b = (PathWord("".join(rng.sample("N" * r + "E" * (n - r), n))).profile for _ in "ab")
        region = Region(
            path_from_profile(tuple(map(min, a, b))), path_from_profile(tuple(map(max, a, b)))
        )
        touching += len(intersection_vertices(region)) > 2
        assert _tighten_mismatches(region) == []
    assert touching >= 3


def test_tighten_bounds_rejects_a_free_or_doubly_fixed_step():
    region = region_from_words("EENN", "NNEE")
    low, high = region.lower.profile, region.upper.profile
    for bad in ({}, {"step": "N", "height": 1}):
        with pytest.raises(ValueError):
            tighten_bounds(low, high, 1, **bad)
    with pytest.raises(ValueError):
        tighten_bounds(low, high, 0, step="E")
