import importlib
import inspect
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial

import pytest

from lpmpoly import (
    BorderStrip,
    Box,
    catalan_area,
    catalan_number,
    ehrhart_polynomial,
    eulerian,
    hypersimplex_region,
    region_from_words,
    strip_volume,
    volume,
)
from lpmpoly.errors import DisconnectedRegion
from lpmpoly.oracle import all_regions, descent_set, exact_descent_count, gap_area_series
from lpmpoly.paths import PathWord, path_from_profile, region_boxes
from lpmpoly.verify import all_strips, check_catalan_area, check_volume

from fillings_reference import box_fillings

volume_module = importlib.import_module("lpmpoly.volume")  # the package binds the name to the function


def brute_descent_count(n, target):
    target = frozenset(target)
    return sum(
        1 for w in permutations(range(1, n + 1)) if descent_set(w) == target
    )


@pytest.mark.parametrize(
    "n,descents,expected",
    [(3, (), 1), (3, (1,), 2), (3, (1, 2), 1), (4, (2,), 5)],
)
def test_exact_descent_count_values(n, descents, expected):
    assert exact_descent_count(n, descents) == expected


def test_exact_descent_count_matches_brute_force():
    for n in range(1, 8):
        for size in range(n):
            for d in combinations(range(1, n), size):
                assert exact_descent_count(n, d) == brute_descent_count(n, d)


def test_descent_count_reversal_symmetry():
    for n in range(1, 9):
        full = set(range(1, n))
        for size in range(n):
            for d in combinations(sorted(full), size):
                assert exact_descent_count(n, d) == exact_descent_count(
                    n, full - set(d)
                )


def test_descent_classes_total_eulerian():
    for n in range(1, 9):
        for k in range(1, n + 1):
            total = sum(
                exact_descent_count(n, d)
                for d in combinations(range(1, n), k - 1)
            )
            assert total == eulerian(k, n)


def test_eulerian_values():
    assert eulerian(1, 3) == 1
    assert eulerian(2, 3) == 4
    for n in range(1, 9):
        assert sum(eulerian(k, n) for k in range(1, n + 1)) == factorial(n)


def test_eulerian_deep_row_matches_alternating_sum():
    # 1200 rows deep, past the default recursion limit
    explicit = sum((-1) ** j * comb(1201, j) * (3 - j) ** 1200 for j in range(4))
    assert eulerian(3, 1200) == explicit
    with pytest.raises(ValueError):
        eulerian(4, 3)


def test_strip_volume_examples():
    assert strip_volume(BorderStrip((Box(1, 1),))) == 1
    ell = BorderStrip((Box(1, 1), Box(2, 1), Box(2, 2)))
    assert strip_volume(ell) == 2
    flat = BorderStrip((Box(1, 1), Box(2, 1), Box(3, 1)))
    assert strip_volume(flat) == 1


def test_strip_volume_matches_inclusion_exclusion():
    assert strip_volume(BorderStrip(())) == 1
    for strip in all_strips(10):
        assert strip_volume(strip) == exact_descent_count(len(strip), strip.descents)


def zigzag_number(n):
    """Alternating permutations of [n], by the Seidel-Entringer boustrophedon."""
    row = [1]
    for m in range(1, n + 1):
        nxt = [0]
        for k in range(1, m + 1):
            nxt.append(nxt[-1] + row[m - k])
        row = nxt
    return row[-1]


def test_long_zigzag_strip_is_an_euler_number():
    assert [zigzag_number(n) for n in range(9)] == [1, 1, 1, 2, 5, 16, 61, 272, 1385]
    # R, U, R, ..., R: descents at the even positions, w1 < w2 > w3 < ... < w40
    boxes = [Box(1, 1)]
    for step in "RU" * 19 + "R":
        col, row = boxes[-1]
        boxes.append(Box(col + 1, row) if step == "R" else Box(col, row + 1))
    strip = BorderStrip(tuple(boxes))
    assert len(strip) == 40 and strip.descents == frozenset(range(2, 40, 2))
    assert strip_volume(strip) == zigzag_number(40)


def test_volume_examples():
    assert volume(region_from_words("EENN", "NENE")) == 2
    assert volume(region_from_words("EENN", "NNEE")) == 4
    assert volume(region_from_words("EN", "NE")) == 1
    with pytest.raises(DisconnectedRegion):
        volume(region_from_words("ENEN", "ENEN"))


def test_hypersimplex_volumes_are_eulerian():
    for n in range(2, 9):
        for k in range(1, n):
            assert volume(hypersimplex_region(k, n)) == eulerian(k, n - 1)


def test_volume_matches_leading_coefficient():
    for region in all_regions(7, connected_only=True):
        assert volume(region) == ehrhart_polynomial(region).normalized_volume


def test_catalan_area_values():
    assert catalan_area(1) == Fraction(1, 2)
    assert catalan_area(2) == 3
    assert catalan_area(3) == Fraction(29, 2)
    assert check_catalan_area(12).ok  # closed form against the first-return recurrence


def test_catalan_area_series():
    series = gap_area_series(10)
    for n in range(11):
        assert series[n] == catalan_area(n)


def test_catalan_numbers():
    assert [catalan_number(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def connected_regions(seed=20, sizes=(30, 45, 60, 80, 100, 130, 160, 200)):
    """One seeded connected region per size: the region between two random
    paths on n - 2 elements, its lower path led by an E step and closed by
    an N step, its upper path led by an N step and closed by an E step, so
    the two touch at the ends alone."""
    rng = random.Random(seed)
    out = []
    for n in sizes:
        r = rng.randint(2, n - 2)
        a, b = (PathWord("".join(rng.sample("N" * (r - 1) + "E" * (n - r - 1), n - 2))).profile for _ in range(2))
        low, high = path_from_profile(tuple(map(min, a, b))), path_from_profile(tuple(map(max, a, b)))
        out.append(region_from_words("E" + low.word + "N", "N" + high.word + "E"))
    return out


def test_volume_matches_the_box_dict_reference_on_the_sweep():
    regions = list(all_regions(9, connected_only=True))
    assert len(regions) == 2057
    for region in regions:
        assert volume(region) == box_fillings(region_boxes(region)), region


def test_strip_volume_matches_the_box_dict_reference():
    strips = all_strips(12)
    assert len(strips) == 4095
    for strip in [BorderStrip(())] + strips:
        assert strip_volume(strip) == box_fillings(strip.boxes), strip.direction_word


def test_volume_matches_the_box_dict_reference_on_seeded_large_regions():
    regions = connected_regions()
    assert [region.size for region in regions] == [30, 45, 60, 80, 100, 130, 160, 200]
    for region in regions:
        assert volume(region) == box_fillings(region_boxes(region)), region


def test_volume_edge_cases():
    boxless = region_from_words("E", "E")
    assert region_boxes(boxless) == ()
    assert volume(boxless) == box_fillings(()) == 1
    assert volume(region_from_words("N", "N")) == 1
    with pytest.raises(DisconnectedRegion):
        volume(region_from_words("ENEN", "NENE"))  # the paths touch at (1, 1)


# The fault drops the West term of every box with both neighbours in the
# last column: those boxes keep only the suffix sums from the South.
BOTH_TERMS = "if left else below"
WEST_DROPPED = "if left and high < hi[-1] else below"


def test_check_volume_catches_a_dropped_west_term(monkeypatch):
    assert check_volume(max_size=5, rectangle_max=5, strip_max=5).ok
    source = inspect.getsource(volume_module._fillings)
    assert source.count(BOTH_TERMS) == 1
    namespace = dict(vars(volume_module))
    exec(source.replace(BOTH_TERMS, WEST_DROPPED), namespace)
    monkeypatch.setattr(volume_module, "_fillings", namespace["_fillings"])
    assert volume(region_from_words("EENN", "NNEE")) != 4
    assert not check_volume(max_size=5, rectangle_max=5, strip_max=5).ok
