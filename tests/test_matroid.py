import random
from itertools import combinations, compress

import pytest

from lpmpoly import (
    bases,
    catalan_region,
    components,
    count_lattice_points,
    delete,
    enumerate_paths,
    is_independent,
    presentation,
    region_from_words,
)
from lpmpoly.errors import EmptyFace
from lpmpoly.matroid import BasisVector, IntervalPresentation
from lpmpoly.paths import PathWord, Region, path_from_profile, tighten_bounds
from lpmpoly.oracle import all_regions, brute_bases, brute_components


def test_presentation_examples():
    assert presentation(region_from_words("EENN", "NNEE")).intervals == ((1, 3), (2, 4))
    assert presentation(region_from_words("EENN", "NENE")).intervals == ((1, 3), (3, 4))
    assert presentation(region_from_words("EN", "EN")).intervals == ((2, 2),)


def test_is_basis_examples():
    square = brute_bases(region_from_words("EENN", "NNEE"))
    assert frozenset({1, 3}) in square
    assert frozenset({1, 2}) not in brute_bases(region_from_words("EENN", "NENE"))
    assert brute_bases(region_from_words("EN", "EN")) == {frozenset({2})}
    assert all(len(b) == 2 for b in square)


def test_is_independent_examples():
    pres = IntervalPresentation(((1, 3), (2, 4)))
    assert is_independent(pres, {2, 3})
    assert not is_independent(IntervalPresentation(((2, 2),)), {1})
    assert is_independent(IntervalPresentation(((1, 3), (3, 4))), {3})
    assert is_independent(pres, set())


def test_bases_examples():
    vecs = ["".join(map(str, b.coords)) for b in bases(region_from_words("EENN", "NENE"))]
    assert vecs == ["0011", "0101", "0110", "1001", "1010"]
    assert len(list(bases(region_from_words("EENN", "NNEE")))) == 6
    assert [b.coords for b in bases(region_from_words("EN", "EN"))] == [(0, 1)]


def path_derived_bases(region):
    """Basis vectors read off the enumerated paths: each word's 0/1 bytes,
    the support compressed out of the ground set by them."""
    ground = range(1, region.size + 1)
    return [
        BasisVector(coords, tuple(compress(ground, coords)))
        for coords in (tuple(path.bits()) for path in enumerate_paths(region))
    ]


def _random_region(rng, n):
    """The region of n elements between two random paths, which may touch."""
    r = rng.randint(1, n - 1)
    a, b = (PathWord("".join(rng.sample("N" * r + "E" * (n - r), n))).profile for _ in range(2))
    return Region(path_from_profile(tuple(map(min, a, b))), path_from_profile(tuple(map(max, a, b))))


def seeded_regions(seed=20121220, count=21, cap=20000):
    """Regions of 20-40 elements between two random paths, which may touch;
    a draw with more than ``cap`` paths is drawn again."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        region = _random_region(rng, 20 + len(out))
        if count_lattice_points(region, 1) <= cap:
            out.append(region)
    return out


def _assert_same_vectors(got, want):
    assert got == want
    for g, w in zip(got, want):
        assert type(g) is BasisVector and g._fields == ("coords", "support")
        assert type(g.coords) is tuple and type(g.support) is tuple
        assert all(type(x) is int for x in g.coords + g.support)
        assert repr(g) == repr(w) and hash(g) == hash(w)


def test_bases_match_the_path_derived_vectors_on_the_sweep():
    regions = list(all_regions(8))
    assert any(len(components(region).blocks) > 1 for region in regions)
    for region in regions:
        _assert_same_vectors(list(bases(region)), path_derived_bases(region))


def test_bases_match_the_path_derived_vectors_on_seeded_regions():
    regions = seeded_regions()
    assert [region.size for region in regions] == list(range(20, 41))
    assert any(len(components(region).blocks) > 1 for region in regions)
    for region in regions:
        _assert_same_vectors(list(bases(region)), path_derived_bases(region))


def test_basis_iff_independent_full_rank():
    for region in all_regions(8):
        pres = presentation(region)
        supports = {b.support for b in bases(region)}
        for subset in combinations(range(1, region.size + 1), region.r):
            expected = is_independent(pres, subset)
            assert (subset in supports) == expected


def test_independent_iff_subset_of_basis():
    for region in all_regions(6):
        pres = presentation(region)
        supports = [set(b.support) for b in bases(region)]
        for size in range(region.size + 1):
            for subset in combinations(range(1, region.size + 1), size):
                expected = any(set(subset) <= b for b in supports)
                assert is_independent(pres, subset) == expected


def test_basis_exchange():
    for region in all_regions(7):
        support_set = {frozenset(b.support) for b in bases(region)}
        supports = list(support_set)
        for b1 in supports:
            for b2 in supports:
                if b1 == b2:
                    continue
                for x in b1 - b2:
                    assert any(
                        (b1 - {x}) | {y} in support_set for y in b2 - b1
                    ), (region, b1, b2, x)


def test_components_examples():
    square = components(region_from_words("EENN", "NNEE"))
    assert square.count == 1 and square.blocks[0].kind == "block"
    cat = components(catalan_region(3))
    assert [(b.start, b.stop, b.kind) for b in cat.blocks] == [
        (1, 1, "loop"),
        (2, 5, "block"),
        (6, 6, "coloop"),
    ]
    pinched = components(region_from_words("ENEN", "NENE"))
    assert pinched.count >= 2  # paths touch at an interior point


def test_components_match_circuit_oracle():
    for region in all_regions(7):
        blocks = {
            frozenset(range(b.start, b.stop + 1))
            for b in components(region).blocks
        }
        assert blocks == set(brute_components(region))


def test_component_flags():
    for region in all_regions(6):
        supports = [set(b.support) for b in bases(region)]
        for block in components(region).blocks:
            if block.kind == "loop":
                assert all(block.start not in s for s in supports)
            elif block.kind == "coloop":
                assert all(block.start in s for s in supports)
            else:
                assert block.stop > block.start


def test_delete_examples():
    child = delete(region_from_words("EENN", "NNEE"), 1, 0)
    assert len(list(bases(child))) == 3
    child = delete(region_from_words("EN", "EN"), 2, 1)
    assert [b.coords for b in bases(child)] == [(0,)]
    with pytest.raises(EmptyFace):
        delete(region_from_words("EN", "EN"), 1, 1)  # element 1 is a loop


def test_delete_is_filter_and_project():
    for region in all_regions(7):
        if region.size == 1:
            continue
        paths = [p.word for p in enumerate_paths(region)]
        for i in range(1, region.size + 1):
            for value, letter in ((0, "E"), (1, "N")):
                expected = {
                    w[: i - 1] + w[i:] for w in paths if w[i - 1] == letter
                }
                if not expected:
                    with pytest.raises(EmptyFace):
                        delete(region, i, value)
                    continue
                child = delete(region, i, value)
                assert {p.word for p in enumerate_paths(child)} == expected


def delete_by_tightening(region, i, value):
    """The reference deletion: tighten the bounding profiles to the paths
    whose i-th letter is fixed, cut step i from both and rebuild the words."""
    if value not in (0, 1):
        raise ValueError("value must be 0 or 1")
    if region.size == 1:
        raise ValueError("cannot delete the last ground element")
    if not 1 <= i <= region.size:
        raise ValueError(f"coordinate {i} is outside 1..{region.size}")
    bounds = tighten_bounds(region.lower.profile, region.upper.profile, i, step="N" if value else "E")
    if bounds is None:
        raise EmptyFace(f"no basis has coordinate {i} equal to {value}")
    low, high = (prof[:i] + tuple([h - value for h in prof[i + 1 :]]) for prof in bounds)
    return Region(path_from_profile(low), path_from_profile(high))


def _outcome(route, *args):
    """Each bounding path's word, profile and endpoint and the size, or the
    exception's type and message."""
    try:
        region = route(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    paths = (region.lower, region.upper)
    return tuple((p.word, p.profile, p.m, p.r) for p in paths) + (region.size,)


def _assert_delete_matches_tightening(region, coordinates, values=(0, 1)):
    for i in coordinates:
        for value in values:
            want = _outcome(delete_by_tightening, region, i, value)
            assert _outcome(delete, region, i, value) == want, (region, i, value)


def test_delete_matches_tightening_on_the_sweep():
    for region in all_regions(8):
        _assert_delete_matches_tightening(region, range(1, region.size + 1))
    for region in all_regions(5):  # the argument checks, in their order
        _assert_delete_matches_tightening(region, range(region.size + 2), (0, 1, 2))


def test_delete_matches_tightening_on_large_regions():
    rng = random.Random(20121220)
    regions = [_random_region(rng, n) for n in range(30, 61, 2)]
    # The same draws opened by an E and closed by an N: touching only at the ends.
    regions += [region_from_words("E" + r.lower.word + "N", "N" + r.upper.word + "E") for r in regions]
    assert any(len(components(region).blocks) > 2 for region in regions)
    assert any(len(components(region).blocks) == 1 for region in regions)
    for region in regions + [_random_region(rng, 200) for _ in range(2)]:
        _assert_delete_matches_tightening(region, range(1, region.size + 1))
    for region in [_random_region(rng, 1200) for _ in range(2)]:
        _assert_delete_matches_tightening(region, [1, 2, 1199, 1200] + rng.sample(range(3, 1199), 40))
