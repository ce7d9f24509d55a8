import inspect
import random
import sys
from fractions import Fraction
from itertools import accumulate
from math import lcm

import pytest

from lpmpoly import (
    EhrhartPolynomial,
    PathWord,
    Region,
    bases,
    catalan_region,
    count_lattice_points,
    dimension,
    ehrhart_polynomial,
    gamma_set,
    rectangle_region,
    reconcile_ehrhart_formula,
    reduced_catalan_region,
    region_from_words,
)
from lpmpoly import ehrhart as eh
from lpmpoly import oracle
from lpmpoly.ehrhart import GammaBounds, basis_fold, formula_value, gamma_bounds, multichoose
from lpmpoly.oracle import all_regions, s_set
from lpmpoly.paths import path_from_profile
from lpmpoly.verify import build_errata_report, check_ehrhart


def test_count_lattice_points_examples():
    assert count_lattice_points(region_from_words("EENN", "NNEE"), 0) == 1
    assert count_lattice_points(region_from_words("EN", "NE"), 3) == 4
    assert count_lattice_points(region_from_words("EENN", "NNEE"), 1) == 6


def test_count_against_direct_enumeration():
    # independent oracle: scan the integer box directly
    from itertools import product

    for region in all_regions(4):
        n = region.size
        p, q = region.lower.profile, region.upper.profile
        for t in range(4):
            direct = 0
            for pt in product(range(t + 1), repeat=n):
                c = 0
                ok = True
                for i, x in enumerate(pt, start=1):
                    c += x
                    if not t * p[i] <= c <= t * q[i]:
                        ok = False
                        break
                direct += ok
            assert count_lattice_points(region, t) == direct


def test_ehrhart_polynomial_examples():
    seg = ehrhart_polynomial(region_from_words("EN", "NE"))
    assert seg.coeffs == (Fraction(1), Fraction(1))
    octa = ehrhart_polynomial(region_from_words("EENN", "NNEE"))
    assert octa(1) == 6
    assert octa.normalized_volume == 4
    ell = ehrhart_polynomial(region_from_words("EENN", "NENE"))
    assert ell(1) == 5
    assert ell.normalized_volume == 2


def test_ehrhart_values_on_sweep():
    for region in all_regions(6):
        poly = ehrhart_polynomial(region)
        assert poly(0) == 1
        assert poly(1) == len(list(bases(region)))


def test_polynomial_takes_its_common_denominator_once(monkeypatch):
    region = region_from_words("EEENNN", "NENENE")
    poly = ehrhart_polynomial(region)
    calls = []

    def counted_lcm(*args):
        calls.append(args)
        return lcm(*args)

    monkeypatch.setattr(eh, "lcm", counted_lcm)
    assert [poly(t) for t in range(6)] == [count_lattice_points(region, t) for t in range(6)]
    assert [poly(t) for t in range(-3, 0)] == [
        (-1) ** poly.degree * count_lattice_points(region, -t, interior=True) for t in range(-3, 0)
    ]
    assert len(calls) == 1


def test_ehrhart_polynomial_counts_d_plus_one_dilations(monkeypatch):
    # d+1 counts in all: plain at t = 0..ceil(d/2), interior at t = 1..floor(d/2)
    calls = []

    def counting(region, t, interior=False):
        calls.append((t, interior))
        return count_lattice_points(region, t, interior)

    monkeypatch.setattr(eh, "count_lattice_points", counting)
    pairs = (("ENEN", "ENEN"), ("EN", "NE"), ("EENN", "NNEE"), ("EEENNN", "NENENE"), ("EEENNN", "NNNEEE"))
    for lower, upper in pairs:
        region = region_from_words(lower, upper)
        d = dimension(region)
        calls.clear()
        ehrhart_polynomial(region)
        assert sorted(t for t, interior in calls if not interior) == list(range((d + 1) // 2 + 1))
        assert sorted(t for t, interior in calls if interior) == list(range(1, d // 2 + 1))


def test_interior_counts_examples():
    octahedron = region_from_words("EENN", "NNEE")  # d = 3: L(-t) = -L°(t)
    poly = ehrhart_polynomial(octahedron)
    assert [count_lattice_points(octahedron, t, interior=True) for t in range(5)] == [0, 0, 1, 6, 19]
    assert [-poly(-t) for t in range(1, 5)] == [0, 1, 6, 19]
    # a loop, a segment, a coloop and a triangle: the forced steps and the
    # touch points stay equalities, so L°(t) = (t - 1) * C(t - 1, 2)
    split = region_from_words("EENNEEN", "ENENNEE")
    assert [count_lattice_points(split, t, interior=True) for t in range(1, 5)] == [0, 0, 2, 9]
    single = region_from_words("N", "N")
    assert [count_lattice_points(single, t, interior=True) for t in range(3)] == [1, 1, 1]


def test_interior_counts_match_the_strict_oracle_on_sweep():
    for region in all_regions(6):
        for t in range(6):
            want = oracle.stepwise_count(region, t, interior=True)
            assert count_lattice_points(region, t, interior=True) == want, (region, t)


SWAP = str.maketrans("EN", "NE")


def rotated(region):
    """The region's image under x_i -> x_{n+1-i}."""
    return region_from_words(region.upper.word[::-1], region.lower.word[::-1])


def rotated_dual(region):
    """The region's image under x_i -> 1 - x_{n+1-i}: rotation, then duality."""
    return region_from_words(region.lower.word.translate(SWAP)[::-1], region.upper.word.translate(SWAP)[::-1])


def direct_sum(a, b):
    return region_from_words(a.lower.word + b.lower.word, a.upper.word + b.upper.word)


def test_symmetry_classes_on_the_sweep():
    # rectangles fold by rotation, Catalan staircases by rotation then duality
    assert eh._symmetry(rectangle_region(4, 3)) == eh._ROTATION
    assert eh._symmetry(reduced_catalan_region(3)) == eh._DUAL
    assert eh._symmetry(region_from_words("EEEN", "ENEE")) == 0
    found = {eh._ROTATION: 0, eh._DUAL: 0}
    for region in all_regions(7):
        symmetry = eh._symmetry(region)
        if symmetry:
            found[symmetry] += 1
        assert (symmetry == eh._ROTATION) == (rotated(region) == region)
        assert (symmetry == eh._DUAL) == (rotated(region) != region == rotated_dual(region))
    assert found == {eh._ROTATION: 146, eh._DUAL: 42}


def test_folded_counts_match_the_stepwise_oracle_on_sweep():
    for region in all_regions(7):
        if eh._symmetry(region):
            for t in range(6):
                for interior in (False, True):
                    want = oracle.stepwise_count(region, t, interior)
                    assert count_lattice_points(region, t, interior) == want, (region, t, interior)


def seeded_region(seed, n):
    rng = random.Random(seed)
    r = rng.randint(1, n - 1)
    a, b = (PathWord("".join(rng.sample("N" * r + "E" * (n - r), n))).profile for _ in range(2))
    return Region(path_from_profile(tuple(map(min, a, b))), path_from_profile(tuple(map(max, a, b))))


SEEDED = seeded_region(20121220, 8)


@pytest.mark.parametrize(
    "region,symmetry",
    [
        (rectangle_region(13, 11), eh._ROTATION),
        (rectangle_region(4, 3), eh._ROTATION),  # odd size: G is one step past F
        (catalan_region(9), eh._DUAL),  # a loop and a coloop
        (reduced_catalan_region(18), eh._DUAL),
        (direct_sum(SEEDED, rotated(SEEDED)), eh._ROTATION),  # the fold meets at the touch point
        (direct_sum(SEEDED, rotated_dual(SEEDED)), eh._DUAL),
    ],
    ids=repr,
)
def test_folded_counts_match_the_stepwise_oracle(region, symmetry):
    assert eh._symmetry(region) == symmetry
    for t in (0, 1, 2, 3, 7):
        for interior in (False, True):
            want = oracle.stepwise_count(region, t, interior)
            assert count_lattice_points(region, t, interior) == want, (t, interior)


def test_check_ehrhart_flags_a_failed_overdetermination(monkeypatch):
    clean = check_ehrhart(4)
    assert clean.ok

    def perturbed(region, t, interior=False):  # past t = 3, where the stepwise cross-check stops
        return count_lattice_points(region, t, interior) + (t >= 4 and not interior)

    monkeypatch.setattr(eh, "count_lattice_points", perturbed)
    res = check_ehrhart(4)
    assert not res.ok
    assert res.checked == clean.checked
    assert res.failures and all("overdetermination fails" in f for f in res.failures)


def test_check_ehrhart_flags_a_shifted_window(monkeypatch):
    clean = check_ehrhart(4)

    def shifted(counts, initial):  # one more leading zero: every window slides down by one
        return accumulate([0, *counts], initial=initial)

    monkeypatch.setattr(eh, "accumulate", shifted)
    res = check_ehrhart(4)
    assert not res.ok
    assert res.checked == clean.checked
    assert any("window sums differ from the stepwise DP" in f for f in res.failures)


def test_check_ehrhart_flags_a_fold_met_one_sum_off(monkeypatch):
    # the sweep reaches both folds: EENN/NNEE is rotation-symmetric and
    # EENN/ENEN rotation-dual-symmetric
    clean = check_ehrhart(4)
    dot = eh._dot

    def one_off(f, f_lo, g, g_lo):  # G read one prefix sum too high
        return dot(f, f_lo, g, g_lo - 1)

    monkeypatch.setattr(eh, "_dot", one_off)
    res = check_ehrhart(4)
    assert not res.ok
    assert res.checked == clean.checked
    assert any("window sums differ from the stepwise DP" in f for f in res.failures)
    for lower, upper in (("EENN", "NNEE"), ("EENN", "ENEN")):
        region = region_from_words(lower, upper)
        assert count_lattice_points(region, 2) != oracle.stepwise_count(region, 2), region


def test_check_ehrhart_flags_a_window_one_step_high(monkeypatch):
    clean = check_ehrhart(4)

    def one_high(region, t, interior=False):  # each plain count sums the window [c - t + 1, c + 1]
        if interior:
            return count_lattice_points(region, t, interior=True)
        p, q = region.lower.profile, region.upper.profile
        counts = {0: 1}
        for i in range(1, region.size + 1):
            counts = {
                c: sum(counts.get(b, 0) for b in range(c - t + 1, c + 2))
                for c in range(t * p[i], t * q[i] + 1)
            }
        return counts.get(t * region.r, 0)

    monkeypatch.setattr(eh, "count_lattice_points", one_high)
    res = check_ehrhart(4)
    assert not res.ok
    assert res.checked == clean.checked
    assert any("window sums differ from the stepwise DP" in f for f in res.failures)


def test_check_ehrhart_flags_a_broken_transfer_chain(monkeypatch):
    clean = check_ehrhart(4)

    chain = eh._transfer_chain

    def off_by_one(r, t, compositions):
        return chain(r, t, compositions) + (t == 2)

    monkeypatch.setattr(eh, "_transfer_chain", off_by_one)
    res = check_ehrhart(4)
    assert not res.ok
    assert res.checked == clean.checked
    assert res.failures and all(
        "transfer chain differs from the literal double sum at t=2" in f for f in res.failures
    )


def test_check_ehrhart_flags_an_interior_count_off_by_one(monkeypatch):
    clean = check_ehrhart(4)

    def off_by_one(region, t, interior=False):
        return count_lattice_points(region, t, interior) + (interior and t >= 2)

    monkeypatch.setattr(eh, "count_lattice_points", off_by_one)
    res = check_ehrhart(4)
    assert not res.ok
    assert res.checked == clean.checked
    assert res.failures and all(
        "interior window sums differ from the strict stepwise DP" in f for f in res.failures
    )


def test_check_ehrhart_flags_a_disagreeing_strict_oracle(monkeypatch):
    clean = check_ehrhart(4)
    stepwise = oracle.stepwise_count

    def disagreeing(region, t, interior=False):
        return stepwise(region, t, interior) + (interior and t == 3)

    monkeypatch.setattr(oracle, "stepwise_count", disagreeing)
    res = check_ehrhart(4)
    assert not res.ok
    assert res.checked == clean.checked
    assert res.failures and all(
        "interior window sums differ from the strict stepwise DP at t=3" in f for f in res.failures
    )


def test_interpolation_through_seeded_integer_sequences():
    rng = random.Random(20121220)
    for length in range(1, 41):
        values = [rng.randint(-(10**6), 10**6) for _ in range(length)]
        start = rng.randint(-length, length)
        coeffs = eh._interpolate(values, start)
        assert len(coeffs) == len(values)
        poly = EhrhartPolynomial(coeffs)
        assert [poly(start + i) for i in range(length)] == values


def test_gamma_bounds_and_set_examples():
    octa = region_from_words("EENN", "NNEE")
    assert gamma_bounds(octa) == GammaBounds(a=(3,), b=(1,))
    assert gamma_set(octa) == [(1, 3), (2, 2), (3, 1)]
    assert gamma_set(region_from_words("EN", "NE")) == [(2,)]


def test_basis_folds_land_in_gamma_set():
    for region in all_regions(7):
        allowed = set(gamma_set(region))
        for bv in bases(region):
            assert basis_fold(bv.coords) in allowed


def recursive_gamma_set(region):
    """The composition set by one recursive call per rank, as first written."""
    r, n = region.r, region.size
    if r == 0:
        return [()]
    bounds = gamma_bounds(region)
    out, parts = [], []

    def extend(i, total):
        if i == r:
            if n - total >= 1:
                out.append(tuple(parts) + (n - total,))
            return
        for s in range(max(bounds.b[i - 1], total + 1), min(bounds.a[i - 1], n - (r - i)) + 1):
            parts.append(s - total)
            extend(i + 1, s)
            parts.pop()

    extend(1, 0)
    return out


def test_gamma_set_matches_the_recursive_enumeration():
    for region in all_regions(8):
        assert gamma_set(region) == recursive_gamma_set(region), region


def test_gamma_set_on_a_rank_past_the_recursion_limit():
    # A single path of rank 1100 has one composition.
    path = region_from_words("EN" * 1100, "EN" * 1100)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        compositions = gamma_set(path)
        report = reconcile_ehrhart_formula(path, 2)
    finally:
        sys.setrecursionlimit(limit)
    assert compositions == [(3,) + (2,) * 1098 + (1,)]
    assert len(report.rows) == 3
    assert [row.true_value for row in report.rows] == [1, 1, 1]


def test_fold_examples():
    assert basis_fold((0, 0, 1, 1)) == (3, 1)
    assert basis_fold((1, 0, 1, 0)) == (2, 2)
    assert basis_fold((0, 1)) == (2,)


def test_s_set_examples():
    assert s_set(1, 5) == [()]
    assert s_set(2, 1) == [(0, 0), (0, 1), (1, 0)]
    assert len(s_set(2, 2)) == 6


def test_s_set_constraints():
    for r in (2, 3):
        for t in (1, 2, 3):
            for arr in s_set(r, t):
                assert len(arr) == 2 * (r - 1)
                assert arr[0] <= t and arr[-1] <= t
                assert all(a + b <= t for a, b in zip(arr, arr[1:]))


def recursive_s_set(r, t):
    """The slack arrays by one recursive call per entry, as first written."""
    length = 2 * (r - 1)
    out, arr = [], []

    def extend(i):
        if i == length:
            out.append(tuple(arr))
            return
        for v in range(t - (arr[-1] if arr else 0) + 1):
            arr.append(v)
            extend(i + 1)
            arr.pop()

    extend(0)
    return out


def test_s_set_matches_the_recursive_enumeration():
    for r in range(1, 5):
        for t in range(4):
            assert s_set(r, t) == recursive_s_set(r, t), (r, t)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        zeros = s_set(600, 0)
    finally:
        sys.setrecursionlimit(limit)
    assert zeros == [(0,) * 1198]


def test_multichoose():
    assert multichoose(3, 2) == 6
    assert multichoose(1, 5) == 1
    assert multichoose(0, 2) == 0
    assert multichoose(-1, 2) == 0
    assert multichoose(0, 0) == 1


def test_reconcile_report_shape():
    seg = region_from_words("EN", "NE")
    report = reconcile_ehrhart_formula(seg, 2)
    assert [(r.t, r.true_value) for r in report.rows] == [(0, 1), (1, 2), (2, 3)]
    assert report.rows[1].formula_value == 3  # the double sum over-counts here
    assert not report.rows[1].match
    lines = report.csv_lines()
    assert lines[0] == "EN,NE,0,1,1,true"


def test_errata_report_walks_the_regions_once(monkeypatch):
    calls = []
    real = oracle.all_regions

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "all_regions", counted)
    build_errata_report(6, 3, 6)
    assert len(calls) == 1


def test_formula_value_octahedron():
    octa = region_from_words("EENN", "NNEE")
    assert formula_value(octa, 1) == 12  # versus 6 true lattice points
    assert count_lattice_points(octa, 1) == 6
