import random
from fractions import Fraction
from itertools import accumulate

import pytest

from lpmpoly import (
    EhrhartPolynomial,
    GammaBounds,
    bases,
    basis_fold,
    count_lattice_points,
    dimension,
    ehrhart_polynomial,
    gamma_bounds,
    gamma_set,
    reconcile_ehrhart_formula,
    region_from_words,
    s_set,
)
from lpmpoly import ehrhart as eh
from lpmpoly.ehrhart import formula_value, multichoose
from lpmpoly.oracle import all_regions
from lpmpoly.verify import check_ehrhart


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


def test_ehrhart_polynomial_counts_d_plus_one_dilations(monkeypatch):
    calls = []

    def counting(region, t):
        calls.append(t)
        return count_lattice_points(region, t)

    monkeypatch.setattr(eh, "count_lattice_points", counting)
    for lower, upper in (("ENEN", "ENEN"), ("EN", "NE"), ("EENN", "NNEE"), ("EEENNN", "NENENE")):
        region = region_from_words(lower, upper)
        calls.clear()
        ehrhart_polynomial(region)
        assert calls == list(range(dimension(region) + 1))


def test_check_ehrhart_flags_a_failed_overdetermination(monkeypatch):
    clean = check_ehrhart(4)
    assert clean.ok

    def perturbed(region, t):  # past t = 3, where the stepwise cross-check stops
        return count_lattice_points(region, t) + (t >= 4)

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


def test_interpolation_through_seeded_integer_sequences():
    rng = random.Random(20121220)
    for length in range(1, 41):
        values = [rng.randint(-(10**6), 10**6) for _ in range(length)]
        coeffs = eh._interpolate(values)
        assert len(coeffs) == len(values)
        poly = EhrhartPolynomial(coeffs)
        assert [poly(i) for i in range(length)] == values


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


def test_formula_value_octahedron():
    octa = region_from_words("EENN", "NNEE")
    assert formula_value(octa, 1) == 12  # versus 6 true lattice points
    assert count_lattice_points(octa, 1) == 6
