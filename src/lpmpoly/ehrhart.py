"""Exact lattice-point counts of dilations and the Ehrhart polynomial.

Ground truth is a dynamic program over prefix sums: the new count at a
prefix sum c is the window sum of the previous counts over [c - t, c], read
off one prefix-sum pass per step.  Polynomial coefficients come from the
Newton form through the d+1 counts at t = 0..d: integer forward
differences, expanded into monomials over the common denominator d!.
``verify.check_ehrhart`` compares the counts with the stepwise DP in
:mod:`lpmpoly.oracle` and overdetermines the polynomial at two extra
dilations.  The prefix-block composition sets and the double-sum formula
evaluator exist to be *compared* against the ground truth, never trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial

from .matroid import components, presentation
from .paths import Region


def count_lattice_points(region: Region, t: int) -> int:
    """Points of the t-th dilation, by dynamic programming over prefix sums.

    The admissible prefix sums after i steps satisfy t*p_i <= c_i <= t*q_i
    and 0 <= c_i - c_{i-1} <= t, and form one contiguous range [lo, hi].
    The count at c is the window sum of the previous counts over [c - t, c],
    so one prefix-sum pass per step gives every count: O(n * states) exact
    big-integer additions, whatever t.

    >>> from lpmpoly.paths import region_from_words
    >>> [count_lattice_points(region_from_words("EENN", "NNEE"), t) for t in range(4)]
    [1, 6, 19, 44]
    """
    if t < 0:
        raise ValueError("dilation must be nonnegative")
    p = region.lower.profile
    q = region.upper.profile
    lo = hi = 0
    counts = [1]  # counts[c - lo] for c in [lo, hi]
    for i in range(1, region.size + 1):
        new_lo, new_hi = max(lo, t * p[i]), min(hi + t, t * q[i])
        if new_lo > new_hi:
            return 0
        below = list(accumulate(counts, initial=0))  # below[k]: sum of counts[:k]
        counts = [
            below[min(c, hi) - lo + 1] - below[max(c - t, lo) - lo]
            for c in range(new_lo, new_hi + 1)
        ]
        lo, hi = new_lo, new_hi
    return counts[0]  # p_n = q_n = r pins the last range to the one sum t*r


@dataclass(frozen=True)
class EhrhartPolynomial:
    """Exact rational coefficients, constant term first."""

    coeffs: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, t: int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    @property
    def normalized_volume(self) -> int:
        scaled = self.coeffs[-1] * factorial(self.degree)
        if scaled.denominator != 1:
            raise AssertionError("leading coefficient times d! is not an integer")
        return int(scaled)


def _interpolate(values: list[int]) -> tuple[Fraction, ...]:
    """Monomial coefficients of the unique polynomial through (i, values[i]).

    Newton form f(t) = sum_k D^k f(0) C(t, k) with integer forward
    differences D^k f(0).  Scaled by d!, it is sum_k D^k f(0) (d!/k!) (t)_k,
    expanded by Horner's rule in the falling factorials (t)_k: O(d^2)
    integer operations, one ``Fraction`` per coefficient at the end.
    """
    d = len(values) - 1
    diffs = list(values)
    for k in range(1, d + 1):
        for i in range(d, k - 1, -1):
            diffs[i] -= diffs[i - 1]
    scale = 1  # d!/k! for k running down from d
    numer: list[int] = []
    for k in range(d, -1, -1):
        # numer := numer * (t - k) + D^k f(0) * d!/k!
        numer = [0] + numer
        for j in range(len(numer) - 1):
            numer[j] -= k * numer[j + 1]
        numer[0] += diffs[k] * scale
        scale *= k
    denom = factorial(max(d, 0))
    return tuple(Fraction(c, denom) for c in numer)


def ehrhart_polynomial(region: Region) -> EhrhartPolynomial:
    """Interpolate through the dilation counts at t = 0..d, d the dimension."""
    d = region.size - components(region).count
    values = [count_lattice_points(region, t) for t in range(d + 1)]
    return EhrhartPolynomial(_interpolate(values))


@dataclass(frozen=True)
class GammaBounds:
    """Windows for the partial sums of prefix-block compositions."""

    a: tuple[int, ...]
    b: tuple[int, ...]


def gamma_bounds(region: Region) -> GammaBounds:
    """The k-th window ends one step before each path first exceeds height k."""
    intervals = presentation(region).intervals
    a = tuple(hi - 1 for _, hi in intervals[1:])
    b = tuple(lo - 1 for lo, _ in intervals[1:])
    return GammaBounds(a, b)


def gamma_set(region: Region) -> list[tuple[int, ...]]:
    """Compositions of m+r into r positive parts with windowed partial sums.

    The window orientation puts the upper path's bound below the lower
    path's (the upper path crosses each height first).
    """
    r = region.r
    n = region.size
    if r == 0:
        return [()]
    bounds = gamma_bounds(region)
    out: list[tuple[int, ...]] = []
    parts: list[int] = []

    def extend(i: int, total: int) -> None:
        if i == r:
            if n - total >= 1:
                out.append(tuple(parts) + (n - total,))
            return
        lo = max(bounds.b[i - 1], total + 1)
        hi = min(bounds.a[i - 1], n - (r - i))
        for s in range(lo, hi + 1):
            parts.append(s - total)
            extend(i + 1, s)
            parts.pop()

    extend(1, 0)
    return out


def basis_fold(coords: tuple[int, ...]) -> tuple[int, ...]:
    """Block sizes of a basis vector's prefix-sum chain, zeros folded into block 1."""
    r = sum(coords)
    if r == 0:
        return ()
    counts = [0] * (r + 1)
    c = 0
    for x in coords:
        c += x
        counts[c] += 1
    return (counts[0] + counts[1],) + tuple(counts[2:])


def s_set(r: int, t: int) -> list[tuple[int, ...]]:
    """Nonnegative arrays of length 2(r-1) whose adjacent pairs total at most t."""
    if r < 1:
        raise ValueError("rank must be at least 1")
    length = 2 * (r - 1)
    if length == 0:
        return [()]
    out: list[tuple[int, ...]] = []
    arr: list[int] = []

    def extend(i: int) -> None:
        if i == length:
            out.append(tuple(arr))
            return
        cap = t - (arr[-1] if arr else 0)
        for v in range(0, cap + 1):
            arr.append(v)
            extend(i + 1)
            arr.pop()

    extend(0)
    return out


def multichoose(n: int, k: int) -> int:
    """Multisets of size k from n symbols; zero when n is not positive."""
    if k == 0:
        return 1
    if n <= 0:
        return 0
    return comb(n + k - 1, k)


def formula_value(region: Region, t: int) -> int:
    """The double-sum candidate for the dilation count, evaluated literally."""
    r = region.r
    if r == 0:
        return 1
    total = 0
    svals = s_set(r, t)
    for alpha in gamma_set(region):
        for s in svals:
            term = multichoose(t + 1 - (s[0] if s else 0), alpha[0])
            for i in range(2, r):
                term *= multichoose(t - s[2 * i - 3] - s[2 * i - 2], alpha[i - 1])
                if not term:
                    break
            if term and r >= 2:
                term *= multichoose(t - s[2 * r - 3], alpha[r - 1])
            total += term
    return total


@dataclass(frozen=True)
class ReconcileRow:
    t: int
    formula_value: int
    true_value: int

    @property
    def match(self) -> bool:
        return self.formula_value == self.true_value


@dataclass(frozen=True)
class ReconcileReport:
    region: Region
    rows: tuple[ReconcileRow, ...]

    @property
    def all_match(self) -> bool:
        return all(row.match for row in self.rows)

    def csv_lines(self) -> list[str]:
        return [
            f"{self.region.lower.word},{self.region.upper.word},{row.t},"
            f"{row.formula_value},{row.true_value},{str(row.match).lower()}"
            for row in self.rows
        ]


def reconcile_ehrhart_formula(region: Region, t_max: int) -> ReconcileReport:
    """Per-dilation comparison of the double-sum formula with the DP count.

    Emits the table; never asserts the formula.
    """
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    rows = tuple(
        ReconcileRow(t, formula_value(region, t), count_lattice_points(region, t))
        for t in range(0, t_max + 1)
    )
    return ReconcileReport(region, rows)
