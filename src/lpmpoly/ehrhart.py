"""Exact lattice-point counts of dilations and the Ehrhart polynomial.

Ground truth is always the dynamic program over prefix sums; polynomial
coefficients come from interpolation through the d+1 counts at t = 0..d.
``verify.check_ehrhart`` overdetermines them at two extra dilations.  The
prefix-block composition sets and the double-sum formula evaluator exist to
be *compared* against the ground truth, never trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .matroid import components, presentation
from .paths import Region


def count_lattice_points(region: Region, t: int) -> int:
    """Points of the t-th dilation, by dynamic programming over prefix sums.

    States are the admissible prefix sums c_i with t*p_i <= c_i <= t*q_i and
    unit-coordinate steps 0 <= c_i - c_{i-1} <= t; exact big integers.
    """
    if t < 0:
        raise ValueError("dilation must be nonnegative")
    p = region.lower.profile
    q = region.upper.profile
    cur = {0: 1}
    for i in range(1, region.size + 1):
        lo, hi = t * p[i], t * q[i]
        nxt: dict[int, int] = {}
        for c, ways in cur.items():
            for step in range(0, t + 1):
                c2 = c + step
                if c2 > hi:
                    break
                if c2 >= lo:
                    nxt[c2] = nxt.get(c2, 0) + ways
        cur = nxt
        if not cur:
            return 0
    return cur.get(t * region.r, 0)


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
    """Monomial coefficients of the unique polynomial through (i, values[i])."""
    d = len(values) - 1
    coeffs = [Fraction(0)] * (d + 1)
    for k, y in enumerate(values):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(d + 1):
            if j == k:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for deg, c in enumerate(basis):
                new[deg] -= c * j
                new[deg + 1] += c
            basis = new
            denom *= k - j
        scale = Fraction(y) / denom
        for deg, c in enumerate(basis):
            coeffs[deg] += scale * c
    return tuple(coeffs)


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
