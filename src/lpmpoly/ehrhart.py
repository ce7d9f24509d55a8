"""Exact lattice-point counts of dilations and the Ehrhart polynomial.

Ground truth is a dynamic program over prefix sums: the new count at a
prefix sum c is the window sum of the previous counts over [c - t, c], read
off one prefix-sum pass per step as the difference of two slices of it.
The same kernel counts the relative-interior points, with strict steps in
a window of width t - 2 and the bounds moved in by one between the touch
points.  A region mapped onto itself by the 180-degree rotation
x_i -> x_{n+1-i} (rectangles) or by rotation then duality
x_i -> 1 - x_{n+1-i} (Catalan staircases) folds the DP at its middle: the
second half of the steps repeats the first, so the kernel stops after
n - floor(n/2) of the n steps and one dot product of the counts at steps
floor(n/2) and n - floor(n/2) gives the total.  The polynomial comes from
Ehrhart-Macdonald reciprocity, L(-t) = (-1)^d L°(t): the plain counts at
t = 0..ceil(d/2) and the interior counts at t = 1..floor(d/2) are its
values at the d+1 consecutive points -floor(d/2)..ceil(d/2), and the
Newton form through them is expanded in integer forward differences over
the common denominator d!.
``verify.check_ehrhart`` compares both counts with ``oracle.stepwise_count``
and the polynomial with every plain dilation it does not read, up to two
past its degree.  The prefix-block composition sets and the double-sum
formula exist to be *compared* against the ground truth, never trusted.
The double sum is evaluated per composition by a transfer chain over its
slack variables; ``oracle.literal_double_sum`` sums it term by term
over every slack array, and ``verify.check_ehrhart`` compares the two.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from itertools import accumulate, repeat
from math import comb, factorial, lcm
from operator import mul, sub
from typing import NamedTuple

from .matroid import presentation
from .paths import Region
from .polytope import dimension


def count_lattice_points(region: Region, t: int, interior: bool = False) -> int:
    """Points of the t-th dilation, by dynamic programming over prefix sums.

    The admissible prefix sums after i steps satisfy t*p_i <= c_i <= t*q_i
    and 0 <= c_i - c_{i-1} <= t, and form one contiguous range [lo, hi].
    The count at c is the window sum of the previous counts over
    [max(c - t, lo), min(c, hi)], that is below[top] - below[bottom] for the
    prefix sums ``below`` of the previous counts.  Across the new range the
    window has three zones: where c - t < lo its bottom is pinned to lo
    (bottom index 0, so the count is the top alone), in the middle both ends
    slide with c, and where c > hi its top is pinned to hi (the last prefix
    sum).  So each step is two slices of ``below``, the top one padded at its
    pinned end, subtracted elementwise: O(n * states) exact big-integer
    operations, whatever t.

    With ``interior`` the count is of the relative-interior points of the
    dilation.  Inside a connected block every inequality holds strictly,
    0 < x_i < t and t*p_i < c_i < t*q_i, while the prefix sums at the
    touch points and the steps of loops and coloops stay equalities.  A
    strict step is the shifted step x_i - 1 in a window of width t - 2, so
    the same kernel runs on the prefix sums less the strict steps so far,
    with the bounds moved in by one between the touch points.

    A region that ``_symmetry`` finds to be its own image under the 180-degree
    rotation x_i -> x_{n+1-i}, or under rotation then duality
    x_i -> 1 - x_{n+1-i}, costs n - floor(n/2) steps instead of n.  With
    k = floor(n/2) the kernel stops at step n - k, keeping the counts F at
    step k and G at step n - k, both by true prefix sum.  The symmetry maps
    the last n - k steps of a point onto the first n - k steps of another,
    so the completions from prefix sum c at step k number G(t*r - c) under
    rotation and G(c + t*(n - k - r)) under rotation then duality, and the
    count is one dot product of F with G.  Rotation then duality forces
    m = r, so there n = 2r, k = n - k = r and the count is the sum of F(c)^2.
    Both halves apply the bound at step k; it is the same bound, so applying
    it twice changes nothing.

    >>> from lpmpoly.paths import region_from_words
    >>> octahedron = region_from_words("EENN", "NNEE")
    >>> [count_lattice_points(octahedron, t) for t in range(4)]
    [1, 6, 19, 44]
    >>> [count_lattice_points(octahedron, t, interior=True) for t in range(1, 4)]
    [0, 1, 6]
    """
    if t < 0:
        raise ValueError("dilation must be nonnegative")
    p = region.lower.profile
    q = region.upper.profile
    n = region.size
    widths = [t] * n
    floors = [t * h for h in p[1:]]
    ceilings = [t * h for h in q[1:]]
    if interior:
        shift = 0  # strict steps so far: the kernel's prefix sums are c_i less these
        for i in range(n):
            if p[i] < q[i] or p[i + 1] < q[i + 1]:  # step i + 1 lies inside a block
                if t < 2:
                    return 0
                widths[i] = t - 2
                shift += 1
            inset = int(p[i + 1] < q[i + 1])  # strict bounds between the touch points
            floors[i] += inset - shift
            ceilings[i] -= inset + shift
    symmetry = _symmetry(region)
    if not symmetry:
        last = _steps(widths, floors, ceilings, 0, [1])
        return last[1][0] if last else 0  # p_n = q_n = r pins the last range to one sum
    k = n // 2
    half = _steps(widths[:k], floors[:k], ceilings[:k], 0, [1])
    if not half:
        return 0
    rest = _steps(widths[k : n - k], floors[k : n - k], ceilings[k : n - k], *half)
    if not rest:
        return 0
    # back to true prefix sums: a width of t - 2 marks a strict step (never t)
    f_lo = half[0] + widths[:k].count(t - 2)
    g_lo = rest[0] + widths[: n - k].count(t - 2)
    f, g = half[1], rest[1]
    if symmetry == _ROTATION:  # G(t*r - c), listed from its lowest c
        g = g[::-1]
        g_lo = t * region.r - (g_lo + len(g) - 1)
    return _dot(f, f_lo, g, g_lo)  # under _DUAL, G(c + t*(n - k - r)) is G(c)


_SWAP = str.maketrans("EN", "NE")
_ROTATION, _DUAL = 1, 2


def _symmetry(region: Region) -> int:
    """Which symmetry maps the region onto itself, so that its DP can stop
    halfway: ``_ROTATION`` when the upper word is the lower one reversed (the
    rotation x_i -> x_{n+1-i}), ``_DUAL`` when each word is its own E<->N swap
    reversed (rotation then duality, x_i -> 1 - x_{n+1-i}, which forces
    m = r), else 0.  Rectangles are rotation-symmetric, Catalan staircases
    rotation-dual-symmetric.
    """
    lower, upper = region.lower.word, region.upper.word
    if lower == upper[::-1]:
        return _ROTATION
    if (
        2 * region.lower.r == region.size  # else the swap changes the endpoint
        and lower == lower.translate(_SWAP)[::-1]
        and upper == upper.translate(_SWAP)[::-1]
    ):
        return _DUAL
    return 0


def _steps(
    widths: list[int], floors: list[int], ceilings: list[int], lo: int, counts: list[int]
) -> tuple[int, list[int]] | None:
    """The window kernel from ``counts[c - lo]`` over the given steps:
    (lo, counts) after the last, or None once a range is empty.  A floor lies
    at most w + 1 above the previous start: a plain one, t*p_i, rises by at
    most t = w, and a strict one by at most t - 1 = w + 1, since its shift
    grows by one and the lower path takes E at a block's first step."""
    hi = lo + len(counts) - 1
    for w, bottom, top in zip(widths, floors, ceilings):
        # Conditional expressions rather than max/min: on small regions a
        # builtin call per bound costs a third of the step.
        new_lo = bottom if bottom > lo else lo
        new_hi = top if top < hi + w else hi + w
        if new_lo > new_hi:
            return None
        below = list(accumulate(counts, initial=0))  # below[k]: sum of counts[:k]
        # top index min(c, hi) - lo + 1: sliding up to hi, then pinned to below[-1]
        tops = below[new_lo - lo + 1 : (new_hi if new_hi < hi else hi) - lo + 2]
        if new_hi > hi:
            tops += repeat(below[-1], new_hi - (hi if hi >= new_lo else new_lo - 1))
        # bottom index max(c - w, lo) - lo: pinned to below[0] = 0 up to lo + w (the counts
        # are the tops as they stand), then sliding from below[1], as new_lo <= lo + w + 1
        pinned = (new_hi if new_hi < lo + w else lo + w) - new_lo + 1
        counts = tops[:pinned]
        counts += map(sub, tops[pinned:], below[1 : new_hi - w - lo + 1])
        lo, hi = new_lo, new_hi
    return lo, counts


def _dot(f: list[int], f_lo: int, g: list[int], g_lo: int) -> int:
    """The sum of f(c) * g(c) over c, each vector listed from its lowest c:
    both read from the higher start, and ``map`` stops at the shorter."""
    lo = max(f_lo, g_lo)
    return sum(map(mul, f[lo - f_lo :], g[lo - g_lo :]))


class _Coeffs(NamedTuple):
    coeffs: tuple[Fraction, ...]


class EhrhartPolynomial(_Coeffs):
    """Exact rational coefficients, constant term first.

    No ``__slots__``: the instance ``__dict__`` holds the cached numerators.
    """

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @cached_property
    def _numerators(self) -> tuple[tuple[int, ...], int]:
        """The coefficients over their common denominator, highest degree
        first, and that denominator; computed once per polynomial."""
        den = lcm(*(c.denominator for c in self.coeffs))
        return tuple(c.numerator * (den // c.denominator) for c in reversed(self.coeffs)), den

    def __call__(self, t: int) -> Fraction:
        """Horner's rule on integer numerators over the coefficients' common
        denominator, one ``Fraction`` at the end."""
        numerators, den = self._numerators
        acc = 0
        for c in numerators:
            acc = acc * t + c
        return Fraction(acc, den)

    @property
    def normalized_volume(self) -> int:
        scaled = self.coeffs[-1] * factorial(self.degree)
        if scaled.denominator != 1:
            raise AssertionError("leading coefficient times d! is not an integer")
        return int(scaled)


def _interpolate(values: list[int], start: int) -> tuple[Fraction, ...]:
    """Monomial coefficients of the unique polynomial through
    (start + i, values[i]).

    Newton form f(t) = sum_k D^k f(start) C(t - start, k) with integer
    forward differences D^k f(start).  Scaled by d!, it is
    sum_k D^k f(start) (d!/k!) (t - start)_k, expanded by Horner's rule in
    the falling factorials (t - start)_k: O(d^2) integer operations, one
    ``Fraction`` per coefficient at the end.
    """
    d = len(values) - 1
    diffs = list(values)
    for k in range(1, d + 1):
        for i in range(d, k - 1, -1):
            diffs[i] -= diffs[i - 1]
    scale = 1  # d!/k! for k running down from d
    numer: list[int] = []
    for k in range(d, -1, -1):
        # numer := numer * (t - start - k) + D^k f(start) * d!/k!
        numer = [0] + numer
        for j in range(len(numer) - 1):
            numer[j] -= (start + k) * numer[j + 1]
        numer[0] += diffs[k] * scale
        scale *= k
    denom = factorial(max(d, 0))
    return tuple(Fraction(c, denom) for c in numer)


def ehrhart_polynomial(region: Region) -> EhrhartPolynomial:
    """Interpolate through d+1 consecutive values, d the dimension, half of
    them read off interior counts by Ehrhart-Macdonald reciprocity.

    Reciprocity gives L(-t) = (-1)^d L°(t), L° the count of
    relative-interior points.  So the plain counts at t = 0..ceil(d/2) and
    the interior counts at t = 1..floor(d/2) are the values at
    t = -floor(d/2)..ceil(d/2).  The window DP costs about n * t * width
    operations, n/2 * t * width on a rotation- or rotation-dual-symmetric
    region such as a rectangle or a Catalan staircase, so no run goes past
    t = ceil(d/2).
    """
    d = dimension(region)
    half = d // 2
    sign = -1 if d % 2 else 1
    negative = [sign * count_lattice_points(region, t, interior=True) for t in range(half, 0, -1)]
    plain = [count_lattice_points(region, t) for t in range(d - half + 1)]
    return EhrhartPolynomial(_interpolate(negative + plain, -half))


class GammaBounds(NamedTuple):
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
    if r < 2:
        return [(n,)] if r else [()]
    bounds = gamma_bounds(region)
    b = bounds.b
    cap = [min(a, n - (r - i)) for i, a in enumerate(bounds.a, start=1)]
    # Depth first on explicit stacks: sums holds s_0 = 0 .. s_{k-1} and
    # untried[k-1] the values of s_k left to try; s_r is n.
    out: list[tuple[int, ...]] = []
    sums = [0]
    untried = [iter(range(max(b[0], 1), cap[0] + 1))]
    while untried:
        s = next(untried[-1], None)
        k = len(untried)
        if s is None:
            untried.pop()
            sums.pop()
        elif k == r - 1:  # s <= cap[r - 2] <= n - 1, so the last part is positive
            chain = [*sums, s, n]
            out.append(tuple(map(sub, chain[1:], chain)))
        else:
            sums.append(s)
            untried.append(iter(range(max(b[k], s + 1), cap[k] + 1)))
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


def multichoose(n: int, k: int) -> int:
    """Multisets of size k from n symbols; zero when n is not positive."""
    if k == 0:
        return 1
    if n <= 0:
        return 0
    return comb(n + k - 1, k)


def transfer_chain(r: int, t: int, compositions: list[tuple[int, ...]]) -> int:
    """The double-sum candidate for the dilation count, by a transfer chain.

    For each composition alpha in ``gamma_set`` the inner sum runs over the
    slack arrays s_0..s_{2r-3} >= 0 with s_j + s_{j+1} <= t of
    M(t+1-s_0, alpha_0) * prod_{i=1}^{r-2} M(t-s_{2i-1}-s_{2i}, alpha_i)
    * M(t-s_{2r-3}, alpha_{r-1}), M the multiset count.  Adjacent slacks are
    the only coupling, so the sum is a vector carried along the chain:
    vec[v] totals the partial products with the current slack equal to v.
    Stepping to the next slack u sums vec over v <= t - u, times the factor
    M(t-u-v, alpha_{j/2}) when the new slack s_j has even j.  O(r t^2)
    integer operations per composition instead of one term per slack array.
    """
    if r == 0:
        return 1
    total = 0
    ones = [1] * (t + 1)
    for alpha in compositions:
        if r == 1:
            total += multichoose(t + 1, alpha[0])
            continue
        vec = [multichoose(t + 1 - v, alpha[0]) for v in range(t + 1)]
        for j in range(1, 2 * r - 2):
            # m[k] is the factor at slack total k = t - u - v; odd j only couples
            m = [multichoose(k, alpha[j // 2]) for k in range(t + 1)] if j % 2 == 0 else ones
            vec = [sum(vec[v] * m[t - u - v] for v in range(t - u + 1)) for u in range(t + 1)]
        total += sum(vec[v] * multichoose(t - v, alpha[r - 1]) for v in range(t + 1))
    return total


class ReconcileRow(NamedTuple):
    t: int
    formula_value: int
    true_value: int

    @property
    def match(self) -> bool:
        return self.formula_value == self.true_value


class ReconcileReport(NamedTuple):
    region: Region
    rows: tuple[ReconcileRow, ...]

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
    compositions = gamma_set(region)
    rows = tuple(
        ReconcileRow(t, transfer_chain(region.r, t, compositions), count_lattice_points(region, t))
        for t in range(0, t_max + 1)
    )
    return ReconcileReport(region, rows)
