"""Monotone lattice paths and the regions bounded by a pair of them.

A path from (0,0) to (m,r) is a word over {E, N}.  Everything downstream
(matroids, polytopes, volumes) is driven by the height profile of such
words: ``profile[i]`` is the number of N steps among the first ``i``
letters.  A region is a pair of paths with common endpoints, the lower one
never climbing above the upper one.

>>> p = PathWord("EENN")
>>> (p.m, p.r, p.profile[1:])
(2, 2, (0, 0, 1, 2))
"""

from __future__ import annotations

from itertools import accumulate, compress
from operator import eq, gt, sub
from typing import Iterable, NamedTuple

from .errors import DominanceViolation, EmptyWord, EndpointMismatch, InvalidCharacter


_STEP_BITS = bytes.maketrans(b"EN", b"\x00\x01")
_STEP_LETTERS = bytes.maketrans(b"\x00\x01", b"EN")
_EAST_BITS = bytes.maketrans(b"EN", b"\x01\x00")  # the E mask of a word


class PathWord:
    """An E/N word with its height profile precomputed.

    Parsing rejects empty input and foreign letters.

    >>> PathWord("N").r
    1
    """

    __slots__ = ("word", "m", "r", "profile")

    def __init__(self, word: str):
        if not word:
            raise EmptyWord("path word is empty")
        r = word.count("N")
        if r + word.count("E") != len(word):
            bad = next(pos for pos, step in enumerate(word, start=1) if step not in "EN")
            raise InvalidCharacter(word, bad)
        self.word, self.m, self.r = word, len(word) - r, r
        self.profile = tuple(accumulate(self.bits(), initial=0))

    @classmethod
    def _from_profile(cls, word: str, profile: tuple[int, ...], m: int, r: int) -> "PathWord":
        """Wrap a word whose profile and endpoint the caller already holds."""
        path = cls.__new__(cls)
        path.word, path.profile, path.m, path.r = word, profile, m, r
        return path

    def __len__(self) -> int:
        return self.m + self.r

    def __eq__(self, other) -> bool:
        return isinstance(other, PathWord) and self.word == other.word

    def __hash__(self) -> int:
        return hash(self.word)

    def __repr__(self) -> str:
        return f"PathWord({self.word!r})"

    def bits(self) -> bytes:
        """The word as bytes, 0 for each E step and 1 for each N step.

        >>> list(PathWord("ENN").bits())
        [0, 1, 1]
        """
        return self.word.encode().translate(_STEP_BITS)

    def north_positions(self) -> tuple[int, ...]:
        """1-based positions of the N steps."""
        return tuple(compress(range(1, len(self.word) + 1), self.bits()))

    def east_step_heights(self) -> tuple[int, ...]:
        """Height at which each E step is taken, left to right.

        >>> PathWord("NENE").east_step_heights()
        (1, 2)
        """
        return tuple(compress(self.profile, self.word.encode().translate(_EAST_BITS)))


def path_from_profile(profile: tuple[int, ...]) -> PathWord:
    """Rebuild the word whose height profile (including the leading 0) is
    given, and wrap it with that profile."""
    try:
        steps = bytes(map(sub, profile[1:], profile))
    except ValueError:  # a step below 0 or above 255
        steps = None
    if steps is None or steps.translate(None, b"\x00\x01"):
        raise ValueError(f"not a unit-step profile: {profile}")
    if not steps:
        raise EmptyWord("path word is empty")
    if profile[0] != 0:
        raise ValueError(f"profile does not start at 0: {profile}")
    word = steps.translate(_STEP_LETTERS).decode()
    r = profile[-1]
    return PathWord._from_profile(word, tuple(profile), len(word) - r, r)


class Box(NamedTuple):
    """Unit box with corners (col-1, row-1) and (col, row), 1-based."""

    col: int
    row: int


class Region:
    """A pair of bounding paths, lower never above upper; ``size`` is the
    ground-set size m + r."""

    __slots__ = ("lower", "upper", "size")

    def __init__(self, lower: PathWord, upper: PathWord):
        if lower.m != upper.m or lower.r != upper.r:
            raise EndpointMismatch(
                f"endpoints differ: ({lower.m},{lower.r}) vs ({upper.m},{upper.r})"
            )
        if any(map(gt, lower.profile, upper.profile)):
            pairs = enumerate(zip(lower.profile, upper.profile))
            raise DominanceViolation(next(i for i, (a, b) in pairs if a > b))
        self.lower = lower
        self.upper = upper
        self.size = lower.m + lower.r

    @classmethod
    def _from_paths(cls, lower: PathWord, upper: PathWord) -> "Region":
        """Wrap two paths the caller already knows to bound a region."""
        region = cls.__new__(cls)
        region.lower, region.upper, region.size = lower, upper, lower.m + lower.r
        return region

    @property
    def m(self) -> int:
        return self.lower.m

    @property
    def r(self) -> int:
        return self.lower.r

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Region)
            and self.lower == other.lower
            and self.upper == other.upper
        )

    def __hash__(self) -> int:
        return hash((self.lower.word, self.upper.word))

    def __repr__(self) -> str:
        return f"Region({self.lower.word!r}, {self.upper.word!r})"


def region_from_words(lower: str, upper: str) -> Region:
    return Region(PathWord(lower), PathWord(upper))


# The cut rule: regions with fewer elements are listed as one walk (cut 0),
# larger ones split at n // 2.  Split there, bases and paths took 1.3x-1.8x
# as long as one walk on the regions of 5-7 elements, 1.07x-1.14x on
# random ones of 8-9, 0.94x-0.98x at 10 and 0.5x-0.7x at 12-16 (Python 3.11).
MEET_MIN_SIZE = 10

Walk = Iterable[tuple[bytearray, list[int]]]  # each path's steps (0 for E, 1 for N) and heights
_EMPTY_HEAD = ((bytearray(), [0]),)  # the one head at cut 0


def _walk(low: tuple[int, ...], high: tuple[int, ...], start: int, stop: int, height: int) -> Walk:
    """Steps start + 1..stop of the paths between the profiles ``low`` and
    ``high`` that stand at ``height`` after ``start`` steps, in
    lexicographic order.  Each is yielded as the walk's own bytearray of
    steps (0 for E, 1 for N) and list of heights after steps start..stop,
    which the next path overwrites.

    Every prefix inside a region extends to a path, so the walk never
    backtracks out of a dead end: it writes the lowest completion, E
    wherever the lower path allows it, stacks each E whose N would stay
    under the upper path, then pops the last of them, raises it and
    completes again.  A path costs the steps the walk rewrites, with no
    scan back and no recursion.  The end height is free before the
    region's last step and r at it.
    """
    p = low[start + 1 : stop + 1]
    q = high[start + 1 : stop + 1]
    k = stop - start
    bits = bytearray(k)
    heights = [height] * (k + 1)
    state = bits, heights
    raisable: list[int] = []
    i = 0
    h = height
    while True:
        while i < k:
            if h < p[i]:
                bits[i] = 1
                h += 1
            else:
                bits[i] = 0
                if h < q[i]:
                    raisable.append(i)
            i += 1
            heights[i] = h
        yield state
        if not raisable:
            return
        i = raisable.pop()
        bits[i] = 1
        h = heights[i] + 1
        i += 1
        heights[i] = h


def path_halves(region: Region) -> tuple[int, Walk, dict[int, Walk]]:
    """The region's paths as prefix x suffix products (meet in the middle):
    ``(cut, heads, tails)``.

    ``heads`` walks the paths' first ``cut`` steps and ``tails[y]`` the
    rest of those at height y after the cut (see :func:`_walk`).  The
    paths in lexicographic order are each head followed by every tail
    from its end height, so a caller converts each piece once and pays one
    concatenation per path.  The cut is n // 2 from ``MEET_MIN_SIZE``
    elements up; below it, the cut is 0, the one head is empty and
    ``tails[0]`` walks the paths themselves.

    Each walk can be read once, and every item it yields is the same
    bytearray and height list, overwritten by the next: a caller converts
    an item before it advances the walk (``list(tails[y])`` holds one
    path many times over).
    """
    p = region.lower.profile
    q = region.upper.profile
    n = region.size
    if n < MEET_MIN_SIZE:
        return 0, _EMPTY_HEAD, {0: _walk(p, q, 0, n, 0)}
    cut = n // 2
    tails = {y: _walk(p, q, cut, n, y) for y in range(p[cut], q[cut] + 1)}
    return cut, _walk(p, q, 0, cut, 0), tails


def enumerate_paths(region: Region) -> list[PathWord]:
    """All paths between the bounding pair, in lexicographic word order (E < N).

    The count equals the number of bases of the associated matroid.  Each
    tail of :func:`path_halves` is wrapped once with its letters and
    heights, and each path joins a head's word and profile to a tail's:
    one str and one tuple concatenation per path.  The path objects are
    filled in place, not through a call each.
    """
    cut, heads, tails = path_halves(region)
    lower = region.lower
    m, r = lower.m, lower.r
    new = PathWord.__new__
    ends: dict[int, list[PathWord]] = {}
    for y, walk in tails.items():
        ends[y] = pieces = []
        for s, h in walk:
            path = new(PathWord)
            path.word, path.profile, path.m, path.r = s.translate(_STEP_LETTERS).decode(), tuple(h), m, r
            pieces.append(path)
    if not cut:
        # The one head is empty and the tails are the paths.  Joining them to
        # it anyway took 1.2x as long over all_regions(7) (Python 3.11).
        return ends[0]
    out: list[PathWord] = []
    for s, h in heads:
        word = s.translate(_STEP_LETTERS).decode()
        heights = tuple(h[:-1])
        for t in ends[h[-1]]:
            path = new(PathWord)
            path.word, path.profile, path.m, path.r = word + t.word, heights + t.profile, m, r
            out.append(path)
    return out


Bound = tuple[str, tuple[int, ...]]  # a bounding path's word and height profile


def fix_letter(region: Region, i: int, value: int) -> tuple[Bound, Bound] | None:
    """The lowest and highest paths of the region whose i-th letter (1 <= i
    <= n) is N (``value`` 1) or E (``value`` 0), over all n steps; None if
    there are none.

    Where a bounding word has the other letter at i, the nearest letter to
    fix moves there: for N, the lower word's next N after i and the upper
    word's last N before i; for E, the lower word's last E before i and the
    upper word's next E after i.  The letters it passes are all the other
    letter, so the profile's one rebuilt window, which starts at step i or
    ends at step i - 1, is flat (fixing N) or climbs one per step (fixing
    E), and the gap between the paths is narrowest at its end next to step
    i.  Both words take the same letter i, so the paths cross, if at all,
    at step i.
    """
    step = "EN"[value]
    out = []
    for path, ahead in ((region.lower, value), (region.upper, not value)):
        w, h = path.word, path.profile
        if w[i - 1] != step:
            if ahead:  # the next letter to fix moves back to i
                a, b = i - 1, w.find(step, i)
                if b < 0:
                    return None
                w = w[:a] + step + w[a:b] + w[b + 1 :]
                window = (h[a] + 1,) * (b - a) if value else h[a:b]
            else:  # the last letter to fix before i moves on to it
                a, b = w.rfind(step, 0, i - 1), i - 1
                if a < 0:
                    return None
                w = w[:a] + w[a + 1 : i] + step + w[i:]
                window = (h[a],) * (b - a) if value else h[a + 2 : i + 1]
            h = h[: a + 1] + window + h[b + 1 :]
        out.append((w, h))
    lower, upper = out
    return None if lower[1][i] > upper[1][i] else (lower, upper)


def pin(region: Region, x: int, j: int) -> tuple[Bound, Bound] | None:
    """The lowest and highest paths of the region at height j after x
    steps (0 <= x <= n), over all n steps; None if there are none.  Their
    bases form a pinched face of the region's polytope, which is also the
    shared facet of a hyperplane split.

    A bounding path through the point comes back as it is; otherwise one
    window of its word and profile is rewritten.  The raised lower path,
    max(p_i, j - max(0, x - i)), climbs to j over steps e + 1..x, which
    hold the lower word's last j - p_x E steps up to x, and waits at j up
    to t, where the lower path reaches j.  The capped upper path, min(q_i,
    j + max(0, i - x)), waits at j from a, the upper word's (j+1)-th N, to
    x, then climbs to meet the upper path at its (q_x - j)-th E after x.

    >>> pin(region_from_words("EENN", "NNEE"), 2, 1)
    (('ENEN', (0, 0, 1, 1, 2)), ('NENE', (0, 1, 1, 2, 2)))
    """
    w, p = region.lower.word, region.lower.profile
    v, q = region.upper.word, region.upper.profile
    if not p[x] <= j <= q[x]:
        return None
    if p[x] < j:
        t = p.index(j, x)
        e = x
        for _ in range(j - p[x]):
            e = w.rfind("E", 0, e)
        w, p = (
            w[:e] + "N" * (x - e) + "E" * (t - x) + w[t:],
            p[: e + 1] + tuple(range(p[e] + 1, j + 1)) + (j,) * (t - x) + p[t + 1 :],
        )
    if q[x] > j:
        a = q.index(j + 1)
        meet = x
        for _ in range(q[x] - j):
            meet = v.find("E", meet) + 1
        v, q = (
            v[: a - 1] + "E" * (x - a + 1) + "N" * (meet - x) + v[meet:],
            q[:a] + (j,) * (x - a + 1) + tuple(range(j + 1, j + 1 + meet - x)) + q[meet + 1 :],
        )
    return (w, p), (v, q)


def touch_count(low: tuple[int, ...], high: tuple[int, ...]) -> int:
    """Positions where two height profiles agree, endpoints included: for a
    region's bounding paths, its touch points, and n + 1 less its dimension."""
    return sum(map(eq, low, high))


def intersection_vertices(region: Region) -> list[tuple[int, int]]:
    """Lattice points shared by the two bounding paths, endpoints included."""
    p = region.lower.profile
    q = region.upper.profile
    return [(i - p[i], p[i]) for i in range(region.size + 1) if p[i] == q[i]]


def area_below(path: PathWord) -> int:
    """Unit squares between the path and the all-E-then-all-N path.

    Equals the sum, over E steps, of the height at which the step is taken.

    >>> area_below(PathWord("NENE"))
    3
    """
    return sum(path.east_step_heights())


def region_boxes(region: Region) -> tuple[Box, ...]:
    """All boxes weakly between the paths, sorted by (col, row); empty iff lower = upper."""
    lo = region.lower.east_step_heights()
    hi = region.upper.east_step_heights()
    return tuple(
        Box(col, row)
        for col in range(1, region.m + 1)
        for row in range(lo[col - 1] + 1, hi[col - 1] + 1)
    )


def rectangle_region(m: int, r: int) -> Region:
    """The full m-by-r rectangle: every path with m E and r N steps is allowed."""
    return region_from_words("E" * m + "N" * r, "N" * r + "E" * m)


def hypersimplex_region(k: int, n: int) -> Region:
    """Rectangle whose polytope is the hypersimplex of 0/1 points with k ones in n slots."""
    if not 0 < k < n:
        raise ValueError(f"need 0 < k < n, got k={k}, n={n}")
    return rectangle_region(n - k, k)


def catalan_region(n: int) -> Region:
    """Staircase region under the diagonal of an n-by-n square, one loop and one coloop."""
    return region_from_words("E" * n + "N" * n, "EN" * n)


def reduced_catalan_region(n: int) -> Region:
    """The connected core of ``catalan_region(n + 1)``, a region on 2n elements."""
    return region_from_words("E" * n + "N" * n, "NE" * n)


def kcatalan_region(width: int, n: int) -> Region:
    """Staircase with steps of width E-steps per N step, on (width+1)(n-1) elements."""
    return region_from_words(
        "E" * (width * (n - 1)) + "N" * (n - 1), ("N" + "E" * width) * (n - 1)
    )
