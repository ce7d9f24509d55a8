"""The transversal matroid of a region: presentations, bases, components, minors.

Ground set is 1..m+r.  The i-th interval runs from the position of the i-th
N step of the upper path to that of the lower path; a set is independent
when it is a partial transversal of those intervals, and the bases are
exactly the N-position sets of the paths inside the region.
"""

from __future__ import annotations

from itertools import compress
from operator import eq
from typing import Iterable, Iterator, NamedTuple

from .errors import EmptyFace
from .paths import PathWord, Region, fix_letter, path_halves, touch_count


class _Intervals(NamedTuple):
    intervals: tuple[tuple[int, int], ...]


class IntervalPresentation(_Intervals):
    """One integer interval per rank, both endpoint lists strictly increasing."""

    __slots__ = ()

    def __new__(cls, intervals: tuple[tuple[int, int], ...]):
        for lo, hi in intervals:
            if lo > hi:
                raise ValueError(f"empty interval [{lo},{hi}]")
        lows = [lo for lo, _ in intervals]
        highs = [hi for _, hi in intervals]
        if sorted(set(lows)) != lows or sorted(set(highs)) != highs:
            raise ValueError("interval endpoints must be strictly increasing")
        return tuple.__new__(cls, (intervals,))


class BasisVector(NamedTuple):
    """0/1 incidence vector of a basis together with its support."""

    coords: tuple[int, ...]
    support: tuple[int, ...]


class Block(NamedTuple):
    """Ground-set interval [start, stop] flagged loop / coloop / block."""

    start: int
    stop: int
    kind: str


class ComponentPartition(NamedTuple):
    blocks: tuple[Block, ...]

    @property
    def count(self) -> int:  # shadows tuple.count
        return len(self.blocks)


def presentation(region: Region) -> IntervalPresentation:
    """Read the intervals off the N positions of the upper and lower paths.

    Both position lists increase strictly and each upper position is at
    most the lower one, so the constructor's checks are skipped here.
    """
    lows = region.upper.north_positions()
    highs = region.lower.north_positions()
    return tuple.__new__(IntervalPresentation, (tuple(zip(lows, highs)),))


def is_independent(pres: IntervalPresentation, subset: Iterable[int]) -> bool:
    """Greedy partial-transversal test: match each element to the tightest interval.

    Elements are scanned in increasing order and each takes the unused
    interval with the smallest upper endpoint still containing it; for
    interval systems this greedy is exact.
    """
    used = [False] * len(pres.intervals)
    for e in sorted(set(subset)):
        best = None
        for idx, (lo, hi) in enumerate(pres.intervals):
            if not used[idx] and lo <= e <= hi:
                if best is None or hi < pres.intervals[best][1]:
                    best = idx
        if best is None:
            return False
        used[best] = True
    return True


def bases(region: Region) -> Iterator[BasisVector]:
    """Basis vectors in lexicographic coordinate order, bijective with the
    paths.

    Read off :func:`paths.path_halves` on 0/1 steps: each tail becomes a
    basis vector over the steps after the cut, each head its coordinate
    tuple and support, and a basis costs one concatenation of each.
    """
    cut, heads, tails = path_halves(region)
    tail_ground = range(cut + 1, region.size + 1)
    new = tuple.__new__
    ends = {
        y: [new(BasisVector, (tuple(s), tuple(compress(tail_ground, s)))) for s, _ in walk]
        for y, walk in tails.items()
    }
    if not cut:
        # The one head is empty and the tails are the bases.  Joining them to
        # it anyway took 1.2x as long over all_regions(7) (Python 3.11).
        yield from ends[0]
        return
    head_ground = range(1, cut + 1)
    for s, h in heads:
        coords = tuple(s)
        support = tuple(compress(head_ground, s))
        yield from [new(BasisVector, (coords + c, support + t)) for c, t in ends[h[-1]]]


def components(region: Region) -> ComponentPartition:
    """Split the ground set at the interior points where the bounding paths meet.

    Each length-1 segment is a forced step: a loop when both paths take E
    there, a coloop when both take N.
    """
    p = region.lower.profile
    q = region.upper.profile
    touch = list(compress(range(region.size + 1), map(eq, p, q)))
    blocks = []
    for a, b in zip(touch, touch[1:]):
        if b - a == 1:
            kind = "coloop" if p[b] == p[a] + 1 else "loop"
        else:
            kind = "block"
        blocks.append(Block(a + 1, b, kind))
    return ComponentPartition(tuple(blocks))


def is_connected(region: Region) -> bool:
    return touch_count(region.lower.profile, region.upper.profile) == 2


def delete(region: Region, i: int, value: int) -> Region:
    """Fix coordinate ``i`` to ``value`` and drop it; the surviving paths form a region.

    Cut from the bounding words in O(n), with no path enumeration: the
    letter surgery :func:`paths.fix_letter` moves at most one letter of
    each word to give the lowest and highest paths with ``value`` at i, and
    letter i is then cut from both.  No such path leaves no basis.

    >>> from lpmpoly.paths import region_from_words
    >>> octahedron = region_from_words("EENN", "NNEE")
    >>> delete(octahedron, 1, 0), delete(octahedron, 1, 1)
    (Region('ENN', 'NNE'), Region('EEN', 'NEE'))
    >>> delete(region_from_words("EN", "EN"), 1, 1)  # element 1 is a loop
    Traceback (most recent call last):
    ...
    lpmpoly.errors.EmptyFace: no basis has coordinate 1 equal to 1
    """
    if value not in (0, 1):
        raise ValueError("value must be 0 or 1")
    if region.size == 1:
        raise ValueError("cannot delete the last ground element")
    if not 1 <= i <= region.size:
        raise ValueError(f"coordinate {i} is outside 1..{region.size}")
    bounds = fix_letter(region, i, value)
    if bounds is None:
        raise EmptyFace(f"no basis has coordinate {i} equal to {value}")
    (w, p), (v, q) = bounds
    if value:  # the cut N lowers every later height by one
        p, q = p[:i] + tuple([h - 1 for h in p[i + 1 :]]), q[:i] + tuple([h - 1 for h in q[i + 1 :]])
    else:
        p, q = p[:i] + p[i + 1 :], q[:i] + q[i + 1 :]
    m, r = region.lower.m - 1 + value, region.lower.r - value
    lower = PathWord._from_profile(w[: i - 1] + w[i:], p, m, r)
    return Region._from_paths(lower, PathWord._from_profile(v[: i - 1] + v[i:], q, m, r))
