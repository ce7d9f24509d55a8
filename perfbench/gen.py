"""Seeded inputs and the benchmark's own counts, computed from E/N words only.

Nothing here imports lpmpoly: the counts below are an independent route to
the library's answers, and they drive the stratified choice of random
regions that keeps the work of a run nearly the same from seed to seed.
"""

from __future__ import annotations

import math
import random
from itertools import accumulate, combinations, product
from typing import Callable


def profile(word: str) -> tuple[int, ...]:
    """Heights after each step, the leading 0 included."""
    out = [0]
    for step in word:
        out.append(out[-1] + (step == "N"))
    return tuple(out)


def word_of(heights) -> str:
    return "".join("N" if b > a else "E" for a, b in zip(heights, heights[1:]))


def count_paths(
    lower: str,
    upper: str,
    forced: tuple[int, str] | None = None,
    pin: tuple[int, int] | None = None,
) -> int:
    """Paths between the bounds, by a DP over heights.

    ``forced = (i, letter)`` fixes step i (1-based); ``pin = (i, h)`` keeps
    only the paths at height h after i steps.
    """
    lo, hi = profile(lower), profile(upper)
    cur = {0: 1}
    for i in range(1, len(lower) + 1):
        nxt: dict[int, int] = {}
        for h, ways in cur.items():
            for letter, h2 in (("E", h), ("N", h + 1)):
                if not lo[i] <= h2 <= hi[i]:
                    continue
                if forced and forced[0] == i and forced[1] != letter:
                    continue
                if pin and pin[0] == i and pin[1] != h2:
                    continue
                nxt[h2] = nxt.get(h2, 0) + ways
        cur = nxt
    return sum(cur.values())


def list_paths(lower: str, upper: str) -> list[str]:
    """Every path word between the bounds, in lexicographic order (E < N)."""
    lo, hi = profile(lower), profile(upper)
    words = [("", 0)]
    for i in range(1, len(lower) + 1):
        words = [
            (w + letter, h2)
            for w, h in words
            for letter, h2 in (("E", h), ("N", h + 1))
            if lo[i] <= h2 <= hi[i]
        ]
    return [w for w, _ in words]


def touch_points(lower: str, upper: str) -> list[int]:
    """Step counts 0..n at which the two bounding paths meet."""
    lo, hi = profile(lower), profile(upper)
    return [i for i in range(len(lo)) if lo[i] == hi[i]]


def boxes(lower: str, upper: str) -> set[tuple[int, int]]:
    """Unit boxes (col, row) between the paths, 1-based."""
    def east_heights(word):
        h, out = 0, []
        for step in word:
            if step == "N":
                h += 1
            else:
                out.append(h)
        return out

    lo, hi = east_heights(lower), east_heights(upper)
    return {(c + 1, r) for c in range(len(lo)) for r in range(lo[c] + 1, hi[c] + 1)}


def strip_paths(lower: str, upper: str, up_weight: int = 1) -> int:
    """Monotone box paths from the first box to the last, each up step weighted.

    With weight 1 this is the number of border strips; with weight 2 it is
    the number of inclusion-exclusion terms the strip volumes sum over.
    """
    cells = boxes(lower, upper)
    if not cells:
        return 1
    first, last = min(cells), max(cells)
    f: dict[tuple[int, int], int] = {}
    for c, r in sorted(cells):
        if (c, r) == first:
            f[(c, r)] = 1
        elif c <= last[0] and r <= last[1]:
            f[(c, r)] = f.get((c - 1, r), 0) + up_weight * f.get((c, r - 1), 0)
    return f.get(last, 0)


def has_square(cells: set[tuple[int, int]]) -> bool:
    return any(
        (c + 1, r) in cells and (c, r + 1) in cells and (c + 1, r + 1) in cells
        for c, r in cells
    )


def corner_count(lower: str, upper: str) -> int:
    """Interior ends of the upper path's E runs plus of the lower path's N runs."""
    n = len(lower)
    return sum(
        1
        for word, letter in ((upper, "E"), (lower, "N"))
        for i in range(1, n)
        if word[i - 1] == letter and word[i] != letter
    )


def descent_class_size(n: int, descents: frozenset[int]) -> int:
    """Permutations of [n] with exactly this descent set, by the rank-of-last DP."""
    if n == 0:
        return 1
    ways = [1]  # ways[j]: prefixes of length i whose last value ranks j+1 among them
    for i in range(1, n):
        prefix = [0]
        for w in ways:
            prefix.append(prefix[-1] + w)
        if i in descents:  # next value ranks below the last one
            ways = [prefix[i] - prefix[j] for j in range(i + 1)]
        else:
            ways = [prefix[j] for j in range(i + 1)]
    return sum(ways)


def strip_descents(direction: str) -> frozenset[int]:
    return frozenset(i for i, d in enumerate(direction, start=1) if d == "U")


def _envelope(rng: random.Random, n: int, r: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Pointwise min and max of the profiles of two random words with r N steps."""
    a, b = [0] * n, [0] * n
    for i in rng.sample(range(n), r):
        a[i] = 1
    for i in rng.sample(range(n), r):
        b[i] = 1
    pa, pb = (0, *accumulate(a)), (0, *accumulate(b))
    return tuple(map(min, pa, pb)), tuple(map(max, pa, pb))


def random_connected(rng: random.Random, n: int) -> tuple[str, str] | None:
    """A random region on n elements; None when its bounds touch inside."""
    lo, hi = _envelope(rng, n, rng.randint(1, n - 1))
    if lo[1] == hi[1] or any(map(int.__eq__, lo[2:n], hi[2:n])):
        return None
    return word_of(lo), word_of(hi)


def stratified_regions(
    rng: random.Random,
    groups: list[tuple[list[int], Callable[[str, str], int]]],
    draws: int,
    sizes: tuple[int, int] = (14, 20),
    tolerance: float = 1.25,
) -> list[list[tuple[str, str]]]:
    """Random connected regions matched to the targets of each (targets, measure) group.

    Each target takes the unused region whose measure is nearest to it in
    ratio, and only within ``tolerance``; targets left open draw another
    quarter batch.  About one draw in forty is connected, so the first batch
    fixes most of the set-up time.  Groups are served in order, so list the
    group whose targets are rarest first.  Fixing the measure of every pick
    keeps the work of a group almost independent of the seed, while the
    shapes still vary with it.  Each group comes back in target order.
    """
    pool: dict[tuple[str, str], None] = {}  # in draw order, which breaks ties
    taken: set[tuple[str, str]] = set()
    values: list[dict[tuple[str, str], int]] = [{} for _ in groups]
    picked: list[dict[int, tuple[str, str]]] = [{} for _ in groups]
    batch = draws
    for _ in range(40):
        for _ in range(batch):
            pair = random_connected(rng, rng.randint(*sizes))
            if pair is not None and pair not in taken:
                pool[pair] = None
        for (targets, measure), known, got in zip(groups, values, picked):
            for pair in pool:
                if pair not in known:
                    known[pair] = measure(*pair)
            for k, target in enumerate(targets):
                if k in got or not pool:
                    continue
                best = min(pool, key=lambda pair: abs(math.log(known[pair] / target)))
                if abs(math.log(known[best] / target)) <= math.log(tolerance):
                    got[k] = best
                    del pool[best]
                    taken.add(best)
        if all(len(got) == len(targets) for got, (targets, _) in zip(picked, groups)):
            return [[got[k] for k in sorted(got)] for got in picked]
        batch = draws // 4
    raise RuntimeError("random regions do not reach every target")


def geometric(lo: float, hi: float, count: int) -> list[int]:
    return [round(lo * (hi / lo) ** (k / (count - 1))) for k in range(count)]


def random_small_region(rng: random.Random, max_size: int) -> tuple[str, str]:
    """A random region on 2..max_size elements, connected or not."""
    n = rng.randint(2, max_size)
    lo, hi = _envelope(rng, n, rng.randint(0, n))
    return word_of(lo), word_of(hi)


def all_regions(max_size: int) -> list[tuple[str, str]]:
    """Every region with 1..max_size ground elements, as (lower, upper) words."""
    out = []
    for n in range(1, max_size + 1):
        for r in range(n + 1):
            words = ["".join("N" if i in s else "E" for i in range(n)) for s in map(set, combinations(range(n), r))]
            profs = [profile(w) for w in words]
            for lw, lp in zip(words, profs):
                for uw, up in zip(words, profs):
                    if all(a <= b for a, b in zip(lp, up)):
                        out.append((lw, uw))
    return out


def strip_words(length: int) -> list[str]:
    """Direction words (R east, U north) of the strips with ``length`` boxes."""
    return ["".join(d) for d in product("RU", repeat=length - 1)]


def staircase(n: int) -> tuple[str, str]:
    """Reduced Catalan staircase on 2n elements."""
    return "E" * n + "N" * n, "NE" * n


def kcatalan(width: int, n: int) -> tuple[str, str]:
    return "E" * (width * (n - 1)) + "N" * (n - 1), ("N" + "E" * width) * (n - 1)


def rectangle(m: int, r: int) -> tuple[str, str]:
    return "E" * m + "N" * r, "N" * r + "E" * m


def eulerian(k: int, n: int) -> int:
    """Permutations of [n] with exactly k - 1 descents."""
    row = [1]
    for m in range(2, n + 1):
        row = [
            (j + 1) * (row[j] if j < len(row) else 0) + (m - j) * (row[j - 1] if j else 0)
            for j in range(m)
        ]
    return row[k - 1]


def dilation_points(n: int, r: int, t: int) -> int:
    """Integer points of t times the hypersimplex: 0 <= x_i <= t summing to t*r."""
    ways = [1]
    for _ in range(n):
        nxt = [0] * (len(ways) + t)
        for s, w in enumerate(ways):
            for step in range(t + 1):
                nxt[s + step] += w
        ways = nxt
    return ways[t * r]
