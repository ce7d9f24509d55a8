"""Brute-force ground truth, deliberately naive and exhaustive.

These routines re-derive everything from first principles (subset scans,
convex-hull membership, bijective fillings, circuit enumeration) so that
the main modules can be checked against them.  Size caps keep every call
at desk scale.  They are the second routes to the hot paths' quantities:
facets by affine rank, with their own choice of representative;
descent-class counts by inclusion-exclusion rather than the box DP;
triangulation cells by a full permutation scan rather than generation,
one scan per length bucketed by inverse descent set, and their vertices
by the pull-back through the prefix-sum map ``psi`` on integer
numerators rather than the generator's walk state;
dilation counts, plain and relative-interior, by one stepwise DP that
adds each step separately rather than by window sums;
border strips by a walk over the box set rather than the column ranges;
the Ehrhart double sum term by term over every slack array rather than by
a transfer chain.

Adjacency is the midpoint test on the vertex list alone, never the swap
rule or the matroid.  It runs on the midpoint's cube face: a convex
combination of 0/1 points that hits a point of a face of the cube uses
only points of that face, so the vertices that disagree with the pair
where the pair agrees cannot take part, and a pair that no other vertex
shares a face with is an edge without an LP.

Each oracle's size cap is one module constant, and the oracle's guard
reads it and raises ``TooLarge`` above it: ``BASES_CAP`` ground elements
for ``brute_bases``, ``ADJACENT_CAP`` vertices for ``brute_adjacent``,
``FACETS_CAP`` ground elements for ``brute_facets``, ``SYT_CAP`` boxes for
``brute_syt``, ``SCAN_CAP`` letters for ``scan_inverse_descents``,
``COMPONENTS_CAP`` ground elements for ``brute_components`` and
``SWEEP_CAP`` ground elements for ``all_regions``, the sweep every region
check walks.  ``verify.CHECKS`` clamps each size that follows
``--max-size`` at the cap of the oracle the size feeds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, permutations
from math import comb
from typing import Iterable, Iterator, Sequence

from .decompose import BorderStrip
from .ehrhart import multichoose
from .errors import TooLarge, WrongChamber
from .matroid import components
from .paths import Box, PathWord, Region, region_boxes
from .polytope import Candidate, Facet, dimension, h_representation, vertices
from .ratlinalg import affine_rank, in_convex_hull
from .volume import catalan_number

BASES_CAP = 12
ADJACENT_CAP = 40
FACETS_CAP = 9
SYT_CAP = 9
SCAN_CAP = 10
COMPONENTS_CAP = 8
SWEEP_CAP = 9


def brute_bases(region: Region) -> set[frozenset[int]]:
    """Every r-subset whose N-step path stays inside the region."""
    n = region.size
    if n > BASES_CAP:
        raise TooLarge(f"brute basis scan is capped at {BASES_CAP} ground elements")
    p = region.lower.profile
    q = region.upper.profile
    found = set()
    for subset in combinations(range(1, n + 1), region.r):
        chosen = set(subset)
        h = 0
        ok = True
        for i in range(1, n + 1):
            if i in chosen:
                h += 1
            if not p[i] <= h <= q[i]:
                ok = False
                break
        if ok:
            found.add(frozenset(subset))
    return found


def brute_adjacent(verts: list[tuple[int, ...]], i: int, j: int) -> bool:
    """Midpoint test on 0/1 vertices: an edge iff the midpoint escapes the
    hull of the others.

    Only the others on the midpoint's cube face take part.  The midpoint
    keeps every coordinate where ``verts[i]`` and ``verts[j]`` agree, and a
    convex combination of 0/1 points that hits a point of a face of the
    cube uses only points of that face.  So the hull test runs on the
    other vertices that agree with ``verts[i]`` there, projected to the
    coordinates where the pair differs, with the midpoint all halves; a
    pair with no such vertex is an edge without an LP.
    """
    if len(verts) > ADJACENT_CAP:
        raise TooLarge(f"adjacency oracle is capped at {ADJACENT_CAP} vertices")
    u, v = verts[i], verts[j]
    free = [c for c, (a, b) in enumerate(zip(u, v)) if a != b]
    fixed = [(c, a) for c, (a, b) in enumerate(zip(u, v)) if a == b]
    face = [
        tuple(w[c] for c in free)
        for k, w in enumerate(verts)
        if k != i and k != j and all(w[c] == a for c, a in fixed)
    ]
    if not face:
        return True
    return not in_convex_hull(face, [Fraction(1, 2)] * len(free))


PREFER_BOX_LOWER, PREFER_BOX_UPPER, PREFER_PREFIX_UPPER, PREFER_PREFIX_LOWER = range(4)


def _facet_key(region: Region, kind: str, position: int) -> tuple:
    """Canonical order of candidates: box bounds first, then prefix bounds,
    those at a corner of their path (EN on the upper, NE on the lower) first."""
    if kind == "prefix_upper":
        corner = region.upper.word[position - 1 : position + 1] == "EN"
        return (PREFER_PREFIX_UPPER, not corner, position)
    if kind == "prefix_lower":
        corner = region.lower.word[position - 1 : position + 1] == "NE"
        return (PREFER_PREFIX_LOWER, not corner, position)
    return (PREFER_BOX_LOWER if kind == "x_lower" else PREFER_BOX_UPPER, False, position)


def certify_facet_candidates(region: Region, candidates: list[Candidate]) -> list[Facet]:
    """Keep candidates whose tight vertex sets have affine rank dim - 1.

    Candidates cutting the same facet (identical tight sets) collapse to the
    first in canonical order, and the facets come out in that order.
    """
    verts = vertices(region)
    dim = dimension(region)
    if dim <= 0:
        return []
    first: dict[tuple[int, ...], Candidate] = {}
    for kind, position, cons in sorted(candidates, key=lambda c: _facet_key(region, *c[:2])):
        tight = tuple(k for k, v in enumerate(verts) if cons.tight(v))
        if tight and len(tight) < len(verts):
            first.setdefault(tight, (kind, position, cons))
    return [
        Facet(cons, tight, kind, position)
        for tight, (kind, position, cons) in first.items()
        if affine_rank([verts[k] for k in tight], cap=dim - 1) == dim - 1
    ]


def brute_facets(region: Region) -> list[Facet]:
    """Rank-certify every inequality of the full prefix/box description."""
    if region.size > FACETS_CAP:
        raise TooLarge(f"facet oracle is capped at {FACETS_CAP} ground elements")
    n = region.size
    candidates = []
    for cons in h_representation(region).inequalities:
        support = [t for t, c in enumerate(cons.coeffs) if c]
        if len(support) == 1:
            kind = "x_upper" if cons.rel == "<=" else "x_lower"
            position = support[0] + 1
        else:
            kind = "prefix_upper" if cons.rel == "<=" else "prefix_lower"
            position = len(support)
        candidates.append((kind, position, cons))
    return certify_facet_candidates(region, candidates)


def swap_edges(region: Region) -> list[tuple[int, int]]:
    """Vertex-index pairs one swap apart: try every 1/0 exchange, look the result up."""
    verts = vertices(region)
    index = {v: k for k, v in enumerate(verts)}
    out = []
    for k, v in enumerate(verts):
        ones = [i for i, x in enumerate(v) if x]
        zeros = [i for i, x in enumerate(v) if not x]
        for a in ones:
            for b in zeros:
                w = list(v)
                w[a], w[b] = 0, 1
                other = index.get(tuple(w))
                if other is not None and other > k:
                    out.append((k, other))
    return sorted(out)


def projected_face(words: Iterable[str], i: int, value: int) -> set[str]:
    """The path words whose i-th letter encodes ``value``, with that letter cut out.

    ``words`` are a region's path words, listed once by ``enumerate_paths``
    and shared by every (i, value) the caller projects.
    """
    letter = "N" if value else "E"
    return {word[: i - 1] + word[i:] for word in words if word[i - 1] == letter}


def stepwise_count(region: Region, t: int, interior: bool = False) -> int:
    """Points of the t-th dilation, adding each prefix sum into its successors
    one step at a time.

    With ``interior`` the points are those of the relative interior: inside
    each connected block of ``components`` every step runs over 1..t-1 and
    every prefix sum short of the block's end lies strictly between its
    bounds; loops, coloops and the prefix sums at the block ends keep their
    plain ranges, which pin them.
    """
    if t < 0:
        raise ValueError("dilation must be nonnegative")
    strict_steps: set[int] = set()
    strict_sums: set[int] = set()
    for block in components(region).blocks if interior else ():
        if block.kind == "block":
            strict_steps.update(range(block.start, block.stop + 1))
            strict_sums.update(range(block.start, block.stop))
    p = region.lower.profile
    q = region.upper.profile
    cur = {0: 1}
    for i in range(1, region.size + 1):
        strict = i in strict_sums
        lo, hi = t * p[i] + strict, t * q[i] - strict
        steps = range(1, t) if i in strict_steps else range(0, t + 1)
        nxt: dict[int, int] = {}
        for c, ways in cur.items():
            for step in steps:
                if lo <= c + step <= hi:
                    nxt[c + step] = nxt.get(c + step, 0) + ways
        cur = nxt
        if not cur:
            return 0
    return cur.get(t * region.r, 0)


def s_set(r: int, t: int) -> list[tuple[int, ...]]:
    """Nonnegative arrays of length 2(r-1) whose adjacent pairs total at most t."""
    if r < 1:
        raise ValueError("rank must be at least 1")
    length = 2 * (r - 1)
    if length == 0:
        return [()]
    # One entry at a time, each array extended in order, so the list stays
    # lexicographic.
    arrays: list[tuple[int, ...]] = [(v,) for v in range(t + 1)]
    for _ in range(length - 1):
        arrays = [arr + (v,) for arr in arrays for v in range(t - arr[-1] + 1)]
    return arrays


def literal_double_sum(r: int, t: int, compositions: list[tuple[int, ...]]) -> int:
    """The double-sum candidate for the dilation count, one term per slack array."""
    if r == 0:
        return 1
    total = 0
    svals = s_set(r, t)
    for alpha in compositions:
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


def exact_descent_count(n: int, descents: Iterable[int]) -> int:
    """Permutations of [n] with descent set exactly the given positions.

    Inclusion-exclusion over subsets of the descent set, each term a
    multinomial counting the permutations with descents confined to it.
    2^|D| terms: the oracle for ``volume.strip_volume``.
    """
    d = sorted(set(descents))
    if any(not 1 <= i <= n - 1 for i in d):
        raise ValueError(f"descent positions must lie in 1..{n - 1}")

    def confined(positions: tuple[int, ...]) -> int:
        total = 1
        prev = 0
        remaining = n
        for cut in positions:
            total *= comb(remaining, cut - prev)
            remaining -= cut - prev
            prev = cut
        return total

    result = 0
    for mask in range(1 << len(d)):
        chosen = tuple(d[i] for i in range(len(d)) if mask >> i & 1)
        sign = -1 if (len(d) - len(chosen)) % 2 else 1
        result += sign * confined(chosen)
    return result


def brute_syt(strip: BorderStrip) -> int:
    """Count standard fillings directly: increase East, decrease North."""
    size = len(strip)
    if size > SYT_CAP:
        raise TooLarge(f"filling oracle is capped at {SYT_CAP} boxes")
    dirs = strip.direction_word
    used = [False] * (size + 1)

    def place(i: int, prev: int) -> int:
        if i == size:
            return 1
        if i == 0:
            values: Iterator[int] = range(1, size + 1)
        elif dirs[i - 1] == "R":
            values = range(prev + 1, size + 1)
        else:
            values = range(1, prev)
        total = 0
        for v in values:
            if not used[v]:
                used[v] = True
                total += place(i + 1, v)
                used[v] = False
        return total

    return place(0, 0)


def box_path_strips(region: Region) -> list[BorderStrip]:
    """``border_strips`` by a depth-first walk over the box set: one
    generator of successor boxes per box visited, each strip built and
    checked by the public ``BorderStrip``."""
    boxes = set(region_boxes(region))
    if not boxes:
        return [BorderStrip(())]
    first = min(boxes)
    last = max(boxes)
    if first == last:
        return [BorderStrip((first,))]

    def moves(b: Box) -> Iterator[Box]:
        for nxt in (Box(b.col + 1, b.row), Box(b.col, b.row + 1)):
            if nxt in boxes and nxt.col <= last.col and nxt.row <= last.row:
                yield nxt

    out: list[BorderStrip] = []
    trail: list[Box] = [first]
    branches = [moves(first)]  # branches[k]: untried successors of trail[k]
    while branches:
        nxt = next(branches[-1], None)
        if nxt is None:
            branches.pop()
            trail.pop()
        elif nxt == last:
            out.append(BorderStrip((*trail, nxt)))
        else:
            trail.append(nxt)
            branches.append(moves(nxt))
    return out


def descent_set(perm: tuple[int, ...]) -> frozenset[int]:
    """Positions i with perm[i-1] > perm[i], 1-based."""
    return frozenset(i for i in range(1, len(perm)) if perm[i - 1] > perm[i])


def inverse_permutation(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for pos, val in enumerate(perm, start=1):
        inv[val - 1] = pos
    return tuple(inv)


@lru_cache
def _bumps(w: tuple[int, ...]) -> tuple[int, ...]:
    """1 at index i >= 1 when i is a descent of w^-1 (i+1 precedes i in w); index 0 holds 0.
    Cached: ``psi_inverse_int`` calls it with one w for many points in a row."""
    inv = inverse_permutation(w)
    return tuple(1 if i and inv[i] < inv[i - 1] else 0 for i in range(len(w)))


def psi_int(x: Sequence[int], den: int) -> tuple[int, ...]:
    """The prefix-sum map ``psi`` on numerators over ``den``: the fractional
    parts of the prefix sums of ``x / den``, as numerators."""
    return tuple(acc % den for acc in accumulate(x))


def psi_inverse_int(w: tuple[int, ...], y: Sequence[int], den: int) -> tuple[int, ...]:
    """The inverse of ``psi_int`` on the closed simplex of order type ``w``,
    on numerators over ``den``: x_i = y_i - y_{i-1} + bump_i * den."""
    if len(y) != len(w):
        raise ValueError("point and permutation dimensions differ")
    chain = [y[v - 1] for v in w]
    if chain != sorted(chain) or (chain and not 0 <= chain[0] <= chain[-1] <= den):
        raise WrongChamber(f"point violates the order type of {w}")
    bumps = _bumps(w)
    return tuple(y[i] - (y[i - 1] if i else 0) + b * den for i, b in enumerate(bumps))


def scan_inverse_descents(d: int) -> dict[frozenset[int], list[tuple[int, ...]]]:
    """Every permutation w of 1..d, in lexicographic order, bucketed by the
    descent set of w^-1."""
    if d > SCAN_CAP:
        raise TooLarge(f"permutation scan is capped at {SCAN_CAP} letters")
    buckets: dict[frozenset[int], list[tuple[int, ...]]] = {}
    for w in permutations(range(1, d + 1)):
        buckets.setdefault(descent_set(inverse_permutation(w)), []).append(w)
    return buckets


def brute_components(region: Region) -> list[frozenset[int]]:
    """Classes of the relation "lies on a common circuit", circuits enumerated raw."""
    n = region.size
    if n > COMPONENTS_CAP:
        raise TooLarge(f"component oracle is capped at {COMPONENTS_CAP} ground elements")
    bases_sets = brute_bases(region)
    ground = list(range(1, n + 1))

    def independent(subset: frozenset[int]) -> bool:
        return any(subset <= b for b in bases_sets)

    dependents = [
        frozenset(c)
        for size in range(1, n + 1)
        for c in combinations(ground, size)
        if not independent(frozenset(c))
    ]
    circuits = [
        d for d in dependents if not any(o < d for o in dependents if o != d)
    ]
    parent = {e: e for e in ground}

    def find(e: int) -> int:
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    for circuit in circuits:
        members = sorted(circuit)
        for other in members[1:]:
            parent[find(other)] = find(members[0])
    classes: dict[int, set[int]] = {}
    for e in ground:
        classes.setdefault(find(e), set()).add(e)
    return sorted((frozenset(v) for v in classes.values()), key=min)


def all_paths(m: int, r: int) -> list[PathWord]:
    """Every word with m E steps and r N steps, in lexicographic order."""
    out = []
    for north in combinations(range(m + r), r):
        word = ["E"] * (m + r)
        for i in north:
            word[i] = "N"
        out.append(PathWord("".join(word)))
    out.sort(key=lambda p: p.word)
    return out


def all_regions(max_size: int, connected_only: bool = False) -> Iterator[Region]:
    """Exhaustive deterministic sweep of regions with at most ``max_size`` elements."""
    if max_size > SWEEP_CAP:
        raise TooLarge(f"region sweep is capped at {SWEEP_CAP} ground elements")
    for n in range(1, max_size + 1):
        for r in range(0, n + 1):
            paths = all_paths(n - r, r)
            for lower in paths:
                lp = lower.profile
                for upper in paths:
                    up = upper.profile
                    if all(a <= b for a, b in zip(lp, up)):
                        if connected_only and any(
                            lp[i] == up[i] for i in range(1, n)
                        ):
                            continue
                        yield Region(lower, upper)


def sqrt_one_minus_4t_series(order: int) -> list[Fraction]:
    """Exact Taylor coefficients of sqrt(1 - 4t) up to the given order."""
    coeffs = [Fraction(1)]
    for k in range(1, order + 1):
        coeffs.append(coeffs[-1] * Fraction(2 * (2 * k - 3), k))
    return coeffs


def gap_area_series(order: int) -> list[Fraction]:
    """Series of (1 - 2t - sqrt(1-4t)) / (4t(1-4t)), the diagonal-gap totals."""
    sq = sqrt_one_minus_4t_series(order + 2)
    numerator = [-c for c in sq]
    numerator[0] += 1
    numerator[1] -= 2
    quarter = [numerator[k + 1] / 4 for k in range(order + 1)]
    out = []
    for k in range(order + 1):
        out.append(sum(quarter[i] * 4 ** (k - i) for i in range(k + 1)))
    return out


def catalan_area_recurrence(n_max: int) -> list[Fraction]:
    """Diagonal-gap totals for n = 0..n_max by the first-return recurrence.

    gap(n+1) = 2 sum_k gap(k) C(n-k) + sum_k (k + 1/2) C(k) C(n-k), from
    cutting each path at its first return to the diagonal.
    """
    gaps = [Fraction(0)]
    for m in range(n_max):
        total = Fraction(0)
        for k in range(m + 1):
            ck, cmk = catalan_number(k), catalan_number(m - k)
            total += 2 * gaps[k] * cmk + Fraction(2 * k + 1, 2) * ck * cmk
        gaps.append(total)
    return gaps
