"""Brute-force ground truth, deliberately naive and exhaustive.

These routines re-derive everything from first principles (subset scans,
convex-hull membership, bijective fillings, circuit enumeration) so that
the main modules can be checked against them.  Size caps keep every call
at desk scale.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterator

from .decompose import BorderStrip
from .errors import TooLarge
from .paths import PathWord, Region, enumerate_paths
from .polytope import (
    Candidate,
    Facet,
    canonical_facets,
    dimension,
    h_representation,
    vertices,
)
from .ratlinalg import affine_rank, in_convex_hull
from .volume import catalan_number


def brute_bases(region: Region) -> set[frozenset[int]]:
    """Every r-subset whose N-step path stays inside the region."""
    n = region.size
    if n > 12:
        raise TooLarge("brute basis scan is capped at 12 ground elements")
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
    """Midpoint test: an edge iff the midpoint escapes the hull of the others."""
    if len(verts) > 40:
        raise TooLarge("adjacency oracle is capped at 40 vertices")
    mid = [Fraction(a + b, 2) for a, b in zip(verts[i], verts[j])]
    others = [v for k, v in enumerate(verts) if k not in (i, j)]
    return not in_convex_hull(others, mid)


def certify_facet_candidates(region: Region, candidates: list[Candidate]) -> list[Facet]:
    """Keep candidates whose tight vertex sets have affine rank dim - 1.

    Candidates cutting the same facet (identical tight sets) collapse to the
    canonical representative, as in :func:`lpmpoly.polytope.facets`.
    """
    verts = vertices(region)
    dim = dimension(region)
    if dim <= 0:
        return []
    groups: dict[tuple[int, ...], list[Candidate]] = {}
    for kind, position, cons in candidates:
        tight = tuple(k for k, v in enumerate(verts) if cons.tight(v))
        if tight and len(tight) < len(verts):
            groups.setdefault(tight, []).append((kind, position, cons))
    certified = [
        (kind, position, cons, tight)
        for tight, members in groups.items()
        if affine_rank([verts[k] for k in tight], cap=dim - 1) == dim - 1
        for kind, position, cons in members
    ]
    return canonical_facets(region, certified)


def brute_facets(region: Region) -> list[Facet]:
    """Rank-certify every inequality of the full prefix/box description."""
    if region.size > 9:
        raise TooLarge("facet oracle is capped at 9 ground elements")
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


def projected_face(region: Region, i: int, value: int) -> set[str]:
    """Words of the paths whose i-th letter encodes ``value``, with that letter cut out."""
    letter = "N" if value else "E"
    return {
        path.word[: i - 1] + path.word[i:]
        for path in enumerate_paths(region)
        if path.word[i - 1] == letter
    }


def stepwise_lattice_count(region: Region, t: int) -> int:
    """Points of the t-th dilation, adding each prefix sum into its t+1 successors."""
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


def brute_syt(strip: BorderStrip) -> int:
    """Count standard fillings directly: increase East, decrease North."""
    size = len(strip)
    if size > 9:
        raise TooLarge("filling oracle is capped at 9 boxes")
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


def brute_components(region: Region) -> list[frozenset[int]]:
    """Classes of the relation "lies on a common circuit", circuits enumerated raw."""
    n = region.size
    if n > 8:
        raise TooLarge("component oracle is capped at 8 ground elements")
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
