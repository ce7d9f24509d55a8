"""The polytope of a region: convex hull of the 0/1 basis vectors.

Facets are certified without an affine rank and without building a
region, by one routine that both ``facets`` and ``face_region`` call.  A
candidate inequality (a box bound, or a prefix bound at a corner of a
bounding path) is tight on the paths between two bounding paths that one
of the word surgeries of :mod:`lpmpoly.paths` cuts from the region's, in
O(n): ``fix_letter`` fixes the letter at a step (a box bound, whose face
is a deletion), ``pin`` the height at a position (a prefix bound, whose
face is a pinched region).  A region's dimension is n + 1 less the touch
count of its bounding paths, so the face's dimension is read off the
touch count of the surgery's paths: the candidate is a facet exactly
when that face has dimension dim - 1.  Candidates come in canonical
order, and a facet is listed under the first candidate that cuts it.
Tight vertex sets, for a facet, for ``face_region``'s check and for
every row of the H-representation, take one route, ``tight_sets``: they
are read off the prefix x suffix blocks of ``paths.path_halves``, not a
scan of every path, as whole blocks for a run of steps before the cut,
and for one ending after it as one selection of tails per height,
shifted into each block.  Only ``face_region`` builds a face region, the
one it returns.  The oracle route, in :mod:`lpmpoly.oracle`, certifies
every inequality of the H-representation by affine rank and picks the
representative from the tight vertex sets.

Edges are single N/E swaps between two paths.  They come from a walk
that lists the paths in lexicographic order, read off rank offsets: a
path's index is a sum of completion counts over its N steps, so the swap
of an E at b with the N at a moves the index by an offset that depends on
the prefix up to a only.  The walk carries those offsets for the E steps
still open, resumes at the last E step it can raise, popped off a stack,
rewrites only the suffix after it, and never looks a partner up; the
lookup of every swapped vector is the oracle's route.
"""

from __future__ import annotations

from itertools import chain
from operator import add, mul
from typing import NamedTuple, Sequence

from .errors import DisconnectedRegion, NotAFacet, NotGeneralizedCatalan
from .matroid import delete, is_connected
from .paths import Bound, PathWord, Region, fix_letter, path_halves, pin, touch_count
from .volume import catalan_area, catalan_number

_BOX_KINDS = ("x_lower", "x_upper")


class LinearConstraint(NamedTuple):
    """coeffs . x  rel  rhs with rel one of "<=", ">=", "="."""

    coeffs: tuple[int, ...]
    rel: str
    rhs: int

    def holds(self, point: Sequence[int]) -> bool:
        v = sum(map(mul, self.coeffs, point))
        if self.rel == "<=":
            return v <= self.rhs
        if self.rel == ">=":
            return v >= self.rhs
        return v == self.rhs

    def tight(self, point: Sequence[int]) -> bool:
        return sum(map(mul, self.coeffs, point)) == self.rhs


class HRepresentation(NamedTuple):
    equalities: tuple[LinearConstraint, ...]
    inequalities: tuple[LinearConstraint, ...]


class Facet(NamedTuple):
    """A certified facet: the inequality, its tight vertices, and its provenance.

    ``kind`` is one of "x_lower", "x_upper", "prefix_upper", "prefix_lower";
    ``position`` is the coordinate (box kinds) or prefix length (prefix kinds).
    """

    constraint: LinearConstraint
    tight: tuple[int, ...]
    kind: str
    position: int


def vertices(region: Region) -> list[tuple[int, ...]]:
    """The basis vectors' coordinates; every one is a vertex of the 0/1
    polytope.  Each joins a head's coordinates to a tail's, as in
    :func:`matroid.bases`, with no support built."""
    cut, heads, tails = path_halves(region)
    ends = {y: [tuple(s) for s, _ in walk] for y, walk in tails.items()}
    out: list[tuple[int, ...]] = []
    for s, h in heads:
        coords = tuple(s)
        out += [coords + c for c in ends[h[-1]]]
    return out


def dimension(region: Region) -> int:
    """The ground-set size plus one, less the touch points of the bounding
    paths (endpoints included): the size less the number of connected
    components, loops and coloops among them."""
    return region.size + 1 - touch_count(region.lower.profile, region.upper.profile)


def edges(region: Region) -> list[tuple[int, int]]:
    """Vertex-index pairs whose incidence vectors differ by a single swap, sorted.

    Paths come in lexicographic order, and a path's index is the sum, over
    its N steps at positions i, of A_i(h_{i-1}): the paths that agree with
    it before i and take E there (``after[i]`` by height).  Moving the N
    step at a to an E position b < a raises the path by one on [b, a), an
    edge exactly when the raised steps stay under the upper path, and adds

        A_b(h_{b-1}) + sum over N steps i in (b, a) of
        [A_i(h_{i-1} + 1) - A_i(h_{i-1})] - A_a(h_{a-1})

    to the index.  That offset depends on the prefix up to a only, so a
    lexicographic walk over the paths carries the open E steps (no touch
    with the upper path since) with their running offsets, and resumes at
    the last E step it can raise, popped off a stack with the walk's state
    there.  Sorted offsets are the sorted later partners of path k, and
    ``index`` lets every pair share one int per vertex:

    >>> from lpmpoly.paths import region_from_words
    >>> pairs = edges(region_from_words("EENN", "NNEE"))
    >>> len(pairs), pairs[:6]
    (12, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3)])
    """
    # Not prefix x suffix products as in paths.path_halves: an edge's offset
    # spans the cut, and such an edge list, correct on every region of at
    # most 8 elements, took 131-177 ms against 150-182 ms on the
    # large-regions edge inputs, no faster.
    # Comprehensions, not map over a bound int.__add__ (a method-wrapper): on
    # Python 3.11 an offset costs 65 ns against 95-100, an output pair 90-115
    # ns against 200 through zip(repeat(k), map(index.__getitem__, ...)).
    p = region.lower.profile
    q = region.upper.profile
    n, r = region.size, region.r
    # after[i][y]: the paths from height y after i steps to the end, for y in
    # 0..r+1; zero at the heights the region leaves out
    after = [[0] * (r + 2) for _ in range(n + 1)]
    after[n][r] = 1
    for i in range(n - 1, -1, -1):
        nxt = after[i + 1]
        after[i][p[i] : q[i] + 1] = map(add, nxt[p[i] : q[i] + 1], nxt[p[i] + 1 : q[i] + 2])
    index = list(range(after[0][0]))
    out: list[tuple[int, int]] = []
    offsets: list[int] = []  # partner offsets found on the current prefix
    opened: list[int] = []  # per stacked E step: its base offset less the shift then
    # per stacked E step, the walk before it: the step, the height, the shift
    # (the sum of A_j(h_{j-1} + 1) - A_j(h_{j-1}) over the N steps so far),
    # the first E step still open and the length of ``offsets``
    branches: list[tuple[int, int, int, int, int]] = []
    k = i = h = shift = first = 0
    lift = -1  # the stacked E step the walk raises to resume at the next path
    while True:
        while i < n:
            row = after[i + 1]
            if i == lift or h < p[i + 1]:
                if first < len(opened):
                    c = shift - row[h]
                    offsets += [c + o for o in opened[first:]]
                shift += row[h + 1] - row[h]
                h += 1
                if h == q[i + 1]:
                    first = len(opened)
            elif h < q[i + 1]:  # on the upper path, the touch before closed all
                branches.append((i, h, shift, first, len(offsets)))
                opened.append(row[h] - shift)
            i += 1
        out += [(k, index[k + o]) for o in sorted(offsets)]
        k += 1
        if not branches:
            return out
        lift, h, shift, first, found = branches.pop()
        del offsets[found:], opened[-1]
        i = lift


def edge_count_by_area(region: Region) -> int:
    """Edge count of a generalized Catalan region as a total of areas below its paths.

    A path's area is the sum of the heights of its E steps, so one pass
    over the steps carries, per height, the paths that reach it and their
    area so far: an E step at height y adds y once per path.  O(n r), no
    path listed.
    """
    if region.lower.word != "E" * region.m + "N" * region.r:
        raise NotGeneralizedCatalan("lower path must be all E steps then all N steps")
    p = region.lower.profile
    q = region.upper.profile
    r = region.r
    paths = [1] + [0] * (r + 1)  # index r + 1 stays 0: it stands for height -1
    area = [0] * (r + 2)
    for i in range(1, region.size + 1):
        lo, hi = p[i], q[i]
        rows = range(lo, hi + 1)  # after step i: an E step from y or an N step from y - 1
        area = [0] * lo + [area[y] + y * paths[y] + area[y - 1] for y in rows] + [0] * (r + 1 - hi)
        paths = [0] * lo + [paths[y] + paths[y - 1] for y in rows] + [0] * (r + 1 - hi)
    return area[r]


def catalan_edge_formula(n: int) -> int:
    """Closed form for the edge count of the n-th Catalan-staircase polytope.

    Total area below the paths from (0,0) to (n,n) weakly below the diagonal:
    half of n squared per path, minus the total path/diagonal gap.
    """
    if n < 1:
        raise ValueError("n must be positive")
    doubled = n * n * catalan_number(n) - 2 * catalan_area(n)
    if doubled.denominator != 1 or doubled.numerator % 2:
        raise AssertionError(f"edge formula not an integer at n={n}")
    return doubled.numerator // 2


def h_representation(region: Region) -> HRepresentation:
    """Prefix-sum window per position, box bounds, and the fixed coordinate sum."""
    n = region.size
    p = region.lower.profile
    q = region.upper.profile
    eq = LinearConstraint((1,) * n, "=", region.r)
    ineqs: list[LinearConstraint] = []
    for i in range(1, n + 1):
        ineqs.append(_prefix_constraint(n, i, ">=", p[i]))
        ineqs.append(_prefix_constraint(n, i, "<=", q[i]))
    for j in range(1, n + 1):
        ineqs.append(_box_constraint(n, j, ">="))
        ineqs.append(_box_constraint(n, j, "<="))
    return HRepresentation((eq,), tuple(ineqs))


def _prefix_constraint(n: int, i: int, rel: str, rhs: int) -> LinearConstraint:
    return LinearConstraint((1,) * i + (0,) * (n - i), rel, rhs)


def _box_constraint(n: int, j: int, rel: str) -> LinearConstraint:
    unit = tuple(1 if t == j - 1 else 0 for t in range(n))
    return LinearConstraint(unit, rel, 1 if rel == "<=" else 0)


def _upper_corner(q: tuple[int, ...], i: int) -> bool:
    """The upper path finishes an E run at interior position i."""
    return 0 < i < len(q) - 1 and q[i] == q[i - 1] and q[i + 1] > q[i]


def _lower_corner(p: tuple[int, ...], i: int) -> bool:
    """The lower path finishes an N run at interior position i."""
    return 0 < i < len(p) - 1 and p[i] > p[i - 1] and p[i + 1] == p[i]


Candidate = tuple[str, int, LinearConstraint]


def facet_candidates(region: Region) -> list[Candidate]:
    """Box bounds, then prefix bounds at the paths' corners, in canonical order:
    x_lower by position, then x_upper, prefix_upper and prefix_lower."""
    n = region.size
    q = region.upper.profile
    p = region.lower.profile
    return (
        [("x_lower", j, _box_constraint(n, j, ">=")) for j in range(1, n + 1)]
        + [("x_upper", j, _box_constraint(n, j, "<=")) for j in range(1, n + 1)]
        + [("prefix_upper", i, _prefix_constraint(n, i, "<=", q[i]))
           for i in range(1, n) if _upper_corner(q, i)]
        + [("prefix_lower", i, _prefix_constraint(n, i, ">=", p[i]))
           for i in range(1, n) if _lower_corner(p, i)]
    )


def _tight_on_whole_face(
    low: tuple[int, ...], high: tuple[int, ...], kind: str, position: int, rhs: int
) -> bool:
    """Every path of a face is tight on the candidate, read off the face's
    min and max profiles ``low`` and ``high`` over all n steps.

    Exact for a pinched face, which holds every path between its bounds,
    and for a deletion face, which holds every path between its bounds
    taking the fixed letter.  Some path takes E at step i exactly when
    low[i] <= high[i-1], and some path takes N there when high[i] > low[i-1].
    """
    i = position
    if kind == "x_upper":
        return low[i] > high[i - 1]
    if kind == "x_lower":
        return high[i] <= low[i - 1]
    return low[i] == high[i] == rhs


def _certified(region: Region, candidates: list[Candidate], k: int) -> tuple[Bound, Bound] | None:
    """The lowest and highest of the paths tight on candidate k of a
    connected region, as (word, profile) pairs, if the candidate is a
    listed facet; None otherwise.

    The bounding paths touch at the two ends only, so the region has
    dimension n - 1.  The tight paths are those between the two paths, over
    all n steps, that the letter surgery ``paths.fix_letter`` returns with
    step i fixed (a box bound) or the point surgery ``paths.pin`` with the
    height at i fixed (a prefix bound); they must exist and span a face of
    dimension n - 2.  A pinched face keeps n steps and touches at i.  A
    deletion face drops step i, and since that step is fixed, its bounds
    touch at i exactly when they touch at i - 1.  In both, the face's
    dimension is n + 1 less the bounds' touches off position i, so the
    candidate passes when those number 2: the deletion face is connected, or
    each half of the pinched face is.  No earlier candidate may be tight on
    all of the face either: that candidate's face contains the facet, so it
    is the facet, listed under its first candidate.  (It cannot be the whole
    polytope, which no candidate cuts in a connected region: a box bound
    tight on every path is a loop or a coloop, a corner prefix bound a touch
    point.)  O(n) for the bounds, O(1) per earlier candidate, and no region
    built.
    """
    kind, i, cons = candidates[k]
    rhs = cons.rhs
    bounds = fix_letter(region, i, rhs) if kind in _BOX_KINDS else pin(region, i, rhs)
    if bounds is None:
        return None
    (_, low), (_, high) = bounds
    if touch_count(low, high) - (low[i] == high[i]) != 2:
        return None
    earlier = candidates[:k]
    if any(_tight_on_whole_face(low, high, other, j, c.rhs) for other, j, c in earlier):
        return None
    return bounds


def tight_sets(region: Region, constraints: Sequence[LinearConstraint]) -> list[tuple[int, ...]]:
    """Per constraint, the indices of the vertices it is tight on, in the
    order of :func:`vertices`.

    Each constraint's coefficients are 1 on one run of steps and 0
    elsewhere, and the run starts at the first step or is a single step, as
    every row of :func:`h_representation` and every facet candidate is, so
    the left side is a path's rise over the run.  The vertices are read off
    the blocks of :func:`paths.path_halves`, not scanned: the paths that
    share a head are consecutive, one per tail from its end height.  A run
    within the first ``cut`` steps takes or leaves each block whole, as an
    index range; one ending later takes, from every block, the tails it
    holds on, selected once per end height and shifted by the block's
    first index.

    >>> from lpmpoly.paths import region_from_words
    >>> octahedron = region_from_words("EENN", "NNEE")
    >>> rep = h_representation(octahedron)
    >>> tight_sets(octahedron, rep.equalities + rep.inequalities[:4])
    [(0, 1, 2, 3, 4, 5), (0, 1, 2), (3, 4, 5), (0,), (5,)]
    """
    cut, heads, tails = path_halves(region)
    profiles = {y: [tuple(h) for _, h in walk] for y, walk in tails.items()}
    blocks = []  # per head: its heights over steps 0..cut and its first path index
    first = 0
    for _, h in heads:
        blocks.append((tuple(h), first))
        first += len(profiles[h[-1]])
    out = []
    for cons in constraints:
        start = cons.coeffs.index(1)
        position = start + sum(cons.coeffs)
        rhs = cons.rhs
        if position <= cut:
            runs = (
                range(i, i + len(profiles[h[-1]]))
                for h, i in blocks if h[position] - h[start] == rhs
            )
        else:
            # a tail's heights start at the cut; a run from the first step, at 0 before it
            a, b = start - cut, position - cut
            held = {
                y: [j for j, t in enumerate(ts) if t[b] - (t[a] if a >= 0 else 0) == rhs]
                for y, ts in profiles.items()
            }
            runs = ([i + j for j in held[h[-1]]] for h, i in blocks)
        out.append(tuple(chain.from_iterable(runs)))
    return out


def facets(region: Region) -> list[Facet]:
    """Minimal facet list of a connected region, in canonical candidate order.

    A candidate is certified off the bounds of its tight paths, by their
    touch count (see ``_certified``): O(n) per candidate, no face built.
    Tight vertex sets are listed for the certified candidates only, in one
    call of :func:`tight_sets`.
    """
    if not is_connected(region):
        raise DisconnectedRegion("facets are computed per connected block")
    candidates = facet_candidates(region)
    listed = [c for k, c in enumerate(candidates) if _certified(region, candidates, k) is not None]
    tight = tight_sets(region, [cons for _, _, cons in listed])
    return [Facet(cons, t, kind, position) for (kind, position, cons), t in zip(listed, tight)]


def catalan_facet_count(n: int) -> int:
    """Claimed facet count of the Catalan staircase polytope on 2n elements."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return 5 * n - 5


def kcatalan_facet_count(width: int, n: int) -> int:
    """Claimed facet count for the width-step staircase; verified against the oracle."""
    if width < 1 or n < 2:
        raise ValueError("need width >= 1 and n >= 2")
    return (width + 1) * (2 * n - 3) + n - 2


def face_region(region: Region, facet: Facet) -> Region:
    """Recover the face cut by a facet as a region.

    Box facets delete the fixed element (:func:`matroid.delete`).  A
    prefix facet's face is the region pinched at the shared point, wrapped
    round the paths ``paths.pin`` gave the certificate: both pass through
    the lattice point the facet fixes, so the face is a direct sum and its
    polytope the product of the two halves'.  Raises NotAFacet unless
    :func:`facets` lists ``facet``, without computing it: the facet is
    certified alone by ``_certified``, and ``facet.tight`` is checked
    against :func:`tight_sets` for its constraint.  The returned face is
    the only region built.  O(n^2) for the certificate, then the region's
    listing pieces (the heads and tails of ``paths.path_halves``) and the
    tight set.
    """
    if not is_connected(region):
        raise DisconnectedRegion("facets are computed per connected block")
    kind, i, rhs = facet.kind, facet.position, facet.constraint.rhs
    candidates = facet_candidates(region)
    key = (kind, i, facet.constraint)
    certified = None
    if key in candidates:
        certified = _certified(region, candidates, candidates.index(key))
    if certified is None or facet.tight != tight_sets(region, [facet.constraint])[0]:
        raise NotAFacet(f"{kind} at {i} is not a facet here")
    if kind in _BOX_KINDS:
        return delete(region, i, rhs)
    m, r = region.m, region.r
    return Region._from_paths(*(PathWord._from_profile(*path, m, r) for path in certified))
