"""The polytope of a region: convex hull of the 0/1 basis vectors.

Facets are certified without an affine rank.  A candidate inequality (a
box bound, or a prefix bound at a corner of a bounding path) is tight on
the paths of a region again: the deletion region for a box bound, the
region pinched through one lattice point for a prefix bound, both read off
bounds tightened in O(n) by ``tighten_bounds``.  The candidate is a facet
exactly when that region's dimension (size minus touch points plus one) is
dim - 1, and candidates cutting the same facet collapse to a canonical
representative.  Edges come from an output-sensitive walk over the paths.
The affine-rank certification is the oracle route in :mod:`lpmpoly.oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DisconnectedRegion, EmptyFace, NotAFacet, NotGeneralizedCatalan
from .matroid import bases, components, delete, is_connected
from .paths import Region, area_below, enumerate_paths, path_from_profile, tighten_bounds
from .volume import catalan_area, catalan_number

PREFER_BOX_LOWER, PREFER_BOX_UPPER, PREFER_PREFIX_UPPER, PREFER_PREFIX_LOWER = range(4)

_BOX_KINDS = ("x_lower", "x_upper")
_BITS = str.maketrans("EN", "01")


@dataclass(frozen=True)
class LinearConstraint:
    """coeffs . x  rel  rhs with rel one of "<=", ">=", "="."""

    coeffs: tuple[int, ...]
    rel: str
    rhs: int

    def holds(self, point: Sequence[int]) -> bool:
        v = sum(c * x for c, x in zip(self.coeffs, point))
        if self.rel == "<=":
            return v <= self.rhs
        if self.rel == ">=":
            return v >= self.rhs
        return v == self.rhs

    def tight(self, point: Sequence[int]) -> bool:
        return sum(c * x for c, x in zip(self.coeffs, point)) == self.rhs

    def to_json_dict(self, tight_vertices: tuple[int, ...] | None = None) -> dict:
        d = {"coeffs": list(self.coeffs), "rel": self.rel, "rhs": self.rhs}
        if tight_vertices is not None:
            d["tight_vertices"] = list(tight_vertices)
        return d


@dataclass(frozen=True)
class HRepresentation:
    equalities: tuple[LinearConstraint, ...]
    inequalities: tuple[LinearConstraint, ...]


@dataclass(frozen=True)
class Facet:
    """A certified facet: the inequality, its tight vertices, and its provenance.

    ``kind`` is one of "x_lower", "x_upper", "prefix_upper", "prefix_lower";
    ``position`` is the coordinate (box kinds) or prefix length (prefix kinds).
    """

    constraint: LinearConstraint
    tight: tuple[int, ...]
    kind: str
    position: int


def vertices(region: Region) -> list[tuple[int, ...]]:
    """The basis vectors; every one is a vertex of the 0/1 polytope."""
    return [bv.coords for bv in bases(region)]


def dimension(region: Region) -> int:
    return region.size - components(region).count


def edges(region: Region) -> list[tuple[int, int]]:
    """Vertex-index pairs whose incidence vectors differ by a single swap, sorted.

    Paths come in lexicographic order, so moving an N step from position a
    to an E position b < a gives a later vertex.  The move raises the path
    by one on [b, a), so for each N step the walk runs b leftwards while
    the raised path stays under the upper path: every swap it tries is an
    edge, found by bitmask lookup.
    """
    paths = enumerate_paths(region)
    n = region.size
    q = region.upper.profile
    masks = [int(path.word.translate(_BITS), 2) for path in paths]
    index = {mask: k for k, mask in enumerate(masks)}
    out = []
    for k, path in enumerate(paths):
        word, h, mask = path.word, path.profile, masks[k]
        later = []
        for a in range(2, n + 1):
            if word[a - 1] != "N":
                continue
            moved = mask ^ (1 << (n - a))
            b = a - 1
            while b >= 1 and h[b] < q[b]:
                if word[b - 1] == "E":
                    later.append(index[moved | (1 << (n - b))])
                b -= 1
        later.sort()
        out.extend((k, other) for other in later)
    return out


def edge_count_by_area(region: Region) -> int:
    """Edge count of a generalized Catalan region as a total of areas below its paths."""
    if region.lower.word != "E" * region.m + "N" * region.r:
        raise NotGeneralizedCatalan("lower path must be all E steps then all N steps")
    return sum(area_below(path) for path in enumerate_paths(region))


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
        prefix = (1,) * i + (0,) * (n - i)
        ineqs.append(LinearConstraint(prefix, ">=", p[i]))
        ineqs.append(LinearConstraint(prefix, "<=", q[i]))
    for j in range(n):
        unit = tuple(1 if t == j else 0 for t in range(n))
        ineqs.append(LinearConstraint(unit, ">=", 0))
        ineqs.append(LinearConstraint(unit, "<=", 1))
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
    """Box bounds on every coordinate, then prefix bounds at the paths' corners."""
    n = region.size
    q = region.upper.profile
    p = region.lower.profile
    candidates: list[Candidate] = []
    for j in range(1, n + 1):
        candidates.append(("x_lower", j, _box_constraint(n, j, ">=")))
        candidates.append(("x_upper", j, _box_constraint(n, j, "<=")))
    for i in range(1, n):
        if _upper_corner(q, i):
            candidates.append(("prefix_upper", i, _prefix_constraint(n, i, "<=", q[i])))
    for i in range(1, n):
        if _lower_corner(p, i):
            candidates.append(("prefix_lower", i, _prefix_constraint(n, i, ">=", p[i])))
    return candidates


def _facet_key(p: tuple[int, ...], q: tuple[int, ...], kind: str, position: int) -> tuple:
    """Canonical order of candidates: box bounds first, then corner prefix bounds."""
    if kind == "x_lower":
        return (PREFER_BOX_LOWER, 0, position)
    if kind == "x_upper":
        return (PREFER_BOX_UPPER, 0, position)
    if kind == "prefix_upper":
        return (PREFER_PREFIX_UPPER, 0 if _upper_corner(q, position) else 1, position)
    return (PREFER_PREFIX_LOWER, 0 if _lower_corner(p, position) else 1, position)


def canonical_facets(
    region: Region, certified: list[tuple[str, int, LinearConstraint, tuple[int, ...]]]
) -> list[Facet]:
    """One facet per tight vertex set, from (kind, position, constraint, tight) records.

    Candidates cutting the same facet collapse to the canonical
    representative: box bounds first, then corner prefix bounds; the facets
    come out in that order too.
    """
    p = region.lower.profile
    q = region.upper.profile
    best: dict[tuple[int, ...], tuple[str, int, LinearConstraint]] = {}
    for kind, position, cons, tight in certified:
        kept = best.get(tight)
        if kept is None or _facet_key(p, q, kind, position) < _facet_key(p, q, *kept[:2]):
            best[tight] = (kind, position, cons)
    out = [Facet(cons, tight, kind, position) for tight, (kind, position, cons) in best.items()]
    out.sort(key=lambda f: _facet_key(p, q, f.kind, f.position))
    return out


def _face(region: Region, kind: str, position: int, rhs: int) -> Region:
    """The paths tight on a candidate, as a region: the deletion for a box
    bound, the region pinched through the lattice point (position, rhs) for
    a prefix bound.  Raises EmptyFace when no path is tight."""
    if kind in _BOX_KINDS:
        return delete(region, position, rhs)
    bounds = tighten_bounds(region.lower.profile, region.upper.profile, position, height=rhs)
    if bounds is None:
        raise EmptyFace(f"no basis has prefix sum {rhs} at {position}")
    return Region(*(path_from_profile(b) for b in bounds))


def facets(region: Region) -> list[Facet]:
    """Minimal facet list of a connected region.

    A candidate is a facet exactly when its face, a region again, has
    dimension dim - 1: size minus touch points plus one, O(n) per
    candidate.  Tight vertex sets are listed for the facets only.
    """
    if not is_connected(region):
        raise DisconnectedRegion("facets are computed per connected block")
    dim = dimension(region)
    if dim <= 0:
        return []
    paths = enumerate_paths(region)
    certified = []
    for kind, position, cons in facet_candidates(region):
        try:
            face = _face(region, kind, position, cons.rhs)
        except EmptyFace:
            continue
        if dimension(face) != dim - 1:
            continue
        # the constraint's left side is the path's rise over its support
        start = position - 1 if kind in _BOX_KINDS else 0
        tight = tuple(
            k for k, path in enumerate(paths)
            if path.profile[position] - path.profile[start] == cons.rhs
        )
        certified.append((kind, position, cons, tight))
    return canonical_facets(region, certified)


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


def _path_indices(
    region: Region, low: tuple[int, ...], high: tuple[int, ...], rises: list[tuple[int, ...]]
) -> tuple[int, ...]:
    """Positions, among the region's paths in lexicographic order, of the
    paths between ``low`` and ``high`` whose k-th step rises by one of ``rises[k]``.

    A path's position counts, at each of its N steps, the region's paths
    that agree before that step and take E there.  One forward pass carries
    the partial counts of all prefixes by height, so the cost is the number
    of prefixes, not paths times n.
    """
    p = region.lower.profile
    q = region.upper.profile
    n = region.size
    # after[k][y]: paths from height y after k steps to the end
    after: list[dict[int, int]] = [{} for _ in range(n)] + [{q[n]: 1}]
    for k in range(n - 1, -1, -1):
        nxt = after[k + 1]
        after[k] = {y: nxt.get(y, 0) + nxt.get(y + 1, 0) for y in range(p[k], q[k] + 1)}
    partial: dict[int, list[int]] = {0: [0]}
    for k in range(1, n + 1):
        grown: dict[int, list[int]] = {}
        for y, found in partial.items():
            for rise in rises[k]:
                if low[k] <= y + rise <= high[k]:
                    gain = after[k].get(y, 0) if rise else 0
                    grown.setdefault(y + rise, []).extend([x + gain for x in found])
        partial = grown
    return tuple(sorted(partial.get(q[n], ())))


def _certified_face(region: Region, facet: Facet) -> Region:
    """The face of a facet that :func:`facets` lists; NotAFacet otherwise.

    Replays what ``facets`` does for this one candidate: it is a candidate,
    its face has dimension dim - 1, no candidate earlier in the canonical
    order cuts the same face, and ``facet.tight`` lists the face's paths.
    O(n^2) plus the face's prefixes: no other candidate's tight set is listed.
    """
    if not is_connected(region):
        raise DisconnectedRegion("facets are computed per connected block")
    kind, i = facet.kind, facet.position
    not_a_facet = NotAFacet(f"{kind} at {i} is not a facet here")
    dim = dimension(region)
    candidates = facet_candidates(region)
    if dim <= 0 or (kind, i, facet.constraint) not in candidates:
        raise not_a_facet
    rhs = facet.constraint.rhs
    try:
        face = _face(region, kind, i, rhs)
    except EmptyFace:
        raise not_a_facet from None
    if dimension(face) != dim - 1:
        raise not_a_facet

    def lift(h: tuple[int, ...]) -> tuple[int, ...]:
        """A face profile over all n steps: put the deleted letter back."""
        return h[:i] + tuple(x + rhs for x in h[i - 1 :]) if kind in _BOX_KINDS else h

    low, high = lift(face.lower.profile), lift(face.upper.profile)
    p, q = region.lower.profile, region.upper.profile
    key = _facet_key(p, q, kind, i)
    for other, j, cons in candidates:
        # a facet inside another candidate's facet is that facet: same tight set
        if (
            _facet_key(p, q, other, j) < key
            and _tight_on_whole_face(low, high, other, j, cons.rhs)
            and dimension(_face(region, other, j, cons.rhs)) == dim - 1
        ):
            raise not_a_facet
    rises = [(0, 1)] * (region.size + 1)
    if kind in _BOX_KINDS:
        rises[i] = (rhs,)
    if facet.tight != _path_indices(region, low, high, rises):
        raise not_a_facet
    return face


def face_region(region: Region, facet: Facet):
    """Recover the face cut by a facet as one region or a pinched pair.

    Box facets delete the fixed element; prefix facets pinch both paths
    through the shared lattice point, producing a direct sum.  Raises
    NotAFacet unless :func:`facets` lists ``facet``, without computing it.
    """
    face = _certified_face(region, facet)
    if facet.kind in _BOX_KINDS:
        return face
    i = facet.position
    low, high = face.lower.profile, face.upper.profile
    left = Region(path_from_profile(low[: i + 1]), path_from_profile(high[: i + 1]))
    right = Region(
        path_from_profile(tuple(h - high[i] for h in low[i:])),
        path_from_profile(tuple(h - high[i] for h in high[i:])),
    )
    return left, right
