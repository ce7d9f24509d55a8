"""Exhaustive verification sweeps and the reconciliation report.

Every published closed form and every main-module computation is replayed
against the brute-force oracles over deterministic sweeps.  Genuine check
failures flip ``ok``; discrepancies in the tracked published claims never
do - they land in the errata report instead.  Each check and the errata
report walk their region sweep once.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial
from time import perf_counter
from typing import Callable, Collection, NamedTuple

from . import ehrhart as eh
from . import oracle
from .decompose import BorderStrip, border_strips, decomposition_tree, region_to_strip
from .errors import EmptyFace
from .matroid import bases, components, delete
from .paths import (
    Box,
    PathWord,
    Region,
    catalan_region,
    enumerate_paths,
    intersection_vertices,
    kcatalan_region,
    rectangle_region,
    reduced_catalan_region,
    region_from_words,
)
from .polytope import (
    catalan_edge_formula,
    catalan_facet_count,
    dimension,
    edge_count_by_area,
    edges,
    face_region,
    facets,
    kcatalan_facet_count,
    vertices,
)
from .ratlinalg import affine_rank, det_int
from .triangulate import hypersimplex_triangulation, strip_triangulation
from .volume import (
    catalan_area,
    catalan_number,
    eulerian,
    strip_volume,
    volume,
)


class CheckResult:
    """One check's outcome, filled in as the check runs."""

    __slots__ = ("name", "ok", "checked", "failures")

    def __init__(
        self, name: str, ok: bool = True, checked: int = 0, failures: list[str] | None = None
    ):
        self.name = name
        self.ok = ok
        self.checked = checked
        self.failures = [] if failures is None else failures

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.ok, self.checked, self.failures) == (
            other.name, other.ok, other.checked, other.failures
        )

    def __repr__(self) -> str:
        return (
            f"CheckResult(name={self.name!r}, ok={self.ok!r}, "
            f"checked={self.checked!r}, failures={self.failures!r})"
        )

    def fail(self, message: str) -> None:
        self.ok = False
        if len(self.failures) < 20:
            self.failures.append(message)

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{self.name}: {status} ({self.checked} checks)"


def _support_set(region: Region) -> set[frozenset[int]]:
    return {frozenset(bv.support) for bv in bases(region)}


def check_bases(max_size: int) -> CheckResult:
    res = CheckResult("bases-vs-oracle")
    for region in oracle.all_regions(max_size):
        res.checked += 1
        if _support_set(region) != oracle.brute_bases(region):
            res.fail(f"basis mismatch on {region}")
    for m in range(0, max_size + 1):
        for r in range(0, max_size - m + 1):
            if m + r < 1:
                continue
            res.checked += 1
            count = len(enumerate_paths(rectangle_region(m, r)))
            if count != comb(m + r, r):
                res.fail(f"rectangle ({m},{r}) has {count} paths")
    return res


def check_deletion(max_size: int) -> CheckResult:
    """The O(n) deletion against filter-and-project, for every coordinate and value."""
    res = CheckResult("deletion-vs-projection")
    for region in oracle.all_regions(max_size):
        words = [p.word for p in enumerate_paths(region)]
        for i in range(1, region.size + 1):
            for value in (0, 1):
                res.checked += 1
                if region.size == 1:  # no ground set would remain
                    try:
                        delete(region, i, value)
                    except ValueError:
                        continue
                    res.fail(f"deleted the only element of {region}")
                    continue
                want = oracle.projected_face(words, i, value)
                try:
                    got = {p.word for p in enumerate_paths(delete(region, i, value))}
                except EmptyFace:
                    got = set()
                if got != want:
                    res.fail(f"deletion of {i}={value} mismatch on {region}")
    return res


def check_dimension(max_size: int, catalan_ns: range) -> CheckResult:
    res = CheckResult("dimension-vs-affine-rank")
    for region in oracle.all_regions(max_size):
        res.checked += 1
        d = dimension(region)
        if d != affine_rank(vertices(region)):
            res.fail(f"dimension mismatch on {region}")
        if d != region.size - components(region).count:
            res.fail(f"component-count dimension formula fails on {region}")
    for n in catalan_ns:
        res.checked += 1
        if dimension(catalan_region(n)) != 2 * n - 3:
            res.fail(f"catalan dimension wrong at n={n}")
    return res


def check_edges(oracle_max: int, area_max: int, formula_max: int) -> CheckResult:
    res = CheckResult("edges-three-routes")
    for region in oracle.all_regions(oracle_max, connected_only=True):
        verts = vertices(region)
        swap_edges = set(edges(region))
        res.checked += 1
        for i, j in combinations(range(len(verts)), 2):
            if oracle.brute_adjacent(verts, i, j) != ((i, j) in swap_edges):
                res.fail(f"adjacency mismatch on {region} pair ({i},{j})")
    for n in range(1, area_max + 1):
        for r in range(0, n + 1):
            lower = PathWord("E" * (n - r) + "N" * r)
            for upper in oracle.all_paths(n - r, r):
                region = Region(lower, upper)
                res.checked += 1
                if edge_count_by_area(region) != len(edges(region)):
                    res.fail(f"area count disagrees with edge scan on {region}")
    for n in range(1, formula_max + 1):
        res.checked += 1
        if catalan_edge_formula(n) != len(edges(catalan_region(n))):
            res.fail(f"corrected edge formula wrong at n={n}")
    return res


def check_facets(max_size: int, catalan_ns: range) -> CheckResult:
    res = CheckResult("facets-vs-oracle")
    for region in oracle.all_regions(max_size, connected_only=True):
        res.checked += 1
        if facets(region) != oracle.brute_facets(region):
            res.fail(f"facet list mismatch on {region}")
    for n in catalan_ns:  # from n = 5 (10 elements) the listings split, unlike the sweep's
        res.checked += 1
        region = reduced_catalan_region(n)
        listed = facets(region)
        if len(listed) != catalan_facet_count(n):
            res.fail(f"staircase facet count differs from 5n-5 at n={n}")
        verts = vertices(region)
        if verts != sorted(tuple(int(e in b) for e in range(1, 2 * n + 1)) for b in oracle.brute_bases(region)):
            res.fail(f"vertex listing differs from the brute bases at n={n}")
        for facet in listed:
            if facet.tight != tuple(k for k, v in enumerate(verts) if facet.constraint.tight(v)):
                res.fail(f"tight set differs from the vertex scan at n={n}: {facet.kind}@{facet.position}")
    return res


def kcatalan_verdicts() -> list[tuple[int, int, int, int]]:
    """(width, n, claimed, actual) for the staircase facet-count claim, at
    widths 1..3 and n = 2..4."""
    out = []
    for width, n in product(range(1, 4), range(2, 5)):
        region = kcatalan_region(width, n)
        out.append((width, n, kcatalan_facet_count(width, n), len(facets(region))))
    return out


def check_faces(max_size: int) -> CheckResult:
    """Each facet's face region against its tight vertices: a pinched face's
    bases are those vertices, a deletion face's once the deleted letter is
    put back."""
    res = CheckResult("faces-are-regions")
    for region in oracle.all_regions(max_size, connected_only=True):
        verts = vertices(region)
        for facet in facets(region):
            res.checked += 1
            face = {bv.coords for bv in bases(face_region(region, facet))}
            if facet.kind in ("x_lower", "x_upper"):
                value = (1 if facet.kind == "x_upper" else 0,)
                i = facet.position - 1
                face = {v[:i] + value + v[i:] for v in face}
            if face != {verts[t] for t in facet.tight}:
                res.fail(f"face mismatch on {region} {facet.kind}@{facet.position}")
    return res


class GoodPartition(NamedTuple):
    """Ground-set bipartition with threshold witnesses for a hyperplane split."""

    e1: tuple[int, ...]
    e2: tuple[int, ...]
    r1: int
    r2: int
    a1: int
    a2: int


def good_partition_of_split(region: Region, x: int, j: int) -> GoodPartition:
    p = region.lower.profile
    q = region.upper.profile
    r1 = q[x]
    r2 = region.r - p[x]
    return GoodPartition(
        e1=tuple(range(1, x + 1)),
        e2=tuple(range(x + 1, region.size + 1)),
        r1=r1,
        r2=r2,
        a1=r1 - j,
        a2=j - p[x],
    )


def partition_arithmetic_ok(region: Region, gp: GoodPartition) -> bool:
    """The always-true half of goodness: partition, thresholds, ranks."""
    return (
        set(gp.e1) | set(gp.e2) == set(range(1, region.size + 1))
        and not set(gp.e1) & set(gp.e2)
        and gp.r1 + gp.r2 == region.r + gp.a1 + gp.a2
        and 0 < gp.a1 < gp.r1
        and 0 < gp.a2 < gp.r2
    )


def verify_good_partition(region: Region, gp: GoodPartition) -> bool:
    """Exhaustively check the partition arithmetic, the ranks of E1 and E2
    and the pairing property, off ``oracle.brute_bases``: a set's rank is its
    largest intersection with a basis, and a set is independent when some
    basis contains it."""
    if not partition_arithmetic_ok(region, gp):
        return False
    found = oracle.brute_bases(region)
    e1, e2 = set(gp.e1), set(gp.e2)
    if gp.r1 != max(len(b & e1) for b in found) or gp.r2 != max(len(b & e2) for b in found):
        return False
    independent = {
        frozenset(sub) for b in found for size in range(len(b) + 1) for sub in combinations(b, size)
    }
    ind1 = [x for x in independent if x <= e1 and len(x) <= gp.r1 - gp.a1]
    ind2 = [y for y in independent if y <= e2 and len(y) <= gp.r2 - gp.a2]
    return all(x | y in independent for x in ind1 for y in ind2)


def check_decomposition(max_size: int) -> CheckResult:
    """Split validity, termination, leaf/strip agreement, and volume additivity.

    The published pairing property (P2) is *not* a hard check here: the
    straddle condition does not imply it (see the errata report); the split
    itself is validated directly instead, on the halves the tree holds.
    """
    res = CheckResult("decomposition-to-strips")
    for region in oracle.all_regions(max_size, connected_only=True):
        res.checked += 1
        tree = decomposition_tree(region)
        leaves = [leaf.region for leaf in tree.leaves()]
        leaf_strips = sorted(region_to_strip(leaf).boxes for leaf in leaves)
        direct = sorted(s.boxes for s in border_strips(region))
        if leaf_strips != direct:
            res.fail(f"leaves differ from strips on {region}")
        for node in tree.nodes():
            if not node.children:
                continue
            parent, split = node.region, node.split
            left, right = (child.region for child in node.children)
            lb, rb, whole = _support_set(left), _support_set(right), _support_set(parent)
            if lb | rb != whole:
                res.fail(f"split loses bases on {parent}")
            prefix = set(range(1, split.x + 1))
            if lb & rb != {b for b in whole if len(b & prefix) == split.j}:
                res.fail(f"shared bases are not the split face on {parent}")
            if dimension(left) != dimension(parent) or dimension(right) != dimension(parent):
                res.fail(f"split changes dimension on {parent}")
            if not partition_arithmetic_ok(
                parent, good_partition_of_split(parent, split.x, split.j)
            ):
                res.fail(f"good-partition arithmetic fails on {parent} at {split}")
        strips = map(region_to_strip, leaves)
        total = sum(oracle.exact_descent_count(len(s), s.descents) for s in strips)
        if total != volume(region):
            res.fail(f"leaf volumes do not total the volume on {region}")
    return res


def check_volume(max_size: int, rectangle_max: int, strip_max: int) -> CheckResult:
    res = CheckResult("volume-three-routes")
    for region in oracle.all_regions(max_size, connected_only=True):
        res.checked += 1
        if volume(region) != eh.ehrhart_polynomial(region).normalized_volume:
            res.fail(f"volume disagrees with leading coefficient on {region}")
    for n in range(2, rectangle_max + 1):
        for k in range(1, n):
            res.checked += 1
            if volume(rectangle_region(n - k, k)) != eulerian(k, n - 1):
                res.fail(f"rectangle volume is not Eulerian at (k,n)=({k},{n})")
    for strip in all_strips(strip_max):
        res.checked += 1
        if strip_volume(strip) != oracle.brute_syt(strip):
            res.fail(f"strip volume mismatch on {strip.direction_word!r}")
    res.checked += 2
    if volume(region_from_words("EENN", "NNEE")) != 4:
        res.fail("square volume is not 4")
    if volume(region_from_words("EENN", "NENE")) != 2:
        res.fail("L volume is not 2")
    return res


def check_catalan_area(n_max: int) -> CheckResult:
    """Closed-form gap areas against the first-return recurrence, n = 0..n_max."""
    res = CheckResult("catalan-area-two-routes")
    for n, recurred in enumerate(oracle.catalan_area_recurrence(n_max)):
        res.checked += 1
        if catalan_area(n) != recurred:
            res.fail(f"area recurrence and closed form disagree at n={n}")
    return res


def all_strips(max_boxes: int) -> list[BorderStrip]:
    """Every monotone box path with 1..max_boxes boxes, by direction word."""
    out = []
    for length in range(0, max_boxes):
        for dirs in product("RU", repeat=length):
            boxes = [Box(1, 1)]
            for d in dirs:
                c, r = boxes[-1]
                boxes.append(Box(c + 1, r) if d == "R" else Box(c, r + 1))
            out.append(BorderStrip(tuple(boxes)))
    return out


def _roundtrip_samples(w: tuple[int, ...], count: int) -> list[tuple[int, tuple[int, ...]]]:
    """Deterministic strictly-increasing rational points inside the order simplex,
    each as (denominator, numerators)."""
    d = len(w)
    out = []
    for s in range(count):
        y = [0] * d
        for i in range(d):
            y[w[i] - 1] = 1000 * i + (s % 997) + 1
        out.append((1000 * d + 2000 + s, tuple(y)))
    return out


def _zero_one(cell) -> bool:
    return all(c in (0, 1) for v in cell.vertices for c in v)


def _edge_det(cell) -> int:
    """``det_int`` of the cell's edge rows, rebuilt from its permutation w:
    row t sums the staircase moves e_v - e_{v+1} for v = w[d-1], ..., w[d-t]."""
    d = len(cell.perm)
    edge = [0] * (d + 1)
    rows = []
    for v in reversed(cell.perm):
        edge[v - 1] += 1
        edge[v] -= 1
        rows.append(edge[:d])
    return det_int(rows)


def _pullback_vertices(w: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """``oracle.psi_inverse_int`` of the order simplex's staircase points:
    y = 0, then y[w[idx] - 1] = 1 for idx = d-1, ..., 0."""
    y = [0] * len(w)
    verts = [oracle.psi_inverse_int(w, y, 1)]
    for v in reversed(w):
        y[v - 1] = 1
        verts.append(oracle.psi_inverse_int(w, y, 1))
    return tuple(verts)


def check_triangulation(n_max: int, strip_max: int, roundtrip_n: int, samples: int) -> CheckResult:
    """Hypersimplex slices, the prefix-sum round trip and strip triangulations.

    ``n_max`` bounds n for the slices (k, n): each slice's cells are checked
    for an Eulerian count and permutations equal to the full scan's buckets
    with k - 1 inverse descents, merged in lexicographic order, and each
    cell for a unit determinant equal to ``det_int`` of its edge rows, 0/1
    vertices in the slice and vertices equal to the pull-back of its
    permutation's staircase.  A cell that is not 0/1 fails on that alone;
    the pull-back comparison runs on the 0/1 cells.  The slices of one n
    hold each permutation of 1..n-1 once, so every per-cell check runs once
    per permutation.
    ``roundtrip_n`` bounds n for the round trip
    ``psi_int(psi_inverse_int(w, y)) == y``, run on integer numerators at
    ``samples`` points of every order simplex of dimension n - 1.
    ``strip_max`` bounds the boxes of the strips whose descent class, counted
    by the scan, is compared with ``strip_volume``.  The strips actually
    triangulated are every strip of at most ``n_max - 1`` boxes: their cells
    are checked for a ``strip_volume`` count and permutations equal to the
    scan's, in order, and each cell for equality with its slice twin, the
    slice cell of the same permutation.  A slice's cells are its
    rectangle's strip cells, so the twin check holds by construction and
    stays as the guard of that relation.  The slices and the strips share
    one scan per permutation length.
    """
    res = CheckResult("triangulation")
    scans = {
        length: oracle.scan_inverse_descents(length)
        for length in range(1, max(strip_max, n_max - 1) + 1)
    }
    twins = {}  # perm -> slice cell
    for n in range(2, n_max + 1):
        total = 0
        for k in range(1, n):
            cells = hypersimplex_triangulation(k, n)
            res.checked += 1
            if len(cells) != eulerian(k, n - 1):
                res.fail(f"cell count is not Eulerian at (k,n)=({k},{n})")
            scanned = sorted(w for d, ws in scans[n - 1].items() if len(d) == k - 1 for w in ws)
            if [cell.perm for cell in cells] != scanned:
                res.fail(f"cell permutations differ from the scan at (k,n)=({k},{n})")
            total += len(cells)
            for cell in cells:
                twins[cell.perm] = cell
                if abs(cell.det) != 1:
                    res.fail(f"cell {cell.perm} has determinant {cell.det}, not a unit")
                if not _zero_one(cell):
                    res.fail(f"cell {cell.perm} is not a 0/1 simplex at (k,n)=({k},{n})")
                elif cell.vertices != _pullback_vertices(cell.perm):
                    res.fail(f"cell {cell.perm} vertices differ from the pull-back at (k,n)=({k},{n})")
                if _edge_det(cell) != cell.det:
                    res.fail(f"cell {cell.perm} determinant differs from det_int")
                if not {sum(v) for v in cell.vertices} <= {k - 1, k}:
                    res.fail(f"cell {cell.perm} leaves the slice at (k,n)=({k},{n})")
                if any(sum(v) != k for v in cell.vertices_lifted):
                    res.fail(f"lifted cell {cell.perm} is off the hyperplane")
        res.checked += 1
        if total != factorial(n - 1):
            res.fail(f"slice cell counts do not fill the cube at n={n}")
    for n in range(2, roundtrip_n + 1):
        for w in permutations(range(1, n)):
            res.checked += 1
            for den, y in _roundtrip_samples(w, samples):
                if oracle.psi_int(oracle.psi_inverse_int(w, y, den), den) != y:
                    res.fail(f"round trip fails for w={w}")
                    break
    for strip in all_strips(strip_max):
        res.checked += 1
        if len(scans[len(strip)].get(strip.descents, [])) != strip_volume(strip):
            res.fail(f"strip cell count mismatch on {strip.direction_word!r}")
    for strip in all_strips(n_max - 1):
        res.checked += 1
        cells = strip_triangulation(strip)
        if len(cells) != strip_volume(strip):
            res.fail(f"strip triangulation size mismatch on {strip.direction_word!r}")
        if any(twins.get(cell.perm) != cell for cell in cells):
            res.fail(f"strip cell differs from its slice twin on {strip.direction_word!r}")
        if [cell.perm for cell in cells] != scans[len(strip)].get(strip.descents, []):
            res.fail(f"strip cell permutations differ from the scan on {strip.direction_word!r}")
    return res


def check_ehrhart(max_size: int) -> CheckResult:
    """The window-sum counts against the stepwise DP and the interior counts
    against the strict stepwise DP at t = 0..3; each interpolated polynomial
    at t = 0, 1 and at every plain dilation from ceil(d/2) + 1, the first it
    does not read, to d + 2, past its degree; and, on regions of at most 5
    elements, the double sum's transfer chain against its literal evaluation
    at t = 0..2.  Each region builds its composition set once."""
    res = CheckResult("ehrhart-interpolation")
    for region in oracle.all_regions(max_size):
        res.checked += 1
        poly = eh.ehrhart_polynomial(region)
        plain = [eh.count_lattice_points(region, t) for t in range(max(4, poly.degree + 3))]
        for t in range(4):
            if plain[t] != oracle.stepwise_count(region, t):
                res.fail(f"window sums differ from the stepwise DP at t={t} on {region}")
            interior = eh.count_lattice_points(region, t, interior=True)
            if interior != oracle.stepwise_count(region, t, interior=True):
                res.fail(f"interior window sums differ from the strict stepwise DP at t={t} on {region}")
        compositions = eh.gamma_set(region)
        if region.size <= 5:
            for t in range(3):
                chain = eh.transfer_chain(region.r, t, compositions)
                if chain != oracle.literal_double_sum(region.r, t, compositions):
                    res.fail(f"transfer chain differs from the literal double sum at t={t} on {region}")
        if poly(0) != 1 or poly(1) != len(enumerate_paths(region)):
            res.fail(f"values at 0/1 wrong on {region}")
        for t in range((poly.degree + 1) // 2 + 1, poly.degree + 3):
            if poly(t) != plain[t]:
                res.fail(f"overdetermination fails at t={t} on {region}")
        folds = {eh.basis_fold(bv.coords) for bv in bases(region)}
        if not folds <= set(compositions):
            res.fail(f"basis fold escapes the composition set on {region}")
    return res


def reconcile_sweep(max_size: int, t_max: int) -> list[str]:
    """CSV lines comparing the double-sum formula with the DP count, per region and t."""
    lines = ["lower,upper,t,formula_value,true_value,match"]
    for region in oracle.all_regions(max_size):
        lines.extend(eh.reconcile_ehrhart_formula(region, t_max).csv_lines())
    return lines


class ErrataRow(NamedTuple):
    claim: str
    stated: str
    computed: str
    verdict: str  # confirmed | erratum | boundary-case

    def line(self) -> str:
        return f"{self.claim}: {self.verdict}\n    stated:   {self.stated}\n    computed: {self.computed}"


def build_errata_report(max_size: int, t_max: int, formula_max: int) -> list[ErrataRow]:
    """One row per tracked published claim.

    The Catalan edge row compares the printed closed form with the edge
    count for n = 1..formula_max.  The region rows read one walk over the
    regions of at most ``max_size`` elements, listing each region's bases
    once; the split-goodness row reads its connected regions, the
    double-sum and affine-sum rows its regions of at most 5 elements.
    """
    rows = []

    printed_ok = True
    for n in range(1, formula_max + 1):
        enumerated = len(edges(catalan_region(n)))
        printed = (
            Fraction(n * n, 2) * catalan_number(n)
            - Fraction(4**n, 2)
            - Fraction(comb(2 * n + 2, n + 1), 4)
        )
        printed_ok &= printed == enumerated
    rows.append(
        ErrataRow(
            "catalan-edge-closed-form",
            "a(n) = (n^2/2) C_n - 4^n/2 - (1/4) binom(2n+2, n+1)",
            "enumerated edge counts match only after parenthesizing the last two "
            "terms as the area total A_n; printed form "
            + ("matches" if printed_ok else "fails (already at n=2)"),
            "confirmed" if printed_ok else "erratum",
        )
    )

    plus_one_ok = comp_ok = affine_ok = True
    fold_witness = count_witness = split_witness = ""
    splits = bad_splits = total = matched = 0
    for region in oracle.all_regions(max_size):
        basis_vectors = list(bases(region))
        d = affine_rank([bv.coords for bv in basis_vectors])
        k = len(intersection_vertices(region))
        plus_one_ok &= d == region.size - k + 1
        comp_ok &= d == region.size - components(region).count
        if region.r >= 2:
            bounds = eh.gamma_bounds(region)
            for bv in basis_vectors:
                fold = eh.basis_fold(bv.coords)
                sums = [sum(fold[: i + 1]) for i in range(region.r - 1)]
                if not all(a <= s <= b for a, s, b in zip(bounds.a, sums, bounds.b)):
                    fold_witness = fold_witness or f"{region} basis {bv.support}"
        compositions = eh.gamma_set(region)
        points = eh.count_lattice_points(region, 1)
        if len(compositions) != points and not count_witness:
            count_witness = f"{region}: {len(compositions)} compositions, {points} lattice points"
        if k == 2:  # connected: the paths touch only at their endpoints
            for node in decomposition_tree(region).nodes():
                if not node.children:
                    continue
                splits += 1
                x, j = node.split.x, node.split.j
                if not verify_good_partition(node.region, good_partition_of_split(node.region, x, j)):
                    bad_splits += 1
                    split_witness = split_witness or f"{node.region} at (x={x}, j={j})"
        if region.size <= 5:
            for t in range(t_max + 1):
                total += 1
                chain = eh.transfer_chain(region.r, t, compositions)
                matched += chain == eh.count_lattice_points(region, t)
            affine_ok &= all(sum(bv.coords) == region.r for bv in basis_vectors)

    rows.append(
        ErrataRow(
            "dimension-touch-point-offset",
            "dim = m + r - k + 2 with k the number of path intersection points",
            "affine ranks give dim = m + r - k + 1 on the whole sweep"
            + ("" if plus_one_ok else " (even the corrected offset fails!)"),
            "erratum" if plus_one_ok else "confirmed",
        )
    )
    rows.append(
        ErrataRow(
            "dimension-components-formula",
            "dim = (ground size) - (number of connected components)",
            "matches the affine rank of the vertex set on the whole sweep"
            if comp_ok
            else "fails somewhere on the sweep",
            "confirmed" if comp_ok else "erratum",
        )
    )

    per_n = []
    count_ok = True
    for n in range(2, 6):
        actual = len(facets(reduced_catalan_region(n)))
        claimed = catalan_facet_count(n)
        listed = 5 * n - 3  # the three displayed hyperplane families
        per_n.append(f"n={n}: claimed {claimed}, certified {actual}, families list {listed}")
        count_ok &= actual == claimed
    rows.append(
        ErrataRow(
            "catalan-facet-families",
            "5n-5 facets, lying on three displayed hyperplane families",
            "; ".join(per_n),
            "boundary-case" if count_ok else "erratum",
        )
    )

    krows = kcatalan_verdicts()
    mismatches = [f"(w={w},n={n}): claimed {c}, certified {a}" for w, n, c, a in krows if c != a]
    rows.append(
        ErrataRow(
            "kcatalan-facet-count",
            "(r+1)(2n-3) + n - 2 facets for the width-r staircase",
            "all claimed counts certified" if not mismatches else "; ".join(mismatches),
            "confirmed" if not mismatches else "erratum",
        )
    )

    rows.append(
        ErrataRow(
            "gamma-bound-orientation",
            "partial sums bounded below by the lower path's crossing times "
            "and above by the upper path's",
            f"printed orientation excludes realized folds (first witness: {fold_witness}); "
            "the swapped orientation contains every basis fold on the sweep"
            if fold_witness
            else "holds as printed",
            "erratum" if fold_witness else "confirmed",
        )
    )
    rows.append(
        ErrataRow(
            "gamma-lattice-point-count",
            "the number of lattice points equals the number of windowed compositions",
            "the composition count is a fold-class count, not a point count"
            + (f" (witness {count_witness})" if count_witness else ""),
            "erratum" if count_witness else "confirmed",
        )
    )
    rows.append(
        ErrataRow(
            "split-goodness-certification",
            "every interval-straddle split is certified by a good partition "
            "(threshold-bounded independent pairs stay independent)",
            f"splits themselves verified directly (base union, common facet, equal "
            f"dimension) on the whole sweep; the pairing property fails for "
            f"{bad_splits}/{splits} splits"
            + (f", first witness {split_witness}" if split_witness else ""),
            "confirmed" if bad_splits == 0 else "erratum",
        )
    )
    rows.append(
        ErrataRow(
            "ehrhart-double-sum",
            "dilation counts equal the double sum of multiset binomials",
            f"{matched}/{total} (region, t) pairs match on the sweep; "
            "full table via the reconciliation CSV",
            "confirmed" if matched == total else "erratum",
        )
    )
    rows.append(
        ErrataRow(
            "affine-hull-coordinate-sum",
            "coordinates of every vertex total m",
            "they total r, the number of N steps, on the whole sweep",
            "erratum" if affine_ok else "confirmed",
        )
    )
    return rows


class Check(NamedTuple):
    """One job of ``run_all`` and its ``lpm verify`` target.  ``call`` takes
    each ``capped`` keyword at min(--max-size, its cap), a function that
    reads the cap off ``oracle`` when the row runs, each ``fixed`` keyword as
    it is, and --t-max as ``t_max`` when ``t_max`` is set.  Workers take the
    jobs in ``rank`` order."""

    call: Callable
    rank: int
    capped: dict
    fixed: dict = {}
    t_max: bool = False


def _adjacency_cap() -> int:
    """The largest sweep size whose regions all fit ``brute_adjacent``: a
    region of n elements has at most C(n, n // 2) bases, its rectangle's."""
    return max(n for n in range(1, oracle.SWEEP_CAP + 1) if comb(n, n // 2) <= oracle.ADJACENT_CAP)


# A check that walks ``oracle.all_regions`` once: its size is clamped at the sweep's cap.
_SWEPT = {"max_size": lambda: oracle.SWEEP_CAP}

# ``run_all``'s jobs in report order.  The ranks put the facet sweep first,
# then the rest heaviest first by their seconds at --max-size 6.  Every size
# a check takes is here or behind a cap of ``oracle``: the functions have no
# defaults.
CHECKS = {
    "bases": Check(check_bases, 10, _SWEPT),
    "deletion": Check(check_deletion, 2, _SWEPT),
    "dimension": Check(check_dimension, 8, _SWEPT, {"catalan_ns": range(2, 7)}),
    "edges": Check(
        check_edges, 5, {"oracle_max": _adjacency_cap, "area_max": lambda: oracle.SWEEP_CAP},
        {"formula_max": 6},
    ),
    "facets": Check(
        check_facets, 0, {"max_size": lambda: oracle.FACETS_CAP}, {"catalan_ns": range(3, 7)}
    ),
    "faces": Check(check_faces, 6, _SWEPT),
    "decomposition": Check(check_decomposition, 9, _SWEPT),
    "volume": Check(check_volume, 7, _SWEPT, {"rectangle_max": 7, "strip_max": 7}),
    "catalan-area": Check(check_catalan_area, 11, {}, {"n_max": 12}),
    "triangulation": Check(
        check_triangulation, 3, {}, {"n_max": 7, "strip_max": 7, "roundtrip_n": 5, "samples": 50}
    ),
    "ehrhart": Check(check_ehrhart, 1, _SWEPT),
    "errata": Check(build_errata_report, 4, _SWEPT, {"formula_max": 6}, t_max=True),
}


def _timed(name: str, max_size: int, t_max: int):
    """A ``CHECKS`` row's outcome at these sizes, its elapsed seconds and the
    sizes it took from --max-size."""
    row = CHECKS[name]
    sizes = {key: min(max_size, cap()) for key, cap in row.capped.items()}
    start = perf_counter()
    out = row.call(**sizes, **row.fixed, **({"t_max": t_max} if row.t_max else {}))
    return out, perf_counter() - start, sizes


def worker_count() -> int:
    """The workers ``run_all`` forks: one per usable CPU, at most one per row
    of ``CHECKS``.  1 means it runs in-process, as it does where the platform
    cannot fork or the caller has more than one thread."""
    import multiprocessing
    import threading

    if "fork" not in multiprocessing.get_all_start_methods() or threading.active_count() > 1:
        return 1
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(usable or 1, len(CHECKS))


def run_all(max_size: int, t_max: int, timings: dict | None = None, names: Collection[str] = CHECKS):
    """The ``CHECKS`` rows in ``names``, all by default, at the given sweep
    cap; returns (ok, result list, errata rows), with no errata rows unless
    ``names`` holds "errata".

    The rows share no state, so they run on at most ``worker_count()``
    forked workers, one per row, in ``rank`` order, or in-process when
    that is 1.  A worker receives a row's name and sizes and runs the row
    of the ``CHECKS`` it inherited at fork, so it sees the caller's modules
    and table as they are, patched or not; only the results travel back.
    They are gathered in report order.  When ``timings`` is a dict, each
    row's (elapsed seconds inside its worker, sizes taken from --max-size)
    go into it under the name its outcome prints, "errata" for the report.
    """
    import concurrent.futures
    import multiprocessing

    workers = min(worker_count(), len(names))
    if workers < 2:
        outcomes = {name: _timed(name, max_size, t_max) for name in names}
    else:
        with concurrent.futures.ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork")
        ) as pool:
            futures = {
                name: pool.submit(_timed, name, max_size, t_max)
                for name in sorted(names, key=lambda name: CHECKS[name].rank)
            }
            outcomes = {name: futures[name].result() for name in names}
    if timings is not None:
        timings.update((getattr(out, "name", "errata"), rest) for out, *rest in outcomes.values())
    errata = outcomes.pop("errata", ([],))[0]
    results = [result for result, *_ in outcomes.values()]
    return all(r.ok for r in results), results, errata
