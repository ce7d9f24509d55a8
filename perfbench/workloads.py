"""The three workloads: seeded inputs, the ops that run on them, and their checks.

``build(name, seed)`` returns the op list and a function that summarises
the inputs (run after set-up is timed).  Every
check runs after its op, outside the timed span, and takes its expected
value from an independent route: the benchmark's own counts in ``gen``, a
different library function called untimed, or an ``oracle`` op of the same
pass.  Why each workload exists is written in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from typing import Callable

import gen
from harness import Op, expect

import lpmpoly as lp
from lpmpoly import cli, oracle, ratlinalg, verify


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``lpm`` in-process: the exit code and everything it printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            cli.main(argv)
            code = 0
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def listed_bases(R) -> list:
    return list(lp.bases(R))


def _dim(pair) -> int:
    return len(pair[0]) - len(gen.touch_points(*pair)) + 1


def _cli_ok(answer) -> dict | list:
    code, text = answer
    expect(code == 0, f"exit code {code}")
    return json.loads(text)


def _leaves(node) -> list:
    stack, out = [node], []
    while stack:
        n = stack.pop()
        if n.children:
            stack.extend(n.children)
        else:
            out.append(n.region)
    return out


def _swap_edge_count(words: list[str]) -> int:
    """Vertex pairs one N/E swap apart, by direct lookup in the vertex set."""
    present = set(words)
    found = 0
    for w in words:
        ones = [i for i, c in enumerate(w) if c == "N"]
        zeros = [i for i, c in enumerate(w) if c == "E"]
        for a in ones:
            for b in zeros:
                if b > a:
                    s = list(w)
                    s[a], s[b] = "E", "N"
                    found += "".join(s) in present
    return found


class Plan:
    """Collects ops and the regions they run on."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.ops: list[Op] = []
        self.regions: dict[str, object] = {}
        self.strips: dict[str, object] = {}
        self.needed: set[tuple[str, str]] = set()

    def uses(self, func: str, key: str) -> tuple[str, str]:
        """Mark the answer of an earlier op as read by a later one, so the pass keeps it."""
        self.needed.add((func, key))
        return func, key

    def region(self, pair: tuple[str, str]):
        key = f"{pair[0]}/{pair[1]}"
        if key not in self.regions:
            self.regions[key] = lp.region_from_words(*pair)
        return key, self.regions[key]

    def strip(self, direction: str):
        if direction not in self.strips:
            boxes = [lp.Box(1, 1)]
            for d in direction:
                c, r = boxes[-1]
                boxes.append(lp.Box(c + 1, r) if d == "R" else lp.Box(c, r + 1))
            self.strips[direction] = lp.BorderStrip(tuple(boxes))
        return self.strips[direction]

    def add(self, layer, func, key, fn, args, check, counts=None, digest=None) -> None:
        self.ops.append(Op(layer, func, key, fn, args, check, counts, digest))

    # --- region queries shared by large-regions and small-sweep ----------

    def bases(self, pair, oracle_first: bool = False) -> None:
        key, R = self.region(pair)
        brute = self.uses("brute_bases", key) if oracle_first else None

        def check(ans, res):
            expect(len(ans) == lp.count_lattice_points(R, 1), "basis count differs from lattice points at t=1")
            if brute:
                expect({frozenset(b.support) for b in ans} == res[brute], "bases differ from the oracle")

        self.add("matroid", "bases", key, listed_bases, (R,), check, lambda a: {"bases_out": len(a)})

    def enumerate_paths(self, pair, exact: bool) -> None:
        key, R = self.region(pair)

        def check(ans, res):
            words = [p.word for p in ans]
            if exact:
                expect(words == gen.list_paths(*pair), "paths differ from the direct listing")
            else:
                expect(len(words) == gen.count_paths(*pair), "path count differs from the height DP")
                expect(all(a < b for a, b in zip(words, words[1:])), "paths not strictly lexicographic")

        self.add("paths", "enumerate_paths", key, lp.enumerate_paths, (R,), check,
                 lambda a: {"paths_out": len(a)})

    def dimension(self, pair) -> None:
        key, R = self.region(pair)
        self.add("polytope", "dimension", key, lp.dimension, (R,),
                 lambda ans, res: expect(ans == _dim(pair), "dimension differs from the touch-point count"))

    def components(self, pair) -> None:
        key, R = self.region(pair)
        touch = gen.touch_points(*pair)
        want = [(a + 1, b) for a, b in zip(touch, touch[1:])]
        self.add("matroid", "components", key, lp.components, (R,),
                 lambda ans, res: expect([(b.start, b.stop) for b in ans.blocks] == want,
                                         "blocks differ from the touch points"))

    def edges(self, pair, oracle_pairs: bool = False) -> None:
        key, R = self.region(pair)
        catalan_lower = pair[0] == "E" * pair[0].count("E") + "N" * pair[0].count("N")
        vertex_pairs = combinations(range(gen.count_paths(*pair)), 2) if oracle_pairs else ()
        adjacency = {(i, j): self.uses("brute_adjacent", f"{key}|{i},{j}") for i, j in vertex_pairs}

        def check(ans, res):
            expect(all(a < b for a, b in zip(ans, ans[1:])), "edge list not sorted and distinct")
            if oracle_pairs:
                brute = {ij for ij, k in adjacency.items() if res[k]}
                expect(set(ans) == brute, "edges differ from the adjacency oracle")
            elif catalan_lower:
                expect(len(ans) == lp.edge_count_by_area(R), "edge count differs from the area total")
            else:
                expect(len(ans) == _swap_edge_count(gen.list_paths(*pair)), "edge count differs from the swap scan")

        self.add("polytope", "edges", key, lp.edges, (R,), check, lambda a: {"edges_out": len(a)})

    def decomposition_tree(self, pair, connected: bool) -> None:
        key, R = self.region(pair)

        def check(ans, res):
            for leaf in _leaves(ans):
                expect(not gen.has_square(gen.boxes(leaf.lower.word, leaf.upper.word)), "a leaf is not a border strip")
            if connected:
                expect(len(_leaves(ans)) == gen.strip_paths(*pair), "leaf count differs from the strip count")

        self.add("decompose", "decomposition_tree", key, lp.decomposition_tree, (R,), check,
                 lambda a: {"leaves_out": len(_leaves(a))})

    def border_strips(self, pair) -> None:
        key, R = self.region(pair)
        self.add("decompose", "border_strips", key, lp.border_strips, (R,),
                 lambda ans, res: expect(len(ans) == gen.strip_paths(*pair), "strip count differs from the box-path DP"),
                 lambda a: {"strips_out": len(a)})

    def delete(self, pair, count: int) -> None:
        """Delete ``count`` distinct seeded (element, value) pairs with a nonempty face.

        delete's cost grows with the face's path count, so the options are
        ranked by it and one pick is drawn from each of ``count`` equal shares
        of the ranking: the faces differ by seed, their spread of sizes hardly.
        """
        key, R = self.region(pair)
        n = len(pair[0])
        options = sorted(
            (gen.count_paths(*pair, forced=(i, "NE"[v == 0])), i, v)
            for i in range(1, n + 1) for v in (0, 1)
        )
        options = [o for o in options if o[0]]
        for part in range(count):
            share = options[part * len(options) // count:(part + 1) * len(options) // count]
            want, i, v = self.rng.choice(share)

            def check(ans, res, want=want):
                expect(ans.size == n - 1, "deletion did not drop one element")
                expect(gen.count_paths(ans.lower.word, ans.upper.word) == want,
                       "deletion changes the face's path count")

            self.add("matroid", "delete", f"{key}|{i}={v}", lp.delete, (R, i, v), check)

    def facets(self, pair, exact: bool = False, family_count: int | None = None) -> None:
        key, R = self.region(pair)
        brute = self.uses("brute_facets", key) if exact else None

        def check(ans, res):
            expect(len({f.tight for f in ans}) == len(ans), "two facets share a tight set")
            expect(len(ans) >= _dim(pair) + 1 or _dim(pair) == 0, "fewer facets than dimension + 1")
            for f in ans:
                expect(len(f.tight) == _tight_count(pair, f), f"tight set size wrong for {f.kind}@{f.position}")
            if family_count is not None:
                expect(len(ans) == family_count, "facet count differs from the family's verified count")
            if brute:
                expect(ans == res[brute], "facets differ from the oracle")

        self.add("polytope", "facets", key, lp.facets, (R,), check, lambda a: {
            "facets_out": len(a),
            "facet_candidates": 2 * len(pair[0]) + gen.corner_count(*pair),
        })

    def face_region(self, pair, count: int) -> None:
        """Faces of ``count`` distinct facets, one seeded pick in each equal share of the list.

        The facet list puts box bounds before prefix bounds, so two picks
        usually cover one of each.
        """
        key, R = self.region(pair)
        found_key = self.uses("facets", key)
        for part in range(count):
            u = (part + self.rng.random()) / count

            def args(res, u=u):
                found = res[found_key]
                return R, found[int(u * len(found))]

            def check(ans, res, args=args):
                facet = args(res)[1]
                parts = ans if isinstance(ans, tuple) else (ans,)
                words = [(p.lower.word, p.upper.word) for p in parts]
                paths = 1
                for w in words:
                    paths *= gen.count_paths(*w)
                expect(paths == len(facet.tight), "face path count differs from the tight set")
                expect(sum(_dim(w) for w in words) == _dim(pair) - 1, "face is not of codimension one")

            self.add("polytope", "face_region", f"{key}|{part}/{count}", lp.face_region, args, check)

    def volume(self, pair) -> None:
        key, R = self.region(pair)
        self.add("volume", "volume", key, lp.volume, (R,),
                 lambda ans, res: expect(ans == lp.ehrhart_polynomial(R).normalized_volume,
                                         "volume differs from the Ehrhart leading coefficient"))

    def cli_verb(self, verb: str, pair) -> None:
        key, R = self.region(pair)
        argv = [verb, "--lower", pair[0], "--upper", pair[1], "--max-size", "64"]
        direct = self.uses(verb, key) if verb != "decompose" else None

        def check(ans, res):
            payload = _cli_ok(ans)
            if verb == "volume":
                expect(payload == {"volume_normalized": str(res[direct])}, "lpm volume differs")
            elif verb == "facets":
                want = [[list(f.constraint.coeffs), f.constraint.rhs] for f in res[direct]]
                expect([[r["coeffs"], r["rhs"]] for r in payload] == want, "lpm facets differs")
            elif verb == "edges":
                expect(payload["count"] == len(res[direct]), "lpm edges count differs")
            else:
                expect(_json_leaves(payload) == gen.strip_paths(*pair), "lpm decompose leaf count differs")

        self.add("cli", "main", " ".join(argv), run_cli, (argv,), check,
                 lambda a: {"bytes_out": len(a[1].encode())})

    # --- small-input ops for the oracle, ratlinalg, ehrhart, triangulate and verify layers

    def brute_bases(self, pair) -> None:
        key, R = self.region(pair)

        def check(ans, res):
            want = {frozenset(i for i, c in enumerate(w, 1) if c == "N") for w in gen.list_paths(*pair)}
            expect(ans == want, "oracle bases differ from the direct listing")

        self.add("oracle", "brute_bases", key, oracle.brute_bases, (R,), check, lambda a: {"regions_checked": 1})

    def affine_rank(self, pair) -> None:
        key, R = self.region(pair)
        found = self.uses("bases", key)
        self.add("ratlinalg", "affine_rank", key, ratlinalg.affine_rank,
                 lambda res: ([b.coords for b in res[found]],),
                 lambda ans, res: expect(ans == _dim(pair), "affine rank differs from the dimension"))

    def verify_check(self, name: str, **kwargs) -> None:
        fn = getattr(verify, name)
        key = ",".join(f"{k}={v!r}" for k, v in sorted(kwargs.items()))
        self.add("verify", name, key, lambda: fn(**kwargs), (),
                 lambda ans, res: expect(ans.ok and ans.checked > 0, f"{name} failed: {ans.failures[:3]}"),
                 lambda a: {"checks": a.checked}, lambda a: [a.name, a.ok, a.checked])

    def hypersimplex(self, k: int, n: int) -> None:
        def check(ans, res):
            expect(len(ans) == gen.eulerian(k, n - 1), "cell count is not Eulerian")
            expect(all(abs(c.det) == 1 for c in ans), "a cell is not unimodular")

        self.add("triangulate", "hypersimplex_triangulation", f"{k},{n}", lp.hypersimplex_triangulation,
                 (k, n), check, lambda a: {"cells_out": len(a), "perms_scanned": factorial(n - 1)})

    def strip_triangulation(self, direction: str) -> None:
        strip = self.strip(direction)
        want = gen.descent_class_size(len(direction) + 1, gen.strip_descents(direction))

        def check(ans, res):
            expect(len(ans) == want, "cell count differs from the descent-class DP")
            expect(all(abs(c.det) == 1 for c in ans), "a cell is not unimodular")

        self.add("triangulate", "strip_triangulation", direction, lp.strip_triangulation, (strip,), check,
                 lambda a: {"cells_out": len(a), "perms_scanned": factorial(len(direction) + 1)})

    def brute_syt(self, direction: str) -> None:
        want = gen.descent_class_size(len(direction) + 1, gen.strip_descents(direction))
        self.add("oracle", "brute_syt", direction, oracle.brute_syt, (self.strip(direction),),
                 lambda ans, res: expect(ans == want, "oracle filling count differs from the descent-class DP"),
                 lambda a: {"regions_checked": 1})


def _json_leaves(tree: dict) -> int:
    if "children" not in tree:
        return 1
    return sum(_json_leaves(c) for c in tree["children"])


def _tight_count(pair, facet) -> int:
    if facet.kind == "x_lower":
        return gen.count_paths(*pair, forced=(facet.position, "E"))
    if facet.kind == "x_upper":
        return gen.count_paths(*pair, forced=(facet.position, "N"))
    return gen.count_paths(*pair, pin=(facet.position, facet.constraint.rhs))


def _stats(plan: Plan) -> dict:
    sizes = [len(R.lower.word) for R in plan.regions.values()]
    return {
        "ops": len(plan.ops),
        "regions": len(sizes),
        "connected": sum(len(gen.touch_points(R.lower.word, R.upper.word)) == 2 for R in plan.regions.values()),
        "size_range": [min(sizes), max(sizes)],
        "total_paths": sum(gen.count_paths(R.lower.word, R.upper.word) for R in plan.regions.values()),
        "strips": len(plan.strips),
    }


# --- large-regions ----------------------------------------------------------

def _volume_terms(lower: str, upper: str) -> int:
    """Inclusion-exclusion terms the strip volumes sum over; tracks volume's cost."""
    return gen.strip_paths(lower, upper, up_weight=2)


def _facet_work(lower: str, upper: str) -> int:
    """Paths times candidates times elements: each candidate's tight set is a
    scan of every path, and the rank test that certifies it grows with n.
    Over random 14-20 element regions it tracks facets' cost about twice as
    closely as the path count alone."""
    n = len(lower)
    return gen.count_paths(lower, upper) * (2 * n + gen.corner_count(lower, upper)) * n


def large_regions(seed: int) -> Plan:
    plan = Plan(seed)
    rng = plan.rng
    facet_group, volume_group, enum_group = gen.stratified_regions(rng, [
        (gen.geometric(22_000, 130_000, 16), _facet_work),
        (gen.geometric(300, 30_000, 24), _volume_terms),
        (gen.geometric(60, 800, 72), gen.count_paths),
    ], draws=28_000)

    rects = [gen.rectangle(m, r) for m, r in ((2, 2), (3, 2), (2, 3), (3, 3), (4, 2))]
    families = [gen.staircase(6), gen.staircase(7), gen.staircase(8), gen.kcatalan(2, 4), gen.kcatalan(2, 5)]
    family_facets = {gen.staircase(n): lp.catalan_facet_count(n) for n in (6, 7, 8)}
    family_facets.update({gen.kcatalan(2, n): lp.kcatalan_facet_count(2, n) for n in (4, 5)})

    for pair in families + rects + enum_group:
        plan.bases(pair)
        plan.enumerate_paths(pair, exact=False)
        plan.dimension(pair)
        plan.components(pair)
        plan.edges(pair)
        plan.decomposition_tree(pair, connected=True)
        plan.border_strips(pair)
        plan.delete(pair, 2)
    # facets on staircase(8) takes seconds by itself; README.md records it once.
    for pair in [p for p in families if p != gen.staircase(8)] + rects + facet_group:
        plan.facets(pair, family_count=family_facets.get(pair))
    for pair in [gen.kcatalan(2, 4), gen.rectangle(3, 3)] + facet_group[:3]:
        plan.face_region(pair, 2)
    for pair in families + rects + volume_group:
        plan.volume(pair)
    for pair in volume_group[:4]:
        plan.cli_verb("volume", pair)
    for pair in facet_group[:3]:
        plan.cli_verb("facets", pair)
    for pair in enum_group[:4]:
        plan.cli_verb("decompose", pair)
    for pair in enum_group[:3]:
        plan.cli_verb("edges", pair)
    for pair in rects:
        n, r = len(pair[0]), pair[0].count("N")
        plan.brute_bases(pair)
        plan.affine_rank(pair)
        plan.hypersimplex(r, n)
        key, R = plan.region(pair)
        plan.add("ehrhart", "count_lattice_points", f"{key}|2", lp.count_lattice_points, (R, 2),
                 lambda ans, res, n=n, r=r: expect(ans == gen.dilation_points(n, r, 2),
                                                    "hypersimplex dilation count differs"),
                 lambda a: {"dilations": 1})
    plan.verify_check("check_bases", max_size=4)
    return plan


# --- counting ---------------------------------------------------------------

def counting(seed: int) -> Plan:
    plan = Plan(seed)
    rng = plan.rng
    # Fixed regions: the DP's cost grows with the rank, so a seeded choice
    # among same-size regions would move the run's work by a few percent.
    ehrhart_regions = (
        [gen.staircase(8), gen.staircase(11), gen.staircase(14), gen.staircase(18)]
        + [gen.rectangle(9, 7), gen.rectangle(10, 10), gen.rectangle(13, 11)]
        + [gen.kcatalan(2, 7), gen.kcatalan(3, 7)]
    )
    for pair in ehrhart_regions:
        key, R = plan.region(pair)

        def check(ans, res, pair=pair):
            expect(ans.coeffs[0] == 1 and ans.degree == _dim(pair), "wrong constant term or degree")
            expect(ans(1) == gen.count_paths(*pair), "polynomial at 1 differs from the path count")
            if pair[1] == "N" * pair[0].count("N") + "E" * pair[0].count("E"):
                expect(ans.normalized_volume == gen.eulerian(pair[0].count("N"), len(pair[0]) - 1),
                       "rectangle volume is not Eulerian")

        plan.add("ehrhart", "ehrhart_polynomial", key, lp.ehrhart_polynomial, (R,), check,
                 lambda a: {"dilations": a.degree + 3})
        plan.add("polytope", "dimension", key, lp.dimension, (R,),
                 lambda ans, res, poly=plan.uses("ehrhart_polynomial", key): expect(
                     ans == res[poly].degree, "dimension differs from the Ehrhart degree"))
        plan.components(pair)
    # One dilation in each band of five, at offset 1, 2 or 3 into it; a
    # region's offsets cycle from a seeded start, so every seed scans the
    # same spread of t per region and per band.
    for pair in ehrhart_regions:
        key, R = plan.region(pair)
        start = rng.randrange(3)
        for band, lo in enumerate(range(2, 62, 5)):
            t = lo + 1 + (start + band) % 3
            plan.add("ehrhart", "count_lattice_points", f"{key}|{t}", lp.count_lattice_points, (R, t),
                     lambda ans, res, t=t, poly=plan.uses("ehrhart_polynomial", key): expect(
                         ans == res[poly](t), "dilation count differs from the polynomial"),
                     lambda a: {"dilations": 1})

    small: list[tuple[str, str]] = []
    while len(small) < 12:
        pair = gen.random_small_region(rng, 6)
        if pair not in small:
            small.append(pair)
    # The reconciliation's cost grows steeply with t_max: four regions each.
    t_maxes = [1, 2, 3] * 4
    rng.shuffle(t_maxes)
    for pair, t_max in zip(small, t_maxes):
        key, R = plan.region(pair)

        def check(ans, res, pair=pair, t_max=t_max):
            expect(len(ans.rows) == t_max + 1, "wrong number of dilations")
            expect(ans.rows[0].true_value == 1 and ans.rows[1].true_value == gen.count_paths(*pair),
                   "true counts wrong at t = 0 or 1")

        plan.add("ehrhart", "reconcile_ehrhart_formula", f"{key}|{t_max}", lp.reconcile_ehrhart_formula,
                 (R, t_max), check, lambda a: {"dilations": len(a.rows)})
        plan.enumerate_paths(pair, exact=True)
        plan.border_strips(pair)

    for n in range(3, 8):
        for k in range(1, n):
            plan.hypersimplex(k, n)
    for k, n in ((1, 8), (2, 8), (6, 8), (7, 8), (1, 9), (8, 9)):
        plan.hypersimplex(k, n)

    # Strips whose cell count lies near the median for their length, so the
    # cells built (not just the permutations scanned) hardly vary by seed.
    # A 9-box strip scans 9! permutations in about a second; leaving it out
    # doubles the passes a run gets, and so the samples behind each op time.
    for length, count, median in ((7, 8, 64), (8, 3, 231)):
        typical = [w for w in gen.strip_words(length)
                   if 0.8 * median <= gen.descent_class_size(length, gen.strip_descents(w)) <= 1.25 * median]
        for direction in rng.sample(typical, count):
            plan.strip_triangulation(direction)
            if length == 7:
                plan.brute_syt(direction)
            if length == 8:
                plan.add("ratlinalg", "det_int", direction, ratlinalg.det_int,
                         lambda res, cells=plan.uses("strip_triangulation", direction): (_cell_matrix(res[cells][0]),),
                         lambda ans, res: expect(abs(ans) == 1, "first cell is not unimodular"))

    # Narrow seeded bands: the gap-area recurrence's cost grows fast with n.
    for lo in (60, 90, 120, 150):
        n = rng.randint(lo, lo + 4)
        plan.add("volume", "catalan_area", str(n), lp.catalan_area, (n,),
                 lambda ans, res, n=n: expect(ans == _gap_area(n), "gap area differs from the closed form"))
    for lo in (200, 230, 260):
        n = rng.randint(lo, lo + 4)
        argv = ["catalan", "--n", str(n)]

        def check(ans, res, n=n):
            payload = _cli_ok(ans)
            c = comb(2 * n, n) // (n + 1)
            area = _gap_area(n)
            expect(payload["catalan_number"] == str(c), "Catalan number differs")
            expect(payload["gap_area_total"] == f"{area.numerator}/{area.denominator}", "gap area differs")
            expect(payload["edge_count"] == str((n * n * c - 2 * area) / 2), "edge count differs")

        plan.add("cli", "main", " ".join(argv), run_cli, (argv,), check, lambda a: {"bytes_out": len(a[1].encode())})

    plan.verify_check("check_ehrhart", max_size=4)
    plan.verify_check("check_triangulation", n_max=4, strip_max=4, roundtrip_n=3, samples=5)
    return plan


def _cell_matrix(cell) -> list[list[int]]:
    base = cell.vertices[0]
    return [[a - b for a, b in zip(v, base)] for v in cell.vertices[1:]]


def _gap_area(n: int) -> Fraction:
    """Total gap between the diagonal and the Dyck paths of size n, closed form."""
    return Fraction(4**n, 2) - Fraction(comb(2 * n + 2, n + 1), 4)


# --- small-sweep ------------------------------------------------------------

ADJACENCY_VERTEX_CAP = 10


def small_sweep(seed: int) -> Plan:
    plan = Plan(seed)
    regions = gen.all_regions(7)
    plan.rng.shuffle(regions)
    connected = []
    for pair in regions:
        n = len(pair[0])
        is_connected = len(gen.touch_points(*pair)) == 2
        plan.brute_bases(pair)
        plan.bases(pair, oracle_first=True)
        plan.enumerate_paths(pair, exact=True)
        plan.dimension(pair)
        plan.affine_rank(pair)
        plan.components(pair)
        small = is_connected and gen.count_paths(*pair) <= ADJACENCY_VERTEX_CAP
        if small:
            key, _ = plan.region(pair)
            verts = [tuple(int(c == "N") for c in w) for w in gen.list_paths(*pair)]
            for i, j in combinations(range(len(verts)), 2):
                plan.add("oracle", "brute_adjacent", f"{key}|{i},{j}", oracle.brute_adjacent, (verts, i, j),
                         lambda ans, res: expect(isinstance(ans, bool), "adjacency oracle returned a non-bool"))
        plan.edges(pair, oracle_pairs=small)
        plan.decomposition_tree(pair, connected=is_connected)
        plan.border_strips(pair)
        if n >= 2:
            plan.delete(pair, 1)
        if is_connected:
            connected.append(pair)
    for pair in connected:
        key, R = plan.region(pair)
        plan.add("oracle", "brute_facets", key, oracle.brute_facets, (R,),
                 lambda ans, res: expect(isinstance(ans, list), "facet oracle returned a non-list"),
                 lambda a: {"regions_checked": 1})
        plan.facets(pair, exact=True)
        plan.volume(pair)
        if len(pair[0]) >= 2:
            plan.face_region(pair, 1)
        for verb in plan.rng.sample(("volume", "facets", "decompose", "edges"), 2):
            plan.cli_verb(verb, pair)
        if len(pair[0]) <= 5:
            plan.add("ehrhart", "ehrhart_polynomial", key, lp.ehrhart_polynomial, (R,),
                     lambda ans, res, vol=plan.uses("volume", key): expect(
                         ans.normalized_volume == res[vol], "Ehrhart volume differs from the volume"),
                     lambda a: {"dilations": a.degree + 3})
    for length in range(1, 8):
        for direction in gen.strip_words(length):
            strip = plan.strip(direction)
            plan.brute_syt(direction)
            plan.add("volume", "strip_volume", direction, lp.strip_volume, (strip,),
                     lambda ans, res, syt=plan.uses("brute_syt", direction): expect(
                         ans == res[syt], "strip volume differs from the oracle"))
            if length <= 5:
                plan.strip_triangulation(direction)
    plan.verify_check("check_bases", max_size=5)
    plan.verify_check("check_dimension", max_size=5, catalan_ns=range(2, 5))
    plan.verify_check("check_edges", oracle_max=5, area_max=6, formula_max=5)
    plan.verify_check("check_facets", max_size=6, catalan_ns=range(3, 5))
    plan.verify_check("check_faces", max_size=5)
    plan.verify_check("check_decomposition", max_size=5)
    plan.verify_check("check_volume", max_size=5, rectangle_max=5, strip_max=5)
    plan.verify_check("check_triangulation", n_max=5, strip_max=5, roundtrip_n=4, samples=20)
    plan.verify_check("check_ehrhart", max_size=5)
    argv = ["verify", "all", "--max-size", "6"]

    def check_verify_all(ans, res):
        code, text = ans
        expect(code == 0, f"lpm verify all exit code {code}")
        expect(": PASS (" in text and ": FAIL (" not in text, "lpm verify all did not pass every check")

    plan.add("cli", "main", " ".join(argv), run_cli, (argv,), check_verify_all,
             lambda a: {"bytes_out": len(a[1].encode())}, _verify_summary)
    return plan


def _verify_summary(answer) -> list:
    """Check names, verdicts and counts of ``lpm verify all``: what stays fixed if the
    report gains timings."""
    return [m.groups() for m in re.finditer(r"^(\S+): (PASS|FAIL) \((\d+) checks", answer[1], re.M)]


def build(name: str, seed: int) -> tuple[list[Op], Callable[[], dict]]:
    """The ops of a workload and a function that summarises its inputs."""
    builders = {"large-regions": large_regions, "counting": counting, "small-sweep": small_sweep}
    if name not in builders:
        raise SystemExit(f"unknown workload {name!r}; choose from {', '.join(builders)}")
    plan = builders[name](seed)
    for op in plan.ops:
        op.keep = (op.func, op.key) in plan.needed
    return plan.ops, lambda: _stats(plan)
