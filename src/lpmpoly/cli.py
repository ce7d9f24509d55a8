"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage error (also an
absent or unreadable region file), 3 invalid region, malformed region file
or unsupported region for the verb, 4 size cap exceeded, 141 stdout closed
by its reader, as by ``| head`` (the shell's code for SIGPIPE).  Every
error, argparse's usage errors included, prints one ``error:`` line on
stderr and no usage block.  Output is deterministic byte-for-byte for
identical inputs.

A region verb is added as one row of ``REGION_VERBS``: whether
``--max-size`` caps it, and the function that makes its JSON and text
lines; ``cmd_region`` reads the region, applies the cap and prints one
format.  The records printed are built here, not on the value types.

The argument parser is built once per process, on first use, and every
``main`` call reuses it: nothing is built at import time.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction

from . import _import_start
from . import ehrhart as eh
from .decompose import border_strips, decomposition_tree, region_to_strip
from .errors import (
    BadK,
    DisconnectedRegion,
    DominanceViolation,
    EmptyWord,
    EndpointMismatch,
    InvalidCharacter,
)
from .matroid import bases, is_connected
from .paths import PathWord, Region
from .polytope import (
    catalan_edge_formula,
    catalan_facet_count,
    dimension,
    edges,
    facets,
    h_representation,
    kcatalan_facet_count,
    tight_sets,
    vertices,
)
from .triangulate import hypersimplex_triangulation
from .volume import catalan_area, catalan_number, volume

USAGE_ERROR, INVALID_REGION, SIZE_CAP, BROKEN_PIPE = 2, 3, 4, 141


def _error(code: int, message: str) -> SystemExit:
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(code)


def _region_from_args(args) -> Region:
    if args.file and (args.lower or args.upper):
        raise _error(USAGE_ERROR, "give the region by --file or by --lower/--upper, not both")
    if args.file:
        return _region_from_file(args.file)
    if not (args.lower and args.upper):
        raise _error(USAGE_ERROR, "provide --lower and --upper, or --file")
    return Region(PathWord(args.lower), PathWord(args.upper))


def _region_from_file(path: str) -> Region:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise _error(USAGE_ERROR, f"cannot read {path}: {exc.strerror}")
    try:
        # numbers are read as floats: a long integer would cost quadratic time in int()
        data = json.loads(raw, parse_int=float)
    except (ValueError, RecursionError) as exc:
        raise _error(INVALID_REGION, f"{path} is not JSON: {exc}")
    if not (
        isinstance(data, dict)
        and isinstance(data.get("lower"), str)
        and isinstance(data.get("upper"), str)
    ):
        raise _error(INVALID_REGION, f'{path} needs string fields "lower" and "upper"')
    return Region(PathWord(data["lower"]), PathWord(data["upper"]))


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _json(payload):
    """The one ``--format json`` line of ``payload``, dumped only when read."""
    return map(json.dumps, [payload])


def _constraint(cons, tight) -> dict:
    return {"coeffs": list(cons.coeffs), "rel": cons.rel, "rhs": cons.rhs, "tight_vertices": list(tight)}


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # a 0/1 vertex as its digit string


def _bases(region: Region):
    words = [bytes(bv.coords).translate(_DIGITS).decode() for bv in bases(region)]
    return _json(words), words


def _dim(region: Region):
    d = dimension(region)
    return _json({"dimension": d}), [str(d)]


def _edges(region: Region):
    verts = [bytes(v).translate(_DIGITS).decode() for v in vertices(region)]
    found = edges(region)
    # json.dumps writes the edge tuples as arrays; the text lines are formatted only when printed
    payload = {"vertices": verts, "edges": found, "count": len(found)}
    return _json(payload), (f"{verts[i]} -- {verts[j]}" for i, j in found)


def _hrep(region: Region):
    rep = h_representation(region)
    cons = rep.equalities + rep.inequalities
    records = [_constraint(c, tight) for c, tight in zip(cons, tight_sets(region, cons))]
    return _json(records), map(json.dumps, records)


def _facets(region: Region):
    records = [_constraint(f.constraint, f.tight) for f in facets(region)]
    return _json(records), map(json.dumps, records)


def _tree_json(root) -> str:
    """``json.dumps`` text of the nested split/strip record."""

    def head(node) -> str:
        if node.children:
            return f'{{"split": {json.dumps({"x": node.split.x, "j": node.split.j})}, "children": ['
        strip = region_to_strip(node.region)
        return json.dumps({"strip": strip.direction_word, "descents": sorted(strip.descents)})

    return root.render(head, lambda node: "]}" if node.children else "")


def _decompose(region: Region):
    if not is_connected(region):
        raise _error(INVALID_REGION, "region is disconnected; decompose each block")
    # generators over [region]: the tree and the strips are built only for the format printed
    tree = (_tree_json(decomposition_tree(r)) for r in [region])
    return tree, (strip.direction_word for r in [region] for strip in border_strips(r))


def _volume(region: Region):
    normalized = str(volume(region))
    return _json({"volume_normalized": normalized}), [normalized]


def _ehrhart(region: Region):
    poly = eh.ehrhart_polynomial(region)
    line = _json({
        "coeffs": [_frac(c) for c in poly.coeffs],
        "volume_normalized": str(poly.normalized_volume),
        "values": {str(t): str(poly(t)) for t in range(poly.degree + 3)},
    })
    return line, line


# verb -> (whether --max-size caps it, region -> (json lines, text lines))
REGION_VERBS = {
    "bases": (True, _bases),
    "dim": (False, _dim),
    "edges": (True, _edges),
    "hrep": (True, _hrep),
    "facets": (True, _facets),
    "decompose": (True, _decompose),
    "volume": (True, _volume),
    "ehrhart": (True, _ehrhart),
}


def cmd_region(args) -> int:
    capped, render = REGION_VERBS[args.verb]
    region = _region_from_args(args)
    if capped and region.size > args.max_size:
        raise _error(
            SIZE_CAP, f"region has {region.size} elements, over the cap {args.max_size} (raise with --max-size)"
        )
    json_lines, text_lines = render(region)
    for line in json_lines if args.format == "json" else text_lines:
        print(line)
    return 0


def cmd_triangulate(args) -> int:
    if 1 <= args.k < args.n and args.n > args.max_size:
        raise _error(
            SIZE_CAP, f"n={args.n} is over the cap {args.max_size} (raise with --max-size)"
        )
    try:
        cells = hypersimplex_triangulation(args.k, args.n)
    except BadK as exc:
        raise _error(USAGE_ERROR, str(exc))
    records = [
        {"perm": list(c.perm), "vertices": [[f"{x}/1" for x in v] for v in c.vertices], "det": abs(c.det)}
        for c in cells
    ]
    for line in _json(records) if args.format == "json" else map(json.dumps, records):
        print(line)
    return 0


def cmd_catalan(args) -> int:
    n = args.n
    if n < 1:
        raise _error(USAGE_ERROR, "--n must be at least 1")
    if args.r is not None and (args.r < 1 or n < 2):
        raise _error(USAGE_ERROR, "--r needs --r >= 1 and --n >= 2")
    payload = {
        "n": n,
        "catalan_number": str(catalan_number(n)),
        "edge_count": str(catalan_edge_formula(n)),
        "gap_area_total": _frac(catalan_area(n)),
    }
    if n >= 2:
        payload["facet_count_claim"] = catalan_facet_count(n)
    if args.r is not None:
        payload["kcatalan_facet_count_claim"] = kcatalan_facet_count(args.r, n)
    print(json.dumps(payload))
    return 0


def _verify_stats(timings: dict, run: dict) -> None:
    """One JSON line on stderr: the package's import seconds, each check's
    elapsed seconds and the sizes it took from --max-size, then the errata
    report's, then ``run``'s entries (``verify all``: its workers and wall time)."""
    record = {"import_seconds": IMPORT_SECONDS, "checks": []}
    for name, (secs, sizes) in timings.items():
        if name == "errata":
            record.update(errata_seconds=round(secs, 6), errata_sizes=sizes)
        else:
            record["checks"].append({"name": name, "seconds": round(secs, 6), "sizes": sizes})
    record.update(run)
    print(json.dumps(record), file=sys.stderr)


def cmd_verify(args) -> int:
    from . import verify as ver  # only this verb loads the oracles

    target = args.target
    if target not in ("all", *ver.CHECKS, "ehrhart-formula"):
        raise _error(
            USAGE_ERROR,
            f"no verify target {target!r}; choose all, {', '.join(ver.CHECKS)} or ehrhart-formula",
        )
    readers = ["all", *(name for name, row in ver.CHECKS.items() if row.t_max), "ehrhart-formula"]
    if args.t_max is not None and target not in readers:
        raise _error(USAGE_ERROR, f"--t-max applies only to {', '.join(readers)}, not {target}")
    t_max = 3 if args.t_max is None else args.t_max
    timings: dict[str, tuple] = {}
    run = {}
    start = time.perf_counter()
    if target == "ehrhart-formula":
        size = min(args.max_size, ver.oracle.SWEEP_CAP)
        for line in ver.reconcile_sweep(max_size=size, t_max=t_max):
            print(line)
        timings[target] = (time.perf_counter() - start, {"max_size": size})
        code = 0
    else:
        names = ver.CHECKS if target == "all" else (target,)
        workers = ver.worker_count()
        ok, results, errata = ver.run_all(args.max_size, t_max, timings, names)
        if target == "all":
            run = {"workers": workers, "wall_seconds": round(time.perf_counter() - start, 6)}
        for res in results:
            print(res.line())
            for failure in res.failures:
                print(f"    {failure}")
        if errata:
            if results:
                print()
            print("errata report")
            print("-------------")
            for row in errata:
                print(row.line())
        code = 0 if ok else 1
    if args.stats:
        _verify_stats(timings, run)
    return code


def _add_region_flags(sub) -> None:
    sub.add_argument("--lower", help="lower bounding path word (E/N letters)")
    sub.add_argument("--upper", help="upper bounding path word (E/N letters)")
    sub.add_argument("--file", help="JSON file with {\"lower\": .., \"upper\": ..}")
    _add_shared_flags(sub)


def _add_shared_flags(sub) -> None:
    sub.add_argument("--max-size", type=int, default=10, dest="max_size")
    sub.add_argument("--format", choices=("json", "text"), default="json")
    _add_stats_flag(sub)


def _add_stats_flag(sub) -> None:
    sub.add_argument(
        "--stats",
        action="store_true",
        help="write the import, parse and run seconds to stderr as one JSON line",
    )


class _Parser(argparse.ArgumentParser):
    """Usage errors print one ``error:`` line; ``add_subparsers`` makes its parsers of this class."""

    def error(self, message: str):
        raise _error(USAGE_ERROR, message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lpm", description="lattice path matroid polytopes, exactly"
    )
    subs = parser.add_subparsers(dest="verb", required=True)
    for verb in REGION_VERBS:
        sub = subs.add_parser(verb)
        _add_region_flags(sub)
        sub.set_defaults(func=cmd_region)
    tri = subs.add_parser("triangulate")
    _add_shared_flags(tri)
    tri.add_argument("--k", type=int, required=True)
    tri.add_argument("--n", type=int, required=True)
    tri.set_defaults(func=cmd_triangulate)
    cat = subs.add_parser("catalan")
    _add_stats_flag(cat)
    cat.add_argument("--n", type=int, required=True)
    cat.add_argument("--r", type=int)
    cat.set_defaults(func=cmd_catalan)
    ver_sub = subs.add_parser("verify")
    ver_sub.add_argument(
        "target", help="all, one row of lpmpoly.verify.CHECKS by name, or ehrhart-formula"
    )
    ver_sub.add_argument("--max-size", type=int, default=6, dest="max_size")
    ver_sub.add_argument("--t-max", type=int, dest="t_max")
    ver_sub.add_argument(
        "--stats",
        action="store_true",
        help="write the import seconds and each check's elapsed seconds to stderr "
        "as one JSON line (verify all adds its workers and wall seconds)",
    )
    ver_sub.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> None:
    """Run one ``lpm`` command and exit with its code.

    Exact integers are the output contract, so ``str`` may print any number
    of digits while the command runs; the interpreter's limit (3.10.7 and
    later) is restored before ``main`` returns or raises."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        return _run(argv)
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv) -> None:
    start = time.perf_counter()
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_size", 1) < 1:
        parser.error(f"--max-size must be at least 1, got {args.max_size}")
    if (getattr(args, "t_max", None) or 0) < 0:
        parser.error(f"--t-max must be at least 0, got {args.t_max}")
    parsed = time.perf_counter()
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: the interpreter's last flush goes to os.devnull, not the pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(BROKEN_PIPE)
    except (InvalidCharacter, EmptyWord, EndpointMismatch, DominanceViolation) as exc:
        raise _error(INVALID_REGION, f"{type(exc).__name__}: {exc}")
    except DisconnectedRegion as exc:
        raise _error(INVALID_REGION, str(exc))
    if args.stats and args.verb != "verify":  # verify writes its own per-check record
        stage = {
            "verb": args.verb,
            "import_seconds": IMPORT_SECONDS,
            "parse_seconds": round(parsed - start, 6),
            "run_seconds": round(time.perf_counter() - parsed, 6),
        }
        print(json.dumps(stage), file=sys.stderr)
    sys.exit(code)


# Seconds from the first statement of the package to the end of this module
# body, once per process; every ``--stats`` line reports it.
IMPORT_SECONDS = round(time.perf_counter() - _import_start, 6)

if __name__ == "__main__":
    main()
