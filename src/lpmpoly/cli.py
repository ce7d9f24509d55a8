"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage error (also an
absent or unreadable region file), 3 invalid region, malformed region file
or unsupported region for the verb, 4 size cap exceeded, 141 stdout closed
by its reader, as by ``| head`` (the shell's code for SIGPIPE).  Errors
print one ``error:`` line on stderr.  Output is deterministic
byte-for-byte for identical inputs.

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
        data = json.loads(raw)
    except ValueError as exc:
        raise _error(INVALID_REGION, f"{path} is not JSON: {exc}")
    if not (
        isinstance(data, dict)
        and isinstance(data.get("lower"), str)
        and isinstance(data.get("upper"), str)
    ):
        raise _error(INVALID_REGION, f'{path} needs string fields "lower" and "upper"')
    return Region.from_json_dict(data)


def _emit(payload, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def cmd_bases(args) -> int:
    region = _region_from_args(args)
    _check_cap(region, args)
    words = ["".join(map(str, bv.coords)) for bv in bases(region)]
    _emit(words, args.format, words)
    return 0


def cmd_dim(args) -> int:
    region = _region_from_args(args)
    payload = {"dimension": dimension(region)}
    _emit(payload, args.format, [str(payload["dimension"])])
    return 0


def cmd_edges(args) -> int:
    region = _region_from_args(args)
    _check_cap(region, args)
    verts = ["".join(map(str, v)) for v in vertices(region)]
    found = edges(region)
    # json.dumps writes the edge tuples as arrays; the text lines are formatted only when printed
    payload = {"vertices": verts, "edges": found, "count": len(found)}
    _emit(payload, args.format, (f"{verts[i]} -- {verts[j]}" for i, j in found))
    return 0


def cmd_hrep(args) -> int:
    region = _region_from_args(args)
    _check_cap(region, args)
    verts = vertices(region)
    rep = h_representation(region)
    records = []
    for cons in rep.equalities + rep.inequalities:
        tight = tuple(k for k, v in enumerate(verts) if cons.tight(v))
        records.append(cons.to_json_dict(tight))
    _emit(records, args.format, [json.dumps(r) for r in records])
    return 0


def cmd_facets(args) -> int:
    region = _region_from_args(args)
    _check_cap(region, args)
    records = [f.constraint.to_json_dict(f.tight) for f in facets(region)]
    _emit(records, args.format, [json.dumps(r) for r in records])
    return 0


def _tree_json(root) -> str:
    """``json.dumps`` text of the nested split/strip record."""

    def head(node) -> str:
        if node.children:
            return f'{{"split": {json.dumps({"x": node.split.x, "j": node.split.j})}, "children": ['
        strip = region_to_strip(node.region)
        return json.dumps({"strip": strip.direction_word, "descents": sorted(strip.descents)})

    return root.render(head, lambda node: "]}" if node.children else "")


def cmd_decompose(args) -> int:
    region = _region_from_args(args)
    _check_cap(region, args)
    if not is_connected(region):
        raise _error(INVALID_REGION, "region is disconnected; decompose each block")
    if args.format == "json":
        print(_tree_json(decomposition_tree(region)))
    else:
        for strip in border_strips(region):
            print(strip.direction_word)
    return 0


def cmd_volume(args) -> int:
    region = _region_from_args(args)
    _check_cap(region, args)
    payload = {"volume_normalized": str(volume(region))}
    _emit(payload, args.format, [payload["volume_normalized"]])
    return 0


def cmd_ehrhart(args) -> int:
    region = _region_from_args(args)
    _check_cap(region, args)
    poly = eh.ehrhart_polynomial(region)
    values = {str(t): str(poly(t)) for t in range(poly.degree + 3)}
    payload = {
        "coeffs": [_frac(c) for c in poly.coeffs],
        "volume_normalized": str(poly.normalized_volume),
        "values": values,
    }
    _emit(payload, args.format, [json.dumps(payload)])
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
    records = [c.to_json_dict() for c in cells]
    _emit(records, args.format, [json.dumps(r) for r in records])
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
    _emit(payload, args.format, [json.dumps(payload)])
    return 0


def _verify_stats(timings: dict, run: dict) -> None:
    """One JSON line on stderr: the package's import seconds, each check's
    elapsed seconds, then the errata report's, then ``run``'s entries
    (``verify all``: its workers and wall time)."""
    record = {
        "import_seconds": IMPORT_SECONDS,
        "checks": [
            {"name": name, "seconds": round(secs, 6)}
            for name, secs in timings.items()
            if name != "errata"
        ]
    }
    if "errata" in timings:
        record["errata_seconds"] = round(timings["errata"], 6)
    record.update(run)
    print(json.dumps(record), file=sys.stderr)


def cmd_verify(args) -> int:
    from . import verify as ver  # only this verb loads the oracles

    target = args.target
    timings: dict[str, float] = {}
    run = {}
    start = time.perf_counter()
    if target == "ehrhart-formula":
        size = min(args.max_size, ver.CHECKS["errata"].capped["max_size"])
        for line in ver.reconcile_sweep(max_size=size, t_max=args.t_max):
            print(line)
        timings[target] = time.perf_counter() - start
        code = 0
    elif target == "all" or target in ver.CHECKS:
        names = ver.CHECKS if target == "all" else (target,)
        workers = ver.worker_count()
        ok, results, errata = ver.run_all(args.max_size, args.t_max, timings, names)
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
    else:
        raise _error(
            USAGE_ERROR,
            f"no verify target {target!r}; choose all, {', '.join(ver.CHECKS)} or ehrhart-formula",
        )
    if args.stats:
        _verify_stats(timings, run)
    return code


def _check_cap(region: Region, args) -> None:
    if region.size > args.max_size:
        raise _error(
            SIZE_CAP,
            f"region has {region.size} elements, over the cap {args.max_size} "
            "(raise with --max-size)",
        )


def _add_region_flags(sub) -> None:
    sub.add_argument("--lower", help="lower bounding path word (E/N letters)")
    sub.add_argument("--upper", help="upper bounding path word (E/N letters)")
    sub.add_argument("--file", help="JSON file with {\"lower\": .., \"upper\": ..}")
    _add_shared_flags(sub)


def _add_shared_flags(sub) -> None:
    sub.add_argument("--max-size", type=int, default=10, dest="max_size")
    sub.add_argument("--format", choices=("json", "text"), default="json")
    sub.add_argument(
        "--stats",
        action="store_true",
        help="write the import, parse and run seconds to stderr as one JSON line",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpm", description="lattice path matroid polytopes, exactly"
    )
    subs = parser.add_subparsers(dest="verb", required=True)
    for verb, fn in (
        ("bases", cmd_bases),
        ("dim", cmd_dim),
        ("edges", cmd_edges),
        ("hrep", cmd_hrep),
        ("facets", cmd_facets),
        ("decompose", cmd_decompose),
        ("volume", cmd_volume),
        ("ehrhart", cmd_ehrhart),
    ):
        sub = subs.add_parser(verb)
        _add_region_flags(sub)
        sub.set_defaults(func=fn)
    tri = subs.add_parser("triangulate")
    _add_shared_flags(tri)
    tri.add_argument("--k", type=int, required=True)
    tri.add_argument("--n", type=int, required=True)
    tri.set_defaults(func=cmd_triangulate)
    cat = subs.add_parser("catalan")
    _add_shared_flags(cat)
    cat.add_argument("--n", type=int, required=True)
    cat.add_argument("--r", type=int)
    cat.set_defaults(func=cmd_catalan)
    ver_sub = subs.add_parser("verify")
    ver_sub.add_argument(
        "target", help="all, one row of lpmpoly.verify.CHECKS by name, or ehrhart-formula"
    )
    ver_sub.add_argument("--max-size", type=int, default=6, dest="max_size")
    ver_sub.add_argument("--t-max", type=int, default=3, dest="t_max")
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
    if args.max_size < 1:
        parser.error(f"--max-size must be at least 1, got {args.max_size}")
    if getattr(args, "t_max", 0) < 0:
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
