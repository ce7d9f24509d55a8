import contextlib
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from math import comb

import pytest

from lpmpoly import (
    catalan_facet_count,
    cli,
    decomposition_tree,
    is_connected,
    kcatalan_facet_count,
    oracle,
    region_from_words,
    verify,
    vertices,
)
from lpmpoly.decompose import region_to_strip
from lpmpoly.errors import TooLarge
from lpmpoly.oracle import all_regions

CLI = [sys.executable, "-m", "lpmpoly.cli"]


def run_cli(*args):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, timeout=600
    )


def test_volume_verb():
    out = run_cli("volume", "--lower", "EENN", "--upper", "NNEE")
    assert out.returncode == 0
    assert json.loads(out.stdout) == {"volume_normalized": "4"}


def test_bases_verb_round_trip_and_determinism():
    first = run_cli("bases", "--lower", "EENN", "--upper", "NENE")
    second = run_cli("bases", "--lower", "EENN", "--upper", "NENE")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout) == ["0011", "0101", "0110", "1001", "1010"]


def test_facets_verb_schema():
    out = run_cli("facets", "--lower", "EENN", "--upper", "NENE")
    records = json.loads(out.stdout)
    assert len(records) == 5
    for rec in records:
        assert set(rec) == {"coeffs", "rel", "rhs", "tight_vertices"}
        assert rec["rel"] in ("<=", ">=")
    assert {"coeffs": [1, 1, 0, 0], "rel": "<=", "rhs": 1, "tight_vertices": [1, 2, 3, 4]} in records


def test_hrep_verb_schema():
    out = run_cli("hrep", "--lower", "EN", "--upper", "NE")
    records = json.loads(out.stdout)
    assert {"coeffs": [1, 1], "rel": "=", "rhs": 1, "tight_vertices": [0, 1]} in records


def test_dim_edges_ehrhart_verbs():
    assert json.loads(run_cli("dim", "--lower", "EENN", "--upper", "NENE").stdout) == {
        "dimension": 3
    }
    edges = json.loads(run_cli("edges", "--lower", "EENN", "--upper", "NNEE").stdout)
    assert edges["count"] == 12
    ehr = json.loads(run_cli("ehrhart", "--lower", "EENN", "--upper", "NNEE").stdout)
    assert ehr["volume_normalized"] == "4"
    assert ehr["values"]["1"] == "6"
    assert len(ehr["coeffs"]) == 4
    assert all("/" in c for c in ehr["coeffs"])


def test_decompose_verb():
    out = run_cli("decompose", "--lower", "EENN", "--upper", "NNEE")
    tree = json.loads(out.stdout)
    assert tree["split"] == {"x": 2, "j": 1}
    assert [c["strip"] for c in tree["children"]] == ["RU", "UR"]
    assert [c["descents"] for c in tree["children"]] == [[2], [1]]


def _nested_tree_record(node):
    if not node.children:
        strip = region_to_strip(node.region)
        return {"strip": strip.direction_word, "descents": sorted(strip.descents)}
    return {
        "split": {"x": node.split.x, "j": node.split.j},
        "children": [_nested_tree_record(c) for c in node.children],
    }


def test_decompose_json_text_is_json_dumps_of_the_nested_record():
    for region in all_regions(7, connected_only=True):
        tree = decomposition_tree(region)
        assert cli._tree_json(tree) == json.dumps(_nested_tree_record(tree)), region


def test_decompose_json_on_a_band_deeper_than_the_recursion_limit():
    # The two-row band splits one strip off per column: a tree 1099 levels deep.
    width = 1100
    out = run_cli(
        "decompose",
        "--format", "json",
        "--max-size", "2000",
        "--lower", "E" * width + "NN",
        "--upper", "NN" + "E" * width,
    )
    assert out.returncode == 0, out.stderr[-500:]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10 * width)  # json.loads recurses once per nesting level
    try:
        tree = json.loads(out.stdout)
    finally:
        sys.setrecursionlimit(limit)
    leaves, stack = 0, [tree]
    while stack:
        node = stack.pop()
        if "strip" in node:
            leaves += 1
        else:
            stack.extend(node["children"])
    assert leaves == width


def test_triangulate_verb():
    out = run_cli("triangulate", "--k", "2", "--n", "4")
    cells = json.loads(out.stdout)
    assert len(cells) == 4
    assert all(cell["det"] == 1 for cell in cells)
    assert all("/" in coord for cell in cells for v in cell["vertices"] for coord in v)


def test_catalan_verb():
    out = json.loads(run_cli("catalan", "--n", "3").stdout)
    assert out["edge_count"] == "8"
    assert out["facet_count_claim"] == 10
    assert out["gap_area_total"] == "29/2"


def main_output(capsys, *argv):
    """Exit code, stdout and stderr of ``lpm argv`` run in this process."""
    with pytest.raises(SystemExit) as exit_:
        cli.main(list(argv))
    out = capsys.readouterr()
    return exit_.value.code, out.out, out.err


def test_catalan_verb_claims_facets_only_where_a_count_is_claimed(capsys):
    code, out, _ = main_output(capsys, "catalan", "--n", "1")
    assert code == 0
    assert list(json.loads(out)) == ["n", "catalan_number", "edge_count", "gap_area_total"]
    code, out, _ = main_output(capsys, "catalan", "--n", "4", "--r", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["facet_count_claim"] == catalan_facet_count(4)
    assert payload["kcatalan_facet_count_claim"] == kcatalan_facet_count(2, 4)


def test_triangulate_text_lines_are_the_json_records(capsys):
    code, text, _ = main_output(capsys, "triangulate", "--k", "2", "--n", "4", "--format", "text")
    assert code == 0
    code, listed, _ = main_output(capsys, "triangulate", "--k", "2", "--n", "4")
    assert code == 0
    records = json.loads(listed)
    assert len(records) == 4
    assert text.splitlines() == [json.dumps(record) for record in records]


@pytest.mark.parametrize("verb", ["dim", "catalan"])
def test_verb_stats_line_in_process(capsys, verb):
    code, plain, err = main_output(capsys, verb, *VERB_ARGV[verb])
    assert (code, err) == (0, "")
    code, timed, err = main_output(capsys, verb, *VERB_ARGV[verb], "--stats")
    assert code == 0 and timed == plain
    stats = json.loads(err)
    assert list(stats) == ["verb", "import_seconds", "parse_seconds", "run_seconds"]
    assert stats["verb"] == verb
    assert stats["import_seconds"] == cli.IMPORT_SECONDS


def test_catalan_verb_prints_integers_past_the_digit_limit():
    # C_8000 has 4811 digits; str() of an int past 4300 digits raises by default
    out = run_cli("catalan", "--n", "8000")
    assert (out.returncode, out.stderr) == (0, "")
    digits = json.loads(out.stdout)["catalan_number"]
    assert len(digits) > 4300
    # int() has the same limit, so read the digits in two pieces
    assert int(digits[:-4000]) * 10**4000 + int(digits[-4000:]) == comb(16000, 8000) // 8001


def test_main_restores_the_digit_limit(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    with pytest.raises(SystemExit) as exit_:
        cli.main(["catalan", "--n", "8000"])
    assert exit_.value.code == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def test_region_file_input(tmp_path):
    path = tmp_path / "region.json"
    path.write_text(json.dumps({"lower": "EENN", "upper": "NNEE"}))
    out = run_cli("volume", "--file", str(path))
    assert json.loads(out.stdout) == {"volume_normalized": "4"}


def test_exit_codes():
    bad = run_cli("bases", "--lower", "NENE", "--upper", "EENN")
    assert bad.returncode == 3
    assert "DominanceViolation" in bad.stderr
    usage = run_cli("bases", "--lower", "EENN")
    assert usage.returncode == 2
    unknown = run_cli("frobnicate")
    assert unknown.returncode == 2
    cap = run_cli("bases", "--lower", "E" * 6 + "N" * 6, "--upper", "N" * 6 + "E" * 6)
    assert cap.returncode == 4
    raised = run_cli(
        "bases",
        "--lower", "E" * 6 + "N" * 6,
        "--upper", "N" * 6 + "E" * 6,
        "--max-size", "12",
    )
    assert raised.returncode == 0
    disconnected = run_cli("decompose", "--lower", "ENEN", "--upper", "ENEN")
    assert disconnected.returncode == 3


# sha256 of the concatenated stdout of `lpm triangulate --k k --n n` for
# 1 <= k < n <= 8, n ascending then k; recorded from the permutation-scan
# implementation, so any change to cell order or format fails here.
TRIANGULATE_SHA256 = "21f9b2d090ff4062091aeccdc3c3bdb6a7fd00b7c6ad5d59116d82f23ef2e0aa"


def test_triangulate_output_is_byte_identical(capsys):
    digest = hashlib.sha256()
    for n in range(2, 9):
        for k in range(1, n):
            with pytest.raises(SystemExit) as exit_:
                cli.main(["triangulate", "--k", str(k), "--n", str(n)])
            assert exit_.value.code == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == TRIANGULATE_SHA256


# sha256 of the stdout of ``lpm facets``, ``lpm hrep`` and ``lpm volume``, in
# that order, on each of the 66 connected regions of at most 6 elements in
# ``all_regions`` order; recorded before facet certification, the volume DP
# and the H-representation shared their routines.
REGION_VERBS_SHA256 = "aee5ad692e0ca748bcdb53036f6738bca65489a537280e855a33fb047d7ed43e"


def test_region_verbs_output_is_byte_identical(capsys):
    digest = hashlib.sha256()
    for region in all_regions(6, connected_only=True):
        for verb in ("facets", "hrep", "volume"):
            with pytest.raises(SystemExit) as exit_:
                cli.main([verb, "--lower", region.lower.word, "--upper", region.upper.word])
            assert exit_.value.code == 0
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == REGION_VERBS_SHA256


# sha256 of the stdout of ``lpm edges``, ``lpm bases`` and ``lpm decompose
# --format json``, in that order, on each region below in turn; recorded
# while edges were looked up in a bitmask dictionary, basis coordinates
# were built letter by letter and splits were read off the interval
# presentation.  A single element, a loop plus a coloop, a disconnected
# region, the 3x3 rectangle, ``reduced_catalan_region(5)``,
# ``kcatalan_region(2, 4)``, two regions whose paths touch mid-way and
# three small connected ones.  ``decompose`` exits 3 on the disconnected
# ones, with nothing on stdout.
ENUMERATION_REGIONS = (
    ("N", "N"),
    ("EN", "EN"),
    ("ENEEN", "NENEE"),
    ("EEENNN", "NNNEEE"),
    ("EEEEENNNNN", "NENENENENE"),
    ("EEEEEENNN", "NEENEENEE"),
    ("EENNEENN", "NNEENNEE"),
    ("EEENNENN", "NENEENNE"),
    ("EENN", "NENE"),
    ("EENN", "NNEE"),
    ("EEEENN", "NEENEE"),
)
ENUMERATION_VERBS_SHA256 = "a2a978a1f452242f079b1c2d2c57dbb59b4bf22a8fed85c15ff381c76b1fa99f"


def test_enumeration_verbs_output_is_byte_identical(capsys):
    digest = hashlib.sha256()
    for lower, upper in ENUMERATION_REGIONS:
        decompose_code = 0 if is_connected(region_from_words(lower, upper)) else 3
        for verb, code in (("edges", 0), ("bases", 0), ("decompose", decompose_code)):
            with pytest.raises(SystemExit) as exit_:
                cli.main([verb, "--lower", lower, "--upper", upper, "--format", "json"])
            assert exit_.value.code == code, (verb, lower, upper)
            digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == ENUMERATION_VERBS_SHA256


# sha256 of the stdout of ``lpm bases``, ``lpm edges`` and ``lpm facets``
# with ``--format json``, in that order, on ``reduced_catalan_region(6)``,
# ``kcatalan_region(2, 5)`` and an 18-element region drawn between two
# random paths with ``random.Random(20121220)``: regions whose paths are
# listed as prefix x suffix products.  Recorded while every path was
# walked whole and each vertex printed through ``"".join(map(str, v))``.
SPLIT_VERBS_SHA256 = {
    ("EEEEEENNNNNN", "NENENENENENE"): "fd12210e35dbc62de932db9ab24b4d789554f76ef71f6f4849a7087d1e7a2633",
    ("EEEEEEEENNNN", "NEENEENEENEE"): "08eb0de8894a223dbcf62d77fbb75ebdeef1e8bd7d4cc86285fb1192301563e2",
    ("EEENEENEEEEENNEENN", "NEENEENEEEEENNEENE"): "668eea303d49df67688cd4d3f6309c3aa52f1b2bf4273a9825e0f723b7f3ebd0",
}


@pytest.mark.parametrize("words", sorted(SPLIT_VERBS_SHA256), ids="/".join)
def test_split_listing_verbs_output_is_byte_identical(capsys, words):
    lower, upper = words
    digest = hashlib.sha256()
    for verb in ("bases", "edges", "facets"):
        with pytest.raises(SystemExit) as exit_:
            cli.main([verb, "--lower", lower, "--upper", upper, "--format", "json", "--max-size", "18"])
        assert exit_.value.code == 0, verb
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == SPLIT_VERBS_SHA256[words]


# sha256 of the stdout of ``lpm hrep --format json`` then ``--format
# text`` on the regions of ``SPLIT_VERBS_SHA256``; recorded while every
# vertex was scanned against every constraint.
HREP_SHA256 = {
    ("EEEEEENNNNNN", "NENENENENENE"): "7d0fb5ab3f3182612ae51c7a54844b27727b6e8db0cea8ef9e4204e95b951266",
    ("EEEEEEEENNNN", "NEENEENEENEE"): "9eedbe3b3637cd836e91fbc294f074928ead0d38603655033ba83b357ffb0245",
    ("EEENEENEEEEENNEENN", "NEENEENEEEEENNEENE"): "eb9b3d4e2eada018bf917dc420f0853d382abaf94b62367710b953238c0b9b8a",
}


@pytest.mark.parametrize("words", sorted(HREP_SHA256), ids="/".join)
def test_split_hrep_output_is_byte_identical(capsys, words):
    lower, upper = words
    digest = hashlib.sha256()
    for fmt in ("json", "text"):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["hrep", "--lower", lower, "--upper", upper, "--format", fmt, "--max-size", "18"])
        assert exit_.value.code == 0, fmt
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == HREP_SHA256[words]


# ``lpm ehrhart`` stdout, recorded while the polynomial was interpolated
# through the plain counts at t = 0..d: a loop, a coloop, a loop plus a
# coloop, two direct sums, the octahedron, the 3x3 rectangle, the Catalan
# staircase with its loop and coloop, ``reduced_catalan_region(5)`` and
# ``kcatalan_region(2, 3)``.
EHRHART_STDOUT = {
    ("E", "E"): (
        '{"coeffs": ["1/1"], "volume_normalized": "1", "values": {"0": "1", "1": "1", "2": '
        '"1"}}\n'
    ),
    ("N", "N"): (
        '{"coeffs": ["1/1"], "volume_normalized": "1", "values": {"0": "1", "1": "1", "2": '
        '"1"}}\n'
    ),
    ("EN", "EN"): (
        '{"coeffs": ["1/1"], "volume_normalized": "1", "values": {"0": "1", "1": "1", "2": '
        '"1"}}\n'
    ),
    ("ENEEN", "NENEE"): (
        '{"coeffs": ["1/1", "5/2", "2/1", "1/2"], "volume_normalized": "3", "values": {"0": '
        '"1", "1": "6", "2": "18", "3": "40", "4": "75", "5": "126"}}\n'
    ),
    ("ENNEN", "NENNE"): (
        '{"coeffs": ["1/1", "2/1", "1/1"], "volume_normalized": "2", "values": {"0": "1", '
        '"1": "4", "2": "9", "3": "16", "4": "25"}}\n'
    ),
    ("EENN", "NNEE"): (
        '{"coeffs": ["1/1", "7/3", "2/1", "2/3"], "volume_normalized": "4", "values": {"0": '
        '"1", "1": "6", "2": "19", "3": "44", "4": "85", "5": "146"}}\n'
    ),
    ("EEENNN", "NNNEEE"): (
        '{"coeffs": ["1/1", "37/10", "25/4", "23/4", "11/4", "11/20"], "volume_normalized": '
        '"66", "values": {"0": "1", "1": "20", "2": "141", "3": "580", "4": "1751", "5": '
        '"4332", "6": "9331", "7": "18152"}}\n'
    ),
    ("EEENNN", "ENENEN"): (
        '{"coeffs": ["1/1", "13/6", "3/2", "1/3"], "volume_normalized": "2", "values": '
        '{"0": "1", "1": "5", "2": "14", "3": "30", "4": "55", "5": "91"}}\n'
    ),
    ("EEEEENNNNN", "NENENENENE"): (
        '{"coeffs": ["1/1", "751/126", "16999/1008", "165259/5670", "32063/960", '
        '"225271/8640", "441/32", "143167/30240", "19267/20160", "15619/181440"], '
        '"volume_normalized": "31238", "values": {"0": "1", "1": "132", "2": "3459", "3": '
        '"38364", "4": "256624", "5": "1233106", "6": "4694004", "7": "15032792", "8": '
        '"42136553", "9": "106240068", "10": "245751011", "11": "529246796"}}\n'
    ),
    ("EEEENN", "NEENEE"): (
        '{"coeffs": ["1/1", "191/60", "33/8", "65/24", "7/8", "13/120"], '
        '"volume_normalized": "13", "values": {"0": "1", "1": "12", "2": "63", "3": "218", '
        '"4": "588", "5": "1344", "6": "2730", "7": "5076"}}\n'
    ),
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("words", sorted(EHRHART_STDOUT), ids="/".join)
def test_ehrhart_output_is_byte_identical(capsys, words, fmt):
    lower, upper = words
    with pytest.raises(SystemExit) as exit_:
        cli.main(["ehrhart", "--lower", lower, "--upper", upper, "--format", fmt])
    assert exit_.value.code == 0
    assert capsys.readouterr().out == EHRHART_STDOUT[words]


# sha256 of the stdout of ``lpm verify all --max-size s``; recorded while the
# errata report still walked the region sweep once per row.
VERIFY_ALL_SHA256 = {
    1: "2b0593eb482459f2729088ecfbcb002db3880fba8b8dd845b2d1a02971f294c3",
    4: "ccb393bfeed9d2e14cd609d052aff6574f83bf2495346dc88deeb13f68a5e832",
    6: "3d7db3cb74137abfa2075e6cb7bba8f6dbe98f7e0483c0f0a69a413e6fa1f549",
}


@pytest.mark.parametrize("max_size", sorted(VERIFY_ALL_SHA256))
def test_verify_all_output_is_byte_identical(capsys, max_size):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["verify", "all", "--max-size", str(max_size)])
    assert exit_.value.code == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == VERIFY_ALL_SHA256[max_size]


@pytest.fixture(scope="module")
def verify_all_4():
    return run_cli("verify", "all", "--max-size", "4")


@pytest.mark.parametrize("name", list(verify.CHECKS))
def test_verify_row_prints_its_block_of_verify_all(capsys, verify_all_4, name):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["verify", name, "--max-size", "4"])
    out = capsys.readouterr().out
    _, results, _ = verify.run_all(4, 3, names=[name])
    head = results[0].line() if results else "errata report"
    assert exit_.value.code == verify_all_4.returncode
    assert out.startswith(head + "\n") and out.endswith("\n")
    assert "\n" + out in "\n" + verify_all_4.stdout


def _stub_checks(monkeypatch):
    """Replace every ``CHECKS`` row's function with a stub that hands its
    kwargs back in its result, since a stub run on a forked worker cannot
    write to this process."""
    for job, row in verify.CHECKS.items():
        def stub(name=row.call.__name__, **kwargs):
            if name == "build_errata_report":
                return [verify.ErrataRow(name, kwargs, "", "confirmed")]
            return verify.CheckResult(name, failures=[kwargs])

        monkeypatch.setitem(verify.CHECKS, job, row._replace(call=stub))


def test_verify_all_takes_its_sizes_from_the_tables(monkeypatch):
    # with every cap at 3 and every fixed size at 2, run_all passes nothing else
    _stub_checks(monkeypatch)
    for job, row in verify.CHECKS.items():
        monkeypatch.setitem(
            verify.CHECKS,
            job,
            row._replace(capped=dict.fromkeys(row.capped, lambda: 3), fixed=dict.fromkeys(row.fixed, 2)),
        )
    ok, results, errata = verify.run_all(max_size=5, t_max=3)
    assert ok
    seen = {res.name: res.failures[0] for res in results}
    seen.update((row.claim, row.stated) for row in errata)
    capped = {"max_size": 3}
    assert seen == {
        "check_bases": capped,
        "check_deletion": capped,
        "check_dimension": {"max_size": 3, "catalan_ns": 2},
        "check_edges": {"oracle_max": 3, "area_max": 3, "formula_max": 2},
        "check_facets": {"max_size": 3, "catalan_ns": 2},
        "check_faces": capped,
        "check_decomposition": capped,
        "check_volume": {"max_size": 3, "rectangle_max": 2, "strip_max": 2},
        "check_catalan_area": {"n_max": 2},
        "check_triangulation": {"n_max": 2, "strip_max": 2, "roundtrip_n": 2, "samples": 2},
        "check_ehrhart": capped,
        "build_errata_report": {"max_size": 3, "t_max": 3, "formula_max": 2},
    }


def test_verify_all_clamps_each_size_at_its_oracles_cap(monkeypatch):
    # far above every cap: each --max-size kwarg stops at the cap of the
    # oracle it feeds, 7 for the adjacency oracle since C(8, 4) = 70 > 40
    _stub_checks(monkeypatch)
    ok, results, errata = verify.run_all(max_size=50, t_max=3)
    seen = {res.name: res.failures[0] for res in results}
    seen.update((row.claim, row.stated) for row in errata)
    sweep = {"max_size": oracle.SWEEP_CAP}
    assert seen == {
        "check_bases": sweep,
        "check_deletion": sweep,
        "check_dimension": {**sweep, "catalan_ns": range(2, 7)},
        "check_edges": {"oracle_max": 7, "area_max": oracle.SWEEP_CAP, "formula_max": 6},
        "check_facets": {"max_size": 9, "catalan_ns": range(3, 7)},
        "check_faces": sweep,
        "check_decomposition": sweep,
        "check_volume": {**sweep, "rectangle_max": 7, "strip_max": 7},
        "check_catalan_area": {"n_max": 12},
        "check_triangulation": {"n_max": 7, "strip_max": 7, "roundtrip_n": 5, "samples": 50},
        "check_ehrhart": sweep,
        "build_errata_report": {**sweep, "t_max": 3, "formula_max": 6},
    }


def test_an_oracle_cap_moves_its_rows_clamp_and_its_guard(monkeypatch):
    _stub_checks(monkeypatch)
    monkeypatch.setattr(oracle, "SWEEP_CAP", 8)
    monkeypatch.setattr(oracle, "FACETS_CAP", 5)
    monkeypatch.setattr(oracle, "ADJACENT_CAP", 20)  # C(6, 3) = 20 < 35 = C(7, 3)
    seen = {res.name: res.failures[0] for res in verify.run_all(50, 3)[1]}
    assert seen["check_bases"] == {"max_size": 8}
    assert seen["check_facets"] == {"max_size": 5, "catalan_ns": range(3, 7)}
    assert seen["check_edges"] == {"oracle_max": 6, "area_max": 8, "formula_max": 6}
    with pytest.raises(TooLarge, match="capped at 8 "):
        next(oracle.all_regions(9))
    with pytest.raises(TooLarge, match="capped at 5 "):
        oracle.brute_facets(region_from_words("EEENNN", "NNNEEE"))
    square = vertices(region_from_words("EEENNN", "NNNEEE"))
    assert oracle.brute_adjacent(square, 0, 1)  # 20 vertices, at the cap
    with pytest.raises(TooLarge, match="capped at 20 "):
        oracle.brute_adjacent(square + [(0,) * 6], 0, 1)


@pytest.mark.parametrize("target", ["all", *verify.CHECKS, "ehrhart-formula"])
def test_verify_takes_t_max_only_where_it_is_read(capsys, target):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["verify", target, "--max-size", "1", "--t-max", "1"])
    reads = target in ("all", "errata", "ehrhart-formula")
    assert exit_.value.code == (0 if reads else 2)
    refusal = f"error: --t-max applies only to all, errata, ehrhart-formula, not {target}\n"
    assert capsys.readouterr().err == ("" if reads else refusal)


def test_verify_all_submits_its_jobs_in_one_order(monkeypatch):
    # an in-process stand-in for the pool records the order jobs are submitted
    # in: the facet sweep first, then the rest heaviest first, at every size
    import concurrent.futures

    submitted = []

    class RecordingPool:
        def __init__(self, workers, mp_context):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, call, name, *sizes):
            submitted.append(name)
            future = concurrent.futures.Future()
            future.set_result(call(name, *sizes))
            return future

    _stub_checks(monkeypatch)
    monkeypatch.setattr(verify, "worker_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    for max_size in (5, 8):
        submitted.clear()
        assert verify.run_all(max_size, 3)[0]
        assert submitted == [
            "facets", "ehrhart", "deletion", "triangulation", "errata", "edges",
            "faces", "volume", "dimension", "decomposition", "bases", "catalan-area",
        ]


def test_verify_all_gives_the_same_results_on_workers_and_in_process(monkeypatch):
    pooled = verify.run_all(4, 3)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert verify.worker_count() == 1
    assert verify.run_all(4, 3) == pooled


@contextlib.contextmanager
def _second_thread(monkeypatch):
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        yield
    finally:
        release.set()
        thread.join()


@contextlib.contextmanager
def _no_fork(monkeypatch):
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    yield


@pytest.mark.parametrize("cannot_fork", [_second_thread, _no_fork], ids=["thread", "no-fork"])
def test_verify_all_runs_in_process_where_it_cannot_fork(monkeypatch, capsys, cannot_fork):
    with cannot_fork(monkeypatch):
        assert verify.worker_count() == 1
        with pytest.raises(SystemExit) as exit_:
            cli.main(["verify", "all", "--max-size", "4"])
    assert exit_.value.code == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == VERIFY_ALL_SHA256[4]


def test_verify_all_leaves_no_worker_running():
    assert verify.run_all(2, 3)[0]
    assert multiprocessing.active_children() == []


def test_verify_all_workers_see_patched_modules(monkeypatch, capsys):
    # the fault of test_check_ehrhart_flags_a_failed_overdetermination,
    # injected before the workers fork
    from lpmpoly import ehrhart

    count = ehrhart.count_lattice_points

    def perturbed(region, t, interior=False):
        return count(region, t, interior) + (t >= 4 and not interior)

    monkeypatch.setattr(ehrhart, "count_lattice_points", perturbed)
    with pytest.raises(SystemExit) as exit_:
        cli.main(["verify", "all", "--max-size", "4"])
    assert exit_.value.code == 1
    out = capsys.readouterr().out
    assert "ehrhart-interpolation: FAIL (" in out
    assert "overdetermination fails" in out


def test_verify_all_reports_a_cell_that_is_not_unimodular(monkeypatch, capsys):
    # every generated cell's determinant doubled: a FAIL line and exit 1,
    # not an exception out of the triangulation check
    from lpmpoly import triangulate

    cells = triangulate._cells  # the one cell builder behind the slice and strip routes
    monkeypatch.setattr(
        triangulate, "_cells", lambda d, descents: [c._replace(det=2 * c.det) for c in cells(d, descents)]
    )
    with pytest.raises(SystemExit) as exit_:
        cli.main(["verify", "all", "--max-size", "1"])
    assert exit_.value.code == 1
    out = capsys.readouterr().out
    assert "triangulation: FAIL (" in out
    assert "cell (1,) has determinant 2, not a unit" in out


def test_a_closed_stdout_exits_without_a_traceback():
    # 12 870 bases, about 220 KB of text: more than a pipe holds, so the
    # writer is still writing when the reader closes after one line
    proc = subprocess.Popen(
        CLI + ["bases", "--lower", "E" * 8 + "N" * 8, "--upper", "N" * 8 + "E" * 8,
               "--max-size", "16", "--format", "text"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert proc.stdout.readline() == "0000000011111111\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=600), err) == (cli.BROKEN_PIPE, "")


REGION_FILES = {
    "bad.json": '{"lower": "EENN"',
    "list.json": '["EENN", "NNEE"]',
    "missing.json": '{"lower": "EENN"}',
    "number.json": '{"lower": 5, "upper": "NNEE"}',
    "good.json": '{"lower": "EENN", "upper": "NNEE"}',
    "nested.json": "[" * 1000 + "]" * 1000,
}


BAD_INPUTS = [
    (["triangulate", "--k", "5", "--n", "3"], 2),
    (["catalan", "--n", "0"], 2),
    (["catalan", "--n", "1", "--r", "2"], 2),
    (["volume", "--file", "{dir}/absent.json"], 2),
    (["volume", "--file", "{dir}"], 2),
    (["volume", "--file", "{dir}/bad.json"], 3),
    (["volume", "--file", "{dir}/list.json"], 3),
    (["volume", "--file", "{dir}/missing.json"], 3),
    (["volume", "--file", "{dir}/number.json"], 3),
    (["volume", "--file", "{dir}/nested.json"], 3),
    (["volume", "--file", "{dir}/good.json", "--lower", "EENN"], 2),
    (["bases", "--lower", "EN", "--upper", "NE", "--max-size", "0"], 2),
    (["verify", "all", "--max-size", "0"], 2),
    (["verify", "ehrhart-formula", "--t-max", "-1"], 2),
    (["verify", "bases", "--t-max", "5"], 2),
    (["triangulate", "--k", "1", "--n", "11"], 4),
    (["triangulate", "--k", "2", "--n", "5", "--max-size", "4"], 4),
    (["triangulate", "--k", "1", "--n", "99999999999999999999", "--max-size", "99999999999999999999"], 4),
    (["catalan", "--n", "99999999999999999999"], 4),
    (["catalan", "--n", "99999999999999999999", "--r", "2"], 4),
    (["verify", "ehrhart-formula", "--max-size", "1", "--t-max", "99999999999999999999"], 4),
    # argparse's own usage errors
    (["frobnicate"], 2),
    (["catalan", "--n", "3", "--upper", "NENE"], 2),
    (["catalan", "--n", "3", "--format", "text"], 2),
    (["catalan", "--n", "3", "--max-size", "1"], 2),
    (["triangulate", "--k", "2", "--n", "4", "--lower", "EENN"], 2),
    (["bases", "--lower", "EN", "--upper", "NE", "--format", "xml"], 2),
    (["volume", "--lower", "EN", "--upper", "NE", "--max-size", "x"], 2),
    (["triangulate", "--k", "2"], 2),
]


def _write_region_files(directory):
    for name, text in REGION_FILES.items():
        (directory / name).write_text(text)


@pytest.mark.parametrize("argv,code", BAD_INPUTS)
def test_bad_input_exit_codes(tmp_path, argv, code):
    _write_region_files(tmp_path)
    out = run_cli(*(arg.format(dir=tmp_path) for arg in argv))
    assert out.returncode == code, out.stderr
    (line,) = out.stderr.splitlines()  # no usage block, no traceback
    assert line.startswith("error:")


def test_region_file_numbers_are_not_converted(tmp_path, capsys):
    # int() of a long digit string takes time quadratic in its length
    path = tmp_path / "region.json"
    path.write_text('{"lower": "EN", "upper": "NE", "extra": ' + "7" * 1_000_000 + "}")
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exit_:
        cli.main(["volume", "--file", str(path)])
    assert time.perf_counter() - start < 2
    assert (exit_.value.code, capsys.readouterr().out) == (0, '{"volume_normalized": "1"}\n')
    path.write_text('{"lower": 5, "upper": "NE"}')
    with pytest.raises(SystemExit) as exit_:
        cli.main(["volume", "--file", str(path)])
    assert (exit_.value.code, capsys.readouterr().err) == (
        3, f'error: {path} needs string fields "lower" and "upper"\n'
    )


def test_parser_is_built_once_and_not_at_import():
    assert cli.build_parser() is cli.build_parser()
    probe = "import lpmpoly.cli as c; print(c.build_parser.cache_info().currsize)"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=600
    )
    assert (out.returncode, out.stdout) == (0, "0\n"), out.stderr


def test_reused_parser_matches_a_fresh_process(tmp_path, capsys, monkeypatch):
    # usage lines wrap at the terminal width, so both sides read the same one
    monkeypatch.setenv("COLUMNS", "80")
    _write_region_files(tmp_path)
    good = ["volume", "--lower", "EENN", "--upper", "NNEE"]
    runs = [good] + [[arg.format(dir=tmp_path) for arg in argv] for argv, _ in BAD_INPUTS] + [good]
    for argv in runs:
        fresh = run_cli(*argv)
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv)
        captured = capsys.readouterr()
        assert (exit_.value.code, captured.out, captured.err) == (
            fresh.returncode, fresh.stdout, fresh.stderr
        ), argv


def test_kn_verbs_reject_region_flags():
    out = run_cli("triangulate", "--k", "2", "--n", "4", "--lower", "EENN")
    assert out.returncode == 2
    out = run_cli("catalan", "--n", "3", "--upper", "NENE")
    assert out.returncode == 2


def test_verify_ehrhart_formula_csv():
    out = run_cli("verify", "ehrhart-formula", "--max-size", "3", "--t-max", "2")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "lower,upper,t,formula_value,true_value,match"
    assert "EN,NE,1,3,2,false" in lines


def test_verify_ehrhart_formula_at_high_dilations():
    # the literal double sum at t = 8 on rank-6 regions has about 84 M slack arrays
    high = run_cli("verify", "ehrhart-formula", "--max-size", "6", "--t-max", "8")
    low = run_cli("verify", "ehrhart-formula", "--max-size", "6", "--t-max", "3")
    assert high.returncode == 0 and low.returncode == 0
    header, *rows = high.stdout.splitlines(keepends=True)
    kept = [row for row in rows if int(row.split(",")[2]) <= 3]
    assert header + "".join(kept) == low.stdout
    assert len(rows) == 9 * (len(low.stdout.splitlines()) - 1) // 4


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "all", "--max-size", "2"],
        ["verify", "facets", "--max-size", "4"],
        ["verify", "volume", "--max-size", "3"],
        ["verify", "ehrhart-formula", "--max-size", "2", "--t-max", "1"],
    ],
    ids=lambda argv: argv[1],
)
def test_verify_stats_go_to_stderr_only(capsys, argv):
    plain = run_cli(*argv)
    timed = run_cli(*argv, "--stats")
    assert timed.returncode == plain.returncode == 0
    assert timed.stdout == plain.stdout
    assert plain.stderr == ""
    (line,) = timed.stderr.splitlines()
    stats = json.loads(line)
    assert stats["import_seconds"] >= 0
    in_process = []
    for _ in range(2):  # the import is timed once per process
        with pytest.raises(SystemExit):
            cli.main([*argv, "--stats"])
        in_process.append(json.loads(capsys.readouterr().err)["import_seconds"])
    assert in_process[0] == in_process[1] >= 0
    names = [check["name"] for check in stats["checks"]]
    sizes = [check["sizes"] for check in stats["checks"]]
    assert all(check["seconds"] >= 0 for check in stats["checks"])
    if argv[1] == "all":
        # every check at --max-size 2, below every cap; the fixed sizes are not listed
        assert names == [l.split(":")[0] for l in plain.stdout.splitlines() if " checks)" in l]
        assert sizes == [dict.fromkeys(row.capped, 2) for name, row in verify.CHECKS.items() if name != "errata"]
        assert stats["errata_seconds"] >= 0
        assert stats["errata_sizes"] == {"max_size": 2}
        assert 1 <= stats["workers"] <= os.cpu_count()
        assert stats["wall_seconds"] >= max(check["seconds"] for check in stats["checks"])
        return
    assert "workers" not in stats and "wall_seconds" not in stats
    assert sizes == [{"max_size": int(argv[3])}]
    if argv[1] == "ehrhart-formula":
        assert names == ["ehrhart-formula"]
    else:
        assert names == [plain.stdout.split(":")[0]]


VERB_ARGV = {
    "bases": ["--lower", "EENN", "--upper", "NENE"],
    "dim": ["--lower", "EENN", "--upper", "NENE"],
    "edges": ["--lower", "EENN", "--upper", "NNEE"],
    "hrep": ["--lower", "EN", "--upper", "NE"],
    "facets": ["--lower", "EENN", "--upper", "NENE"],
    "decompose": ["--lower", "EENN", "--upper", "NNEE"],
    "volume": ["--lower", "EENN", "--upper", "NNEE"],
    "ehrhart": ["--lower", "EENN", "--upper", "NNEE"],
    "triangulate": ["--k", "2", "--n", "4"],
    "catalan": ["--n", "3"],
}


def test_every_verb_has_a_stats_argv():
    assert list(VERB_ARGV) == [*cli.REGION_VERBS, "triangulate", "catalan"]


@pytest.mark.parametrize("verb", VERB_ARGV)
def test_verb_stats_go_to_stderr_only(verb):
    plain = run_cli(verb, *VERB_ARGV[verb])
    timed = run_cli(verb, *VERB_ARGV[verb], "--stats")
    assert timed.returncode == plain.returncode == 0
    assert timed.stdout == plain.stdout
    assert plain.stderr == ""
    (line,) = timed.stderr.splitlines()
    stats = json.loads(line)
    assert list(stats) == ["verb", "import_seconds", "parse_seconds", "run_seconds"]
    assert stats["verb"] == verb
    assert stats["import_seconds"] >= 0
    assert stats["parse_seconds"] >= 0 and stats["run_seconds"] >= 0


def test_stats_line_is_not_written_on_an_error_exit():
    out = run_cli("volume", "--lower", "NENE", "--upper", "EENN", "--stats")
    assert out.returncode == 3
    (line,) = out.stderr.splitlines()
    assert line.startswith("error:")
