"""Acceptance gate: every criterion at its stated size, exact arithmetic throughout.

Each test prints one pass/fail line (run with ``pytest -s`` to see them).
Criterion 6 carries one expected failure: the published pairing property
for split certification is disproved by a desk counterexample; the split
validity itself is checked and green.  See notes in the test.
"""

import subprocess
import sys
import time

import pytest

from lpmpoly import verify as V
from lpmpoly import bases, decomposition_tree
from lpmpoly.verify import good_partition_of_split, verify_good_partition
from lpmpoly.oracle import all_regions


def _report(number, label, result, started):
    elapsed = time.time() - started
    status = "PASS" if result.ok else "FAIL"
    print(f"criterion {number:02d} {label}: {status} "
          f"({result.checked} checks, {elapsed:.1f}s)")
    for failure in result.failures:
        print(f"    {failure}")
    assert result.ok, f"criterion {number} failed: {result.failures[:3]}"


def test_criterion_01_bases():
    t0 = time.time()
    _report(1, "bases-vs-oracle (m+r <= 7)", V.check_bases(7), t0)
    assert time.time() - t0 < 10


def test_criterion_02_dimension():
    t0 = time.time()
    _report(2, "dimension (m+r <= 7, staircases n=2..6)", V.check_dimension(7, range(2, 7)), t0)
    assert time.time() - t0 < 10


def test_criterion_03_edges():
    t0 = time.time()
    _report(
        3,
        "edges (oracle <= 6, areas <= 10, closed form n <= 7)",
        V.check_edges(oracle_max=6, area_max=10, formula_max=7),
        t0,
    )
    assert time.time() - t0 < 30


def test_criterion_04_facets():
    t0 = time.time()
    result = V.check_facets(max_size=8, catalan_ns=range(3, 7))
    verdicts = V.kcatalan_verdicts()
    print("    width-staircase facet verdicts (width, n, claimed, certified):")
    for row in verdicts:
        print(f"      {row}")
    _report(4, "facets (oracle <= 8, counts n=3..6)", result, t0)
    assert time.time() - t0 < 60


def test_criterion_05_faces_are_regions():
    t0 = time.time()
    _report(5, "faces are path regions (m+r <= 6)", V.check_faces(6), t0)
    assert time.time() - t0 < 30


def test_criterion_06_decomposition():
    t0 = time.time()
    _report(
        6,
        "decomposition (splits valid, leaves = strips, volumes add, m+r <= 7)",
        V.check_decomposition(7),
        t0,
    )
    assert time.time() - t0 < 30


@pytest.mark.xfail(
    strict=True,
    reason=(
        "The published certification route claims every straddle split comes "
        "from a good partition; the pairing property (P2) fails already at "
        "m+r = 6, e.g. (EENENN, NNEENE) at (x=2, j=1) where {2} and {3,4} are "
        "independent but their union is not.  The splits themselves are valid "
        "(criterion 6 core above); see the errata report entry "
        "split-goodness-certification and the README section "
        "'Verification and errata'."
    ),
)
def test_criterion_06_literal_pairing_clause():
    for region in all_regions(7, connected_only=True):
        stack = [decomposition_tree(region)]
        while stack:
            node = stack.pop()
            if not node.children:
                continue
            stack.extend(node.children)
            gp = good_partition_of_split(node.region, node.split.x, node.split.j)
            assert verify_good_partition(node.region, gp), (node.region, node.split)


def test_criterion_07_volume():
    t0 = time.time()
    _report(
        7,
        "volume (leading coeff <= 7, rectangles n <= 8, fillings <= 8)",
        V.check_volume(max_size=7, rectangle_max=8, strip_max=8),
        t0,
    )
    assert time.time() - t0 < 30


def test_criterion_08_triangulation():
    t0 = time.time()
    _report(
        8,
        "triangulation (counts n <= 8, unimodular, round trips, strips <= 8)",
        V.check_triangulation(n_max=8, strip_max=8, roundtrip_n=6, samples=1000),
        t0,
    )
    assert time.time() - t0 < 60


def test_criterion_09_ehrhart():
    t0 = time.time()
    result = V.check_ehrhart(6)
    lines = V.reconcile_sweep(max_size=5, t_max=3)
    mismatches = sum(1 for line in lines[1:] if line.endswith("false"))
    print(f"    reconciliation table: {len(lines) - 1} rows, {mismatches} mismatches")
    assert len(lines) > 1 and mismatches > 0  # the report is the deliverable
    _report(9, "ehrhart (interpolation <= 6, reconciliation table)", result, t0)
    assert time.time() - t0 < 60


def test_criterion_10_verify_cli():
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, "-m", "lpmpoly.cli", "verify", "all", "--max-size", "6"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    elapsed = time.time() - t0
    tracked = [
        "catalan-edge-closed-form",
        "dimension-touch-point-offset",
        "catalan-facet-families",
        "gamma-bound-orientation",
        "gamma-lattice-point-count",
        "ehrhart-double-sum",
    ]
    missing = [claim for claim in tracked if claim not in proc.stdout]
    ok = proc.returncode == 0 and not missing and elapsed < 120
    print(f"criterion 10 verify-all CLI: {'PASS' if ok else 'FAIL'} "
          f"(exit {proc.returncode}, {elapsed:.1f}s)")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert not missing, f"errata report lacks verdicts for {missing}"
    assert elapsed < 120
