"""Time the roadmap's re-anchor points once, outside the gated workloads.

    python3 perfbench/reanchor.py

Run from the repository root.  These calls take seconds to tens of seconds
each, too long to repeat in every benchmark run; each line names the op of
a gated workload that stands in for the point.  Prints one line per point:
name, seconds, answer, stand-in.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

harness.load_library()

import lpmpoly as lp  # noqa: E402
from workloads import run_cli  # noqa: E402


POINTS = (
    ("volume, staircase n=10 (20 elements)",
     lambda: lp.volume(lp.reduced_catalan_region(10)),
     "large-regions volume.volume on staircase n=8 (E^8N^8/(NE)^8)"),
    ("facets, staircase n=8 (16 elements)",
     lambda: len(lp.facets(lp.reduced_catalan_region(8))),
     "large-regions polytope.facets on staircase n=7 (E^7N^7/(NE)^7)"),
    ("hypersimplex_triangulation(4,10)",
     lambda: len(lp.hypersimplex_triangulation(4, 10)),
     "counting triangulate.hypersimplex_triangulation at n=8 and n=9"),
    ("lpm verify all --max-size 6 (exit code)",
     lambda: run_cli(["verify", "all", "--max-size", "6"])[0],
     "small-sweep cli.main 'verify all --max-size 6', the same call"),
)


def main() -> int:
    for name, call, stand_in in POINTS:
        t0 = time.perf_counter()
        answer = call()
        elapsed = time.perf_counter() - t0
        print(f"{name}: {elapsed:.2f} s, answer {answer}; stands in: {stand_in}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
