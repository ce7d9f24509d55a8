"""The lpmpoly benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  One run repeats passes of one workload, each
pass in a fresh single-threaded process (``harness.py``), while another pass
still fits in S seconds (at least two), and reports times built from each
op's median over the passes, at the reference speed (see harness.py).  With ``--trace 0`` the
last line of output is a JSON object with the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics and the tracing overhead.  ``--workload all`` prints every
end-to-end metric of every workload, by name and with its unit.  The exit
code is 1 when any op failed or two passes disagreed, 2 when a pass could
not run at all.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import LAYERS, PROBE_REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("large-regions", "counting", "small-sweep")
WORK_COUNTS = (
    "paths.paths_out", "matroid.bases_out", "polytope.edges_out", "polytope.facets_out",
    "polytope.facet_candidates", "decompose.strips_out", "decompose.leaves_out",
    "ehrhart.dilations", "triangulate.cells_out", "triangulate.perms_scanned",
    "oracle.regions_checked", "verify.checks", "cli.bytes_out",
)
MIN_PASSES = 2
PASS_TIMEOUT_S = 120


class PassError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, trace_file: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "harness.py"), "--workload", workload, "--seed", str(seed)]
    if trace_file is not None:
        cmd += ["--trace", str(trace_file)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassError(f"pass of {workload} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _betainc(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b), by Lentz's continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(a * math.log(x) + b * math.log1p(-x)
                     - math.lgamma(a) - math.lgamma(b) + math.lgamma(a + b)) / a
    f, c, d = 1.0, 1.0, 0.0
    for i in range(20_000):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > 1e-300 else 1e-300)
        c = 1.0 + num / c
        c = c if abs(c) > 1e-300 else 1e-300
        f *= c * d
        if abs(1.0 - c * d) < 1e-13:
            return front * (f - 1.0)
    raise ArithmeticError(f"incomplete beta did not converge at a={a}, b={b}, x={x}")


def percentile(values: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, the weights peaking at rank
    p*n and spread over a few dozen ranks.  A nearest-rank percentile jumps
    whenever a seeded input moves one op past another where the op times are
    sparse; this estimate moves smoothly.  Weights further than twelve of
    their standard deviations from p are below 1e-30 and left out.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    sd = math.sqrt(p * (1 - p) / (n + 2))
    lo = max(0, math.floor((p - 12 * sd) * n))
    hi = min(n, math.ceil((p + 12 * sd) * n))
    cdf = [_betainc(a, b, i / n) for i in range(lo, hi + 1)]
    weights = [y - x for x, y in zip(cdf, cdf[1:])]
    return sum(w * v for w, v in zip(weights, ordered[lo:hi])) / sum(weights)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Passes until ``seconds`` have gone by; with ``trace``, every second pass is traced."""
    if not (ROOT / "src" / "lpmpoly").is_dir():
        raise PassError(f"no package at {ROOT / 'src' / 'lpmpoly'}")
    warm = subprocess.run([sys.executable, "-m", "compileall", "-q", "src/lpmpoly"],
                          cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if warm.returncode != 0:
        raise PassError(f"compiling the package failed:\n{warm.stdout}{warm.stderr}")
    passes: list[dict] = []
    start = time.perf_counter()
    longest = 0.0
    # Another pass starts only if one as long as the longest so far still ends in time.
    while len(passes) < MIN_PASSES or time.perf_counter() - start + longest <= seconds:
        traced = trace and len(passes) % 2 == 1
        trace_file = OUT / f"trace-{workload}-seed{seed}-pass{len(passes)}.jsonl" if traced else None
        t0 = time.perf_counter()
        passes.append(run_pass(workload, seed, trace_file))
        longest = max(longest, time.perf_counter() - t0)
    return passes


def consistency(passes: list[dict]) -> list[str]:
    problems = []
    for field in ("input_digest", "answer_digest"):
        if len({p[field] for p in passes}) != 1:
            problems.append(f"passes disagree on {field}")
    for p in passes:
        problems.extend(p["failures"])
    return problems


def op_times(passes: list[dict]) -> list[float]:
    """Each op's median duration, at the reference speed, over the passes, which all ran the same ops.

    The passes scale each op's time to the reference speed by the probes
    around it (see harness.py), so what is left between passes is noise in
    both directions.  The median keeps the estimate unbiased whatever the
    number of passes.  Each op's fastest pass does not: on small-sweep the
    three passes of one seed read op_p50_ms 0.0245-0.0248 ms each, and the
    per-op minimum over them 0.0206 ms.
    """
    return [statistics.median(d) for d in zip(*(p["durations"] for p in passes))]


def speed(passes: list[dict]) -> float:
    """How fast the machine ran the probe in this run, relative to the reference speed."""
    return PROBE_REF_S / statistics.median(p["probe_s"] for p in passes)


def end_to_end(passes: list[dict]) -> dict:
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    durations = op_times(passes)
    values = {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "wall_s": (sum(durations), "s"),
        "op_p50_ms": (percentile(durations, 0.50) * 1e3, "ms"),
        "op_p95_ms": (percentile(durations, 0.95) * 1e3, "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    last = traced[-1]
    traced_ops = op_times(traced)
    out = {}
    for layer in LAYERS:
        stats = last["layers"][layer]
        busy = sum(d for d, owner in zip(traced_ops, last["op_layers"]) if owner == layer)
        out[f"{layer}.calls"] = (stats["calls"], "count")
        out[f"{layer}.busy_s"] = (busy, "s")
        out[f"{layer}.failed"] = (stats["failed"], "count")
    counts = last["counts"]
    for name in WORK_COUNTS:
        out[name] = (counts.get(name, 0), "B" if name == "cli.bytes_out" else "count")
    out["polytope.facet_yield"] = (_ratio(counts, "polytope.facets_out", "polytope.facet_candidates"), "ratio")
    out["triangulate.cell_yield"] = (_ratio(counts, "triangulate.cells_out", "triangulate.perms_scanned"), "ratio")
    out["trace.wall_s"] = (sum(traced_ops), "s")
    out["trace.overhead_s"] = (sum(traced_ops) - sum(op_times(untraced)), "s")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in out.items()}


def _ratio(counts: dict, num: str, den: str) -> float:
    return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0


def describe(workload: str, passes: list[dict]) -> list[str]:
    first = passes[0]
    stats = first["input_stats"]
    return [
        f"workload {workload} seed {first['seed']}: {len(passes)} passes "
        f"({sum(p['traced'] for p in passes)} traced), {first['ops']} ops per pass",
        f"inputs: {json.dumps(stats, sort_keys=True)}",
        f"input digest {first['input_digest']}",
        f"answer digest {first['answer_digest']}",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lpmpoly benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace) and args.workload != "all"
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    all_ok = True
    for name in names:
        try:
            passes = run_workload(name, args.seed, args.seconds, trace)
        except (PassError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        problems = consistency(passes)
        all_ok &= not problems
        for line in describe(name, passes):
            print(line)
        for problem in problems[:20]:
            print(f"FAILED {problem}")
        attempted = sum(p["ops"] for p in passes)
        failed = sum(p["failed"] for p in passes)
        metrics = per_layer(passes) if trace else end_to_end(passes)
        for metric, m in metrics.items():
            print(f"{name} {metric} {m['value']:.6g} {m['unit']}")
        print(f"{name} fail_ratio {failed / attempted:.6g} ({failed} of {attempted} ops)")
        raw_wall = sum(statistics.median(d) for d in zip(*(p["raw_durations"] for p in passes)))
        print(f"{name} unscaled wall_s {raw_wall:.6g} s; machine speed {speed(passes):.3f} x reference")
        if args.workload != "all":
            print(json.dumps({
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
