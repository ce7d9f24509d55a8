"""One pass of one workload, in a fresh process: set up, run every op, check it.

Run as ``python3 perfbench/harness.py --workload NAME --seed N [--trace FILE]``
from the repository root; the last line of standard output is a JSON record
of the pass, which ``run.py`` aggregates.

Each op is one call into one public function of one ``lpmpoly`` module (the
op's layer).  The call alone is timed; the answer check, the work counts and
the answer digest run after it, outside the span.  With ``--trace`` every
span (name ``layer.function``, start, end, parent, op id) is kept in memory
and written to FILE when the pass ends.

Times are reported at a fixed reference speed.  Other tenants of a shared
machine change the speed of the same pure-Python code by up to 1.8x, for
seconds to minutes at a time, so between ops, outside the spans, the pass
times a fixed probe of interpreter work (``probe``) at least every
``PROBE_EVERY_S``.  Each op's
duration is scaled by ``PROBE_REF_S`` over the mean probe time around it (see
``_scaled``); set-up is scaled by the probes just before and after it.  The
raw durations are kept in the record as well.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
LAYERS = (
    "paths", "matroid", "polytope", "decompose", "volume", "ehrhart",
    "triangulate", "ratlinalg", "oracle", "verify", "cli",
)


# The probe's time at the speed all reported times are scaled to: its usual
# time on the 2.1 GHz Xeon VM (Python 3.11) the bounds were set on.
PROBE_REF_S = 0.0006
PROBE_EVERY_S = 0.05
PROBE_WINDOW_S = 0.125
PROBE_REPEATS = 2


def probe_work() -> int:
    """Fixed interpreter work in the library's mix: Fraction sums, small tuples,
    set and dict updates, string building and a sort."""
    acc = Fraction(0)
    seen = set()
    table: dict = {}
    for i in range(1, 50):
        acc += Fraction(i, i + 1) - Fraction(1, i)
        t = tuple((i * j) % 17 for j in range(8))
        seen.add(t)
        table[t] = table.get(t, 0) + 1
    words = sorted("".join("NE"[(i >> b) & 1] for b in range(10)) for i in range(80))
    return len(seen) + len(words) + acc.denominator % 7


def probe() -> float:
    """The probe's fastest time over a few repeats, in seconds."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        probe_work()
        best = min(best, time.perf_counter() - t0)
    return best


class WrongAnswer(Exception):
    """An op returned, but its answer disagrees with the independent route."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise WrongAnswer(message)


@dataclass
class Op:
    """One timed call ``fn(*args)`` into ``layer``.

    ``args`` is a tuple, or a function of the kept results (keyed by
    ``(func, key)``) that builds it before the span opens.  ``check`` gets the
    answer and those results and raises on a wrong answer; ``counts`` turns
    the answer into per-layer work counts; ``digest`` gives the part of the
    answer that goes into the answer digest.  Only answers marked ``keep``,
    which later ops read, outlive their op, so the pass's peak memory is
    the library's and not a pile of old answers.
    """

    layer: str
    func: str
    key: str
    fn: Callable
    args: tuple | Callable[[dict], tuple]
    check: Callable[[Any, dict], None]
    counts: Callable[[Any], dict] | None = None
    digest: Callable[[Any], Any] | None = None
    keep: bool = False


def canon(x):
    """A JSON-ready form of an answer that does not depend on class names."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (list, tuple)):
        return [canon(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(canon(v) for v in x)
    if is_dataclass(x):
        return [canon(getattr(x, f.name)) for f in fields(x)]
    if hasattr(x, "lower") and hasattr(x, "upper"):  # Region
        return [x.lower.word, x.upper.word]
    if hasattr(x, "word"):  # PathWord
        return x.word
    raise TypeError(f"no canonical form for {type(x).__name__}")


def load_library() -> float:
    """Import every layer from this checkout's ``src``; return the seconds taken."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    modules = [importlib.import_module(f"lpmpoly.{layer}") for layer in LAYERS]
    elapsed = time.perf_counter() - t0
    for module in modules:
        if not Path(module.__file__).resolve().is_relative_to(src):
            raise ImportError(f"{module.__name__} comes from {module.__file__}, not {src}")
    return elapsed


def run_pass(ops: list[Op], trace: bool) -> dict:
    """Run the ops in order; return durations, per-layer stats, counts and digests."""
    results: dict = {}
    durations: list[float] = []
    starts: list[int] = []
    ends: list[int] = []
    probes: list[tuple[int, int, float]] = []  # (index of the next op, when, probe time)
    probes.append((0, time.perf_counter_ns(), probe()))
    last_probe = time.perf_counter()
    layers = {layer: {"calls": 0, "failed": 0} for layer in LAYERS}
    counts: dict[str, int] = {}
    failures: list[str] = []
    spans: list[dict] = []
    answers = hashlib.sha256()
    inputs = hashlib.sha256()
    seen: set[tuple[str, str]] = set()
    pass_start = time.perf_counter_ns()
    for op_id, op in enumerate(ops):
        name = f"{op.layer}.{op.func}"
        if time.perf_counter() - last_probe >= PROBE_EVERY_S:
            probes.append((op_id, time.perf_counter_ns(), probe()))
            last_probe = time.perf_counter()
        if (op.func, op.key) in seen:
            raise ValueError(f"{name} repeats input {op.key}")
        seen.add((op.func, op.key))
        inputs.update(f"{name}|{op.key}\n".encode())
        stats = layers[op.layer]
        stats["calls"] += 1
        error = None
        t0 = t1 = time.perf_counter_ns()
        try:
            args = op.args(results) if callable(op.args) else op.args
            t0 = time.perf_counter_ns()
            answer = op.fn(*args)
            t1 = time.perf_counter_ns()
        except Exception as exc:  # a raising op is a failed op, not a crash
            t1 = time.perf_counter_ns()
            error = f"raised {type(exc).__name__}: {exc}"
        if trace:
            spans.append({
                "id": op_id + 1, "name": name, "start": t0 - pass_start,
                "end": t1 - pass_start, "parent": 0, "op": op_id, "key": op.key,
            })
        durations.append((t1 - t0) / 1e9)
        starts.append(t0)
        ends.append(t1)
        if error is None:
            if op.keep:
                results[(op.func, op.key)] = answer
            try:
                op.check(answer, results)
                answers.update(f"{name}|{op.key}|".encode())
                summary = op.digest(answer) if op.digest else answer
                answers.update(json.dumps(canon(summary), separators=(",", ":")).encode())
                if op.counts:
                    for k, v in op.counts(answer).items():
                        counts[f"{op.layer}.{k}"] = counts.get(f"{op.layer}.{k}", 0) + v
            except Exception as exc:
                error = f"wrong answer: {type(exc).__name__}: {exc}"
        if error is not None:
            stats["failed"] += 1
            failures.append(f"op {op_id} {name}({op.key}): {error}")
    pass_end = time.perf_counter_ns()
    probes.append((len(ops), time.perf_counter_ns(), probe()))
    if trace:
        spans.insert(0, {
            "id": 0, "name": "bench.pass", "start": 0, "end": pass_end - pass_start,
            "parent": None, "op": None, "key": None,
        })
    return {
        "ops": len(ops),
        "failed": len(failures),
        "failures": failures[:20],
        "durations": _scaled(durations, starts, ends, probes),
        "raw_durations": durations,
        "probe_s": statistics.median(t for _, _, t in probes),
        "op_layers": [op.layer for op in ops],
        "layers": layers,
        "counts": counts,
        "input_digest": inputs.hexdigest(),
        "answer_digest": answers.hexdigest(),
        "spans": spans,
    }


def _scaled(durations: list[float], starts: list[int], ends: list[int],
            probes: list[tuple[int, int, float]]) -> list[float]:
    """Each op's duration at the reference speed.

    The scale is the mean time of the probes just before and just after the
    op and of every probe within ``PROBE_WINDOW_S``, or the op's own length if
    longer, of its start or end.  The machine's speed can change several
    times a second; a short op takes the speed of its neighbourhood, and a
    long one, which spans many such changes, the average of a stretch as long
    as itself on either side.
    """
    out = []
    k = 0
    for i, d in enumerate(durations):
        while probes[k + 1][0] <= i:
            k += 1
        reach = max(PROBE_WINDOW_S * 1e9, ends[i] - starts[i])
        lo, hi = k, k + 1
        while lo > 0 and probes[lo - 1][1] >= starts[i] - reach:
            lo -= 1
        while hi + 1 < len(probes) and probes[hi + 1][1] <= ends[i] + reach:
            hi += 1
        near = [t for _, _, t in probes[lo:hi + 1]]
        out.append(d * PROBE_REF_S / (sum(near) / len(near)))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", help="write the spans of this pass to this JSONL file")
    args = parser.parse_args(argv)

    probe_before = probe()
    import_s = load_library()
    import workloads

    t0 = time.perf_counter()
    ops, stats = workloads.build(args.workload, args.seed)
    generate_s = time.perf_counter() - t0
    probe_after = probe()
    stats = stats()

    record = run_pass(ops, trace=bool(args.trace))
    spans = record.pop("spans")
    if args.trace:
        out = Path(args.trace)
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    record.update(
        workload=args.workload,
        seed=args.seed,
        traced=bool(args.trace),
        import_s=import_s,
        generate_s=generate_s,
        setup_s=(import_s + generate_s) * PROBE_REF_S / ((probe_before + probe_after) / 2),
        raw_setup_s=import_s + generate_s,
        input_stats=stats,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
