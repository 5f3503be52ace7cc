"""Benchmark of the `mwidth` library: one workload, one seed, one run.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from `src/`.  The
load is a closed loop in one thread: each item starts after the previous
one returns, in passes over the workload's fixed inputs, until
`--seconds` have gone by (whole passes, at least one).

With `--trace 0` the last stdout line is a JSON object whose metrics are
the end-to-end ones: set-up time, items per second, median and tail item
latency, and peak resident memory, times scaled to a reference machine
speed by calibration samples taken during the run (see clock.py).  With `--trace 1` untraced and traced
passes alternate, and the metrics are per-function call counts and self
times, layer shares of the traced pass, ratio counters and the tracing
overhead.  Lines before the last one are a readable report.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 9
TAIL_BEYOND = 10  # items beyond the reported tail percentile

import clock  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def import_library():
    """Import `mwidth` afresh from this checkout's src/ (and `mwidth.cli`,
    whose import cost belongs to set-up as well)."""
    for name in [n for n in sys.modules if n == "mwidth" or n.startswith("mwidth.")]:
        del sys.modules[name]
    mw = importlib.import_module("mwidth")
    importlib.import_module("mwidth.cli")
    if os.path.dirname(os.path.dirname(os.path.abspath(mw.__file__))) != SRC:
        raise ImportError(f"mwidth was imported from {mw.__file__}, not from {SRC}")
    return mw


def set_up(workload, seed: int, clock):
    """Import and build the inputs SETUP_REPEATS times; keep the last.
    Returns the library, the workload and each set-up's (start, seconds)."""
    spans = []
    for _ in range(SETUP_REPEATS):
        clock.calibrate()
        t0 = time.perf_counter()
        mw = import_library()
        table = workloads.load_table()
        wl = workloads.WORKLOADS[workload]()
        wl.build(mw, seed, table)
        spans.append((t0, time.perf_counter() - t0))
    clock.calibrate()
    return mw, wl, spans


def tail(latencies: list) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with at least
    TAIL_BEYOND items beyond it; with fewer items, the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def run_passes(mw, wl, clock, seconds: float, recorder=None):
    """Passes until `seconds` are used.  With a recorder, each untraced
    pass is followed by a traced pass on the same inputs, and each traced
    pass's recording is kept."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        untraced.append((wl.run_pass(mw, clock), time.perf_counter() - t0))
        if recorder is not None:
            wl.passes -= 1  # same inputs as the untraced pass: the difference is tracing
            recorder.reset()
            recorder.install()
            t0 = time.perf_counter()
            try:
                res = wl.run_pass(mw, clock, recorder.tag)
            finally:
                recorder.uninstall()
            traced.append((res, time.perf_counter() - t0, recorder.take()))
            if len(traced) == 1:
                recorder.write_spans(os.path.join(
                    ROOT, ".bench_trace", f"{wl.name}-spans.jsonl"))
        if time.perf_counter() - start >= seconds:
            clock.calibrate()
            return untraced, traced


def end_to_end(untraced: list, setup: list, timer) -> tuple[dict, list]:
    """End-to-end metrics, times scaled to reference speed (see clock.py)."""
    items = [span for res, _ in untraced for span in res.items]
    busy = [span for res, _ in untraced for span in res.busy]
    lat = [timer.scaled(*span) for span in items]
    busy_s = sum(timer.scaled(*span) for span in busy)
    failed = sum(len(res.failures) for res, _ in untraced)
    pct, tail_s = tail(lat)
    _, raw_tail = tail([d for _, d in items])
    raw_busy = sum(d for _, d in busy)
    metrics = {
        "setup_s": (statistics.median(timer.scaled(*span) for span in setup), "s"),
        "items_per_s": (len(lat) / busy_s, "1/s"),
        "item_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "item_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    report = [
        f"items: {len(lat)} in {len(untraced)} passes; tail is p{pct:.2f} of "
        f"{len(lat)} items ({TAIL_BEYOND} beyond it)",
        f"failed_frac: {failed / len(lat):.6f} (1)",
        f"machine speed: calibration median {statistics.median(timer.samples_s) * 1000:.3f} ms "
        f"(reference {clock.REFERENCE_S * 1000:.3f} ms), {len(timer.samples_s)} samples",
        f"raw wall times: setup_s {statistics.median(d for _, d in setup):.6g} s, "
        f"items_per_s {len(items) / raw_busy:.6g} 1/s, "
        f"item_p50_ms {statistics.median(d for _, d in items) * 1000:.6g} ms, "
        f"item_tail_ms {raw_tail * 1000:.6g} ms",
    ]
    return metrics, report


def per_layer(untraced: list, traced: list) -> tuple[dict, list]:
    calls = traced[0][2]  # counts of the first traced pass
    wall = statistics.median(t[1] for t in traced)
    metrics = {}
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls.get(f"{name}.calls", 0), "count")
        metrics[f"{name}.self_s"] = (
            statistics.median(t[2][f"{name}.self_s"] for t in traced), "s")
    for meth in tracing.COUNTED:
        key = f"graph.Graph.{meth}.calls"
        metrics[key] = (calls.get(key, 0), "count")
    metrics["graph.Graph.built"] = (calls.get("graph.Graph.built", 0), "count")

    def ratio(num: str, den: str) -> float:
        d = calls.get(den, 0)
        return calls.get(num, 0) / d if d else 0.0

    metrics["terms.search.exhausted_ratio"] = (
        ratio("terms.search.not_exact", "terms.bounded_mwd_search.calls"), "ratio")
    metrics["terms.search.signature_atoms"] = (
        calls.get("terms.search.signature_atoms", 0), "count")
    metrics["oracles.enumerate.unique_ratio"] = (
        ratio("oracles.enumerate.kept", "oracles.enumerate.key_calls"), "ratio")
    metrics["oracles.width_cache.hit_ratio"] = (
        ratio("oracles.width_cache.hits", "oracles.WidthCache.widths.calls"), "ratio")
    for layer in tracing.LAYERS:
        own = sum(v for k, (v, _) in metrics.items()
                  if k.startswith(layer + ".") and k.endswith(".self_s"))
        metrics[f"{layer}.self_share"] = (own / wall, "ratio")
    plain = statistics.median(t for _, t in untraced)
    metrics["trace.overhead_s"] = (wall - plain, "s")
    report = [f"traced passes: {len(traced)}, median wall {wall:.3f} s "
              f"(untraced {plain:.3f} s, overhead {wall - plain:.3f} s); "
              f"counts are those of the first traced pass"]
    return metrics, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mwidth", "__init__.py")):
        print(f"error: no mwidth package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    timer = clock.Clock()
    mw, wl, setup = set_up(args.workload, args.seed, timer)
    recorder = tracing.Recorder(mw) if args.trace else None
    untraced, traced = run_passes(mw, wl, timer, args.seconds, recorder)

    runs = untraced + [(res, wall) for res, wall, _ in traced]
    attempted = sum(len(res.items) for res, _ in runs)
    failures = [f for res, _ in runs for f in res.failures]
    notes: dict = {}
    for res, _ in untraced:
        for key, value in res.notes.items():
            notes[key] = notes.get(key, 0) + value
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}; set-up {SETUP_REPEATS} times")
    if args.trace:
        metrics, report = per_layer(untraced, traced)
    else:
        metrics, report = end_to_end(untraced, setup, timer)
    for line in report:
        print(line)
    for key, value in sorted(notes.items()):
        print(f"over {len(untraced)} untraced passes: {key}: {value} items")
    for index, reason in failures[:10]:
        print(f"FAILED item {index}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
