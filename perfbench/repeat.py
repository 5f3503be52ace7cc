"""Repeat check: two sets of benchmark runs of the same code, compared.

    python3 perfbench/repeat.py                      # 2 sets x 10 seeds, every workload
    python3 perfbench/repeat.py --sets 1 --runs 5 --workloads theorems

Run from the repository root.  Each run is `run.py` in its own process
with its own seed (set k uses seeds 1000 k + 1 ..), one at a time,
alternating which set goes first.  For every workload and end-to-end
metric of BENCHMARK.json it prints each set's median and quartiles, the
spread (q3 - q1) / median, and whether
  - each spread is within the metric's bound and within a third of it
    (the target that leaves room for a noisier machine);
  - the two sets' medians differ, either way, by no more than the bound
    as a share of the first set's median.
Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One untraced run; its result line."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    return result


def quartiles(values: list) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="seeds per set")
    ap.add_argument("--sets", type=int, default=2, choices=(1, 2))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    names = args.workloads.split(",")
    metrics = spec["end_to_end"]

    values = {(s, w, m["name"]): [] for s in range(args.sets) for w in names for m in metrics}
    bad_runs = 0
    for i in range(args.runs):
        for w in names:
            order = range(args.sets) if i % 2 == 0 else reversed(range(args.sets))
            for s in order:
                seed = 1000 * s + i + 1
                res = run_once(w, seed, args.seconds)
                bad_runs += res["failed"] > 0 or not res["correct"]
                for m in metrics:
                    values[(s, w, m["name"])].append(res["metrics"][m["name"]]["value"])
                print(f"run {i + 1} set {s + 1} {w} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items())
                    + f", failed_frac={res['failed'] / res['attempted']:.4g} "
                    f"({res['failed']} of {res['attempted']} items)", flush=True)

    ok = bad_runs == 0
    summary = []
    print(f"\n{'workload':10} {'metric':13} {'unit':5} {'set':>3} {'median':>10} "
          f"{'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}  verdict")
    for w in names:
        for m in metrics:
            meds = []
            for s in range(args.sets):
                q1, med, q3 = quartiles(values[(s, w, m["name"])])
                spread = (q3 - q1) / med
                meds.append(med)
                verdict = ("ok" if spread <= m["bound"] / 3 else
                           "within bound" if spread <= m["bound"] else "TOO WIDE")
                ok &= spread <= m["bound"]
                summary.append({"workload": w, "metric": m["name"], "set": s + 1,
                                "median": med, "q1": q1, "q3": q3, "spread": spread})
                print(f"{w:10} {m['name']:13} {m['unit']:5} {s + 1:>3} {med:>10.4g} "
                      f"{q1:>10.4g} {q3:>10.4g} {spread:>7.3f} {m['bound']:>6}  {verdict}")
            if args.sets == 2:
                shift = (meds[1] - meds[0]) / meds[0]
                agree = abs(shift) <= m["bound"]
                ok &= agree
                print(f"{w:10} {m['name']:13} set 2 vs 1: median moved {shift:+.3f} "
                      f"-> {'agree' if agree else 'DISAGREE'}")
    print(f"\nfailed runs: {bad_runs}; all checks hold: {ok}")
    print(json.dumps({"ok": ok, "summary": summary}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
