#!/usr/bin/env python3
"""Steadiness check: run each workload K times with different seeds and
print every metric's median and quartiles next to its bound.

    python3 perfbench/steady.py [--runs 10] [--trace 0|1] [--seed0 1]

The spread is (Q3 - Q1) / median with Python's statistics.quantiles(n=4).
An end-to-end metric is steady when its spread is below a third of its
bound (setup_s is judged by its median alone).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def one(workload, seed, trace):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"steady: {workload} seed {seed} failed with exit code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args()

    bounds = {n: bd for n, _, _, bd in run.END_TO_END}
    names = list(bounds) if not args.trace else [n for n, _, _ in run.PER_LAYER]
    for w, _ in run.WORKLOADS:
        values = {n: [] for n in names}
        fail_shares = set()
        for i in range(args.runs):
            rep = one(w, args.seed0 + i, args.trace)
            fail_shares.add(rep["failed"] / rep["attempted"])
            for n in names:
                values[n].append(rep["metrics"][n]["value"])
        print(f"\n{w}: {args.runs} runs, failed share {sorted(fail_shares)}")
        print(f"  {'metric':32} {'median':>14} {'Q1':>14} {'Q3':>14} {'spread':>8} {'bound':>6}")
        for n in names:
            v = values[n]
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(n)
            flag = ""
            if bound is not None and n != "setup_s":
                flag = "ok" if spread < bound / 3 else ("WIDE" if spread >= bound else "loose")
            print(f"  {n:32} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6} {flag}")


if __name__ == "__main__":
    main()
