#!/usr/bin/env python3
"""Steadiness self-check for the repo benchmark.

Runs every workload in two interleaved sets (A1 B1 A2 B2 ...) with a fresh
seed per run, then prints, for each end-to-end metric, each set's median
and quartiles, the quartile spread as a share of the median (also over
both sets together), and the metric's bound from BENCHMARK.json. A metric is
flagged when a spread exceeds a third of its bound (setup_s excepted: only
its medians must agree), or when the two sets' medians differ by more than
the bound.

    python3 perfbench/steadiness.py --runs 5             # 10 runs a workload
    python3 perfbench/steadiness.py --runs 3 --workloads oltp_rw

Exits 1 when any metric is flagged. Raw results are kept in
<build dir>/steadiness.json.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchstats as bs  # noqa: E402


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: run failed")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect run")
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse_by(a, b, better):
    """How much worse median b is than median a, as a share of a."""
    if a == 0:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10, help="runs per set")
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()

    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    out_path = os.path.join(root, base, "perfbench", "steadiness.json")

    results = {}
    flagged = 0
    for w in workloads:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            for k, name in enumerate("AB"):
                seed = args.first_seed + 2 * i + k
                start = time.monotonic()
                sets[name].append(run_once(root, w, seed, seconds))
                print(f"{w} set {name} run {i + 1}/{args.runs} (seed {seed}, "
                      f"{time.monotonic() - start:.0f} s)",
                      file=sys.stderr, flush=True)
        results[w] = sets
        print(f"\n{w}: {args.runs} runs per set")
        print(f"  {'metric':24s} {'A median':>12s} {'A spread':>9s} "
              f"{'B median':>12s} {'B spread':>9s} {'B worse':>8s} "
              f"{'all spread':>10s} {'bound':>6s}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = bs.spread([r[name] for r in sets["A"]])
            b = bs.spread([r[name] for r in sets["B"]])
            both = bs.spread([r[name] for s in "AB" for r in sets[s]])
            worse = worse_by(a[0], b[0], m["better"])
            flags = []
            if name != "setup_s" and max(a[3], b[3], both[3]) > bound / 3:
                flags.append("SPREAD")
            if worse > bound:
                flags.append("DISAGREE")
            flagged += bool(flags)
            print(f"  {name:24s} {a[0]:12.6g} {a[3]:9.4f} {b[0]:12.6g} "
                  f"{b[3]:9.4f} {worse:8.4f} {both[3]:10.4f} {bound:6.3f} "
                  f"{' '.join(flags)}")
            print(f"  {'':24s} A q1..q3 {a[1]:.6g}..{a[2]:.6g}  "
                  f"B q1..q3 {b[1]:.6g}..{b[2]:.6g}")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as f:
        json.dump(results, f, indent=1)
    print(f"\n{flagged} metric(s) flagged; raw results in {out_path}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
