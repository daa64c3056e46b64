"""Two sets of runs of the same code, compared metric by metric.

    python3 benchmark/steadiness.py

Run from the root of a checkout.  For every workload in BENCHMARK.json,
runs `benchmark/run.py --trace 0` for BENCHMARK.json's `run_seconds` ten
times with a different seed each time (set A: seeds 1..10), then the same
again as set B (seeds 1001..1010), and prints for each end-to-end metric
each set's median and quartiles, the spread (interquartile distance over
the median) against the metric's bound, and the ratio of the two medians.
Every raw result is kept in benchmark/out/steadiness.json.

Exits 1, after the table, if a run was incorrect, if the share of failed
operations differs between any two runs of a workload, if a spread other
than `setup_s`'s exceeds its bound, or if set B's median is worse than set
A's by more than the bound.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_PY = os.path.join(HERE, "run.py")
RUNS = 10
SEED_BASES = {"A": 1, "B": 1001}


def one_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, RUN_PY, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    results = {}
    for s, base in SEED_BASES.items():
        for w in names:
            for k in range(RUNS):
                t0 = time.perf_counter()
                r = one_run(w, base + k, bench["run_seconds"])
                results.setdefault(w, {}).setdefault(s, []).append(r)
                print(f"set {s} {w} seed {base + k}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']} "
                      + " ".join(f"{n}={m['value']:.4f}" for n, m in r["metrics"].items())
                      + f" ({time.perf_counter() - t0:.0f} s)", flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steadiness.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)

    problems = []
    print()
    print("| workload | metric | bound | set A median [q1, q3] | spread A | "
          "set B median [q1, q3] | spread B | B/A |")
    print("|---|---|---|---|---|---|---|---|")
    for w in names:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cells, meds = [], []
            for s, runs in results[w].items():
                med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in runs])
                meds.append(med)
                cells += [f"{med:.4f} [{q1:.4f}, {q3:.4f}]", f"{spread:.3f}"]
                if name != "setup_s" and spread > bound:
                    problems.append(f"{w} {name}: set {s} spread {spread:.3f} > {bound}")
            ratio = meds[1] / meds[0]
            worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            if worse > bound:
                problems.append(f"{w} {name}: set B worse than set A by {worse:.3f} > {bound}")
            print(f"| {w} | {name} | {bound} | " + " | ".join(cells) + f" | {ratio:.3f} |")
        runs = [r for s in results[w].values() for r in s]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        print(f"| {w} | failed share | | {shares} | all correct: {correct} |")
        if len(shares) != 1:
            problems.append(f"{w}: failed shares differ between runs: {shares}")
        if not correct:
            problems.append(f"{w}: a run reported correct: false")
    for p in problems:
        print(f"NOT STEADY: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
