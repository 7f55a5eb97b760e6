#!/usr/bin/env python3
"""Measure the benchmark's own run-to-run spread on an unchanged tree.

Runs two alternating sets of N end-to-end runs per workload (set A run i,
then set B run i, each with seed i+1) and prints, per workload and metric,
each set's median, the quartile spread (Q3-Q1 as a share of the median,
statistics.quantiles(n=4), what the driver computes), the same spread of
the raw values before the machine-state correction, and the difference
between the two set medians. CALIBRATION.md is this script's output.

    go build -o bench/out/bench ./bench && python3 bench/calibrate.py bench/out/bench 10
"""
import json
import statistics
import subprocess
import sys

binary, runs = sys.argv[1], int(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))
workloads = [w["name"] for w in spec["workloads"]]
bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
values = {}  # (set, workload, metric) -> [value per run]
attempted = failed = 0
for i in range(runs):
    for which in "AB":
        for w in workloads:
            out = subprocess.run(
                [binary, "--workload", w, "--seed", str(i + 1), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{w} seed {i + 1}: exit {out.returncode}\n{out.stdout[-2000:]}\n{out.stderr[-2000:]}")
            res = json.loads(out.stdout.strip().splitlines()[-1])
            assert res["correct"], (w, res)
            attempted, failed = attempted + res["attempted"], failed + res["failed"]
            for name, m in res["metrics"].items():
                values.setdefault((which, w, name), []).append(m["value"])
            doc = json.load(open(f"bench/out/run-{w}.json"))["workloads"][0]
            for name, m in doc["raw"].items():
                values.setdefault((which, w, "raw " + name), []).append(m["value"])
            print(f"# run {i + 1}/{runs} set {which} {w} ok", file=sys.stderr, flush=True)


def spread(v):
    q = statistics.quantiles(v, n=4)
    return (q[2] - q[0]) / statistics.median(v)


print("| workload | metric | median A | spread A | median B | spread B | B vs A | raw spread A | raw spread B | bound |")
print("|---|---|---|---|---|---|---|---|---|---|")
worst = {}
for w in workloads:
    for name, (bound, better) in bounds.items():
        a, b = values[("A", w, name)], values[("B", w, name)]
        ma, mb = statistics.median(a), statistics.median(b)
        diff = (mb - ma) / ma
        raw = [f"{spread(values[(s, w, 'raw ' + name)]):.1%}" if (s, w, "raw " + name) in values else "" for s in "AB"]
        print(f"| {w} | {name} | {ma:.4g} | {spread(a):.1%} | {mb:.4g} | {spread(b):.1%} | {diff:+.1%} | {raw[0]} | {raw[1]} | {bound:.0%} |")
        worst[name] = max(worst.get(name, 0), spread(a), spread(b), abs(diff))
    a, b = values[("A", w, "raw null_p50_us")], values[("B", w, "raw null_p50_us")]
    print(f"| {w} | *control* null_p50_us | {statistics.median(a):.4g} | {spread(a):.1%} | {statistics.median(b):.4g} | {spread(b):.1%} | {(statistics.median(b) - statistics.median(a)) / statistics.median(a):+.1%} | | | |")
print()
print("| metric | worst spread or set difference on any workload | bound | bound / 3 |")
print("|---|---|---|---|")
for name, (bound, _) in bounds.items():
    print(f"| {name} | {worst[name]:.1%} | {bound:.0%} | {bound / 3:.1%} |")
print()
print(f"{failed} of {attempted} operations failed over {2 * runs * len(workloads)} runs; every run was correct.")
json.dump({f"{s}/{w}/{n}": v for (s, w, n), v in values.items()}, open("bench/out/calibration.json", "w"), indent=1)
