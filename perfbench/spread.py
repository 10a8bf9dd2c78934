#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs each workload once per seed (each run in its own process), then prints
for every end-to-end metric the median and the interquartile distance as a
share of the median, beside the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py --workloads paper_sweep --seeds 1-5
    python3 perfbench/spread.py --seeds 11-20 --out spread.json

Run from the repository root. Builds once with cargo (release) first.
"""
import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", help="write every run's result line here as JSON")
    args = ap.parse_args()

    subprocess.run(bench["command"] + ["--list-metrics"], check=True, stdout=subprocess.DEVNULL)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw = {}
    for w in args.workloads.split(","):
        raw[w] = []
        for seed in parse_seeds(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            raw[w].append(result)
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{w} seed {seed}: correct={result['correct']} {vals}", flush=True)
    worst_ok = True
    for w, results in raw.items():
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            spread = 0.0
            if len(vals) >= 2:
                q = statistics.quantiles(vals, n=4)
                spread = (q[2] - q[0]) / med
            flag = "ok" if spread < bound / 3 or name == "setup_s" else "WIDE"
            worst_ok &= flag == "ok"
            print(f"{w:16} {name:14} median {med:12.4f}  spread {spread:7.2%}  bound {bound:.0%}  {flag}")
    if args.out:
        json.dump(raw, open(args.out, "w"), indent=1)
    sys.exit(0 if worst_ok else 1)


if __name__ == "__main__":
    main()
