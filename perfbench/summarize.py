#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/summarize.py [--workloads a,b] [--seeds 1,2,3]
                                   [--trace 0|1] [--write perfbench/baseline.json]

Run from the repository root. Uses the command and run length recorded in
BENCHMARK.json, prints per workload and metric the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median next to
the metric's bound, and with --write stores the table plus the host block
(cores, SIMD tier, build profile, kb-server banner) as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    host = {}
    for line in proc.stderr.splitlines():
        if line.startswith("perfbench: host "):
            host.update(kv.split("=", 1) for kv in line.split()[2:])
        elif line.startswith("perfbench: banner "):
            host["banner"] = line[len("perfbench: banner "):]
    return result, host


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--write", default="")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    host = {"nproc": os.cpu_count()}
    table = {}
    for workload in workloads:
        values = {}
        for seed in seeds:
            result, run_host = run_once(bench, workload, seed, args.trace)
            host.update(run_host)
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: attempted {result['attempted']}", file=sys.stderr)
        rows = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds.get(name)
            flag = "" if bound is None else f"bound {bound:<5} {'ok' if spread <= bound / 3 else 'WIDE'}"
            print(f"{workload:14} {name:40} median {med:14.6g} q1 {q1:14.6g} q3 {q3:14.6g} "
                  f"spread {spread:7.4f} {flag}")
        table[workload] = rows
    if args.write:
        with open(args.write, "w") as f:
            json.dump({"host": host, "run_seconds": bench["run_seconds"], "seeds": seeds,
                       "trace": args.trace, "workloads": table}, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
