#!/usr/bin/env python3
"""Collects and compares result sets of the repository benchmark.

    python3 perfbench/compare.py collect OUT.jsonl [--workloads a,b]
                                 [--seeds 1-10] [--seconds S] [--trace 0|1]
    python3 perfbench/compare.py report A.jsonl [B.jsonl]

`collect` runs perfbench/run.py once per (seed, workload), interleaving the
workloads seed by seed, and appends each result line to OUT.jsonl. Run it
from the checkout root.

`report` prints, per workload and end-to-end metric of BENCHMARK.json, the
median, first and third quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median of set A. A spread verdict is "steady" when the
spread is within a third of the metric's bound. With a
second set B it also prints B's median and the change from A to B, signed
so that positive is worse, and a within-bound verdict. Exits 1 if any
verdict fails or a run was incorrect.
"""

import json
import os
import statistics
import subprocess
import sys


def load_spec():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args, spec):
    out = args[0]
    opts = dict(zip(args[1::2], args[2::2]))
    workloads = opts.get("--workloads",
                         ",".join(w["name"] for w in spec["workloads"]))
    seeds = parse_seeds(opts.get("--seeds", "1-10"))
    seconds = opts.get("--seconds", str(spec["run_seconds"]))
    trace = opts.get("--trace", "0")
    with open(out, "a") as sink:
        for seed in seeds:
            for workload in workloads.split(","):
                cmd = spec["command"] + ["--workload", workload, "--seed",
                                         str(seed), "--seconds", seconds,
                                         "--trace", trace]
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.strip().splitlines()
                try:
                    result = json.loads(lines[-1])
                except (IndexError, ValueError):
                    result = None
                record = {"workload": workload, "seed": seed, "trace": trace,
                          "exit": proc.returncode, "result": result}
                sink.write(json.dumps(record) + "\n")
                sink.flush()
                print("%s seed=%d exit=%d correct=%s" % (
                    workload, seed, proc.returncode,
                    result and result.get("correct")))
    return 0


def load_set(path):
    runs = {}
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            runs.setdefault(record["workload"], []).append(record)
    return runs


def values(records, name):
    return [r["result"]["metrics"][name]["value"] for r in records
            if r["result"] and name in r["result"]["metrics"]]


def summarize(vals):
    med = statistics.median(vals)
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def report(args, spec):
    a = load_set(args[0])
    b = load_set(args[1]) if len(args) > 1 else None
    ok = True
    for workload in sorted(a):
        runs = a[workload]
        bad = [r["seed"] for r in runs
               if not (r["result"] and r["result"]["correct"])]
        if bad:
            ok = False
        note = ", INCORRECT seeds %s" % bad if bad else ""
        print("== %s: %d runs%s" % (workload, len(runs), note))
        print("  %-24s %14s %14s %14s %8s %7s %-8s" % (
            "metric", "median", "q1", "q3", "spread", "bound", "verdict"))
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = values(runs, name)
            if not vals:
                print("  %-24s missing" % name)
                ok = False
                continue
            med, q1, q3, spread = summarize(vals)
            verdict = "steady" if spread <= bound / 3 else "NOISY"
            ok &= verdict == "steady"
            line = "  %-24s %14.6g %14.6g %14.6g %8.4f %7.3f %-8s" % (
                name, med, q1, q3, spread, bound, verdict)
            if b is not None and workload in b:
                other = values(b[workload], name)
                if other:
                    bmed = statistics.median(other)
                    change = (bmed - med) / abs(med) if med else 0.0
                    worse = change if metric["better"] == "lower" else -change
                    within = worse <= bound
                    ok &= within
                    line += " B=%-12.6g worse=%+.4f %s" % (
                        bmed, worse, "within" if within else "OUT-OF-BOUND")
            print(line)
    return 0 if ok else 1


def main():
    if len(sys.argv) < 3 or sys.argv[1] not in ("collect", "report"):
        sys.stderr.write(__doc__)
        return 2
    spec = load_spec()
    if sys.argv[1] == "collect":
        return collect(sys.argv[2:], spec)
    return report(sys.argv[2:], spec)


if __name__ == "__main__":
    sys.exit(main())
