#!/usr/bin/env python3
"""Steadiness check for the webevo benchmark.

Runs each workload once per seed through perfbench/run.py and prints,
for every end-to-end metric, the median, the quartiles and the spread
(interquartile range / median) against the metric's bound in
BENCHMARK.json. It then reruns the first seed and checks that the
deterministic metrics repeat exactly. nproc, the seeds, the shard count
and the checkpoint directory are printed beside the numbers.

Usage, from the root of a checkout:

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10]
                                [--seconds S] [--json PATH]

Exits non-zero if a run fails, a spread (other than setup_s) exceeds its
bound, or a deterministic metric does not repeat.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DETERMINISTIC = ("freshness", "age_days", "checkpoint_bytes_per_batch",
                 "useful_fetch_share")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds):
    """Runs one workload; returns (result dict, header lines)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" %
                           (workload, seed, done.returncode))
    header = [l for l in lines if l.startswith("# nproc")]
    return json.loads(lines[-1]), header


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=0,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--json", default="",
                        help="also write every run's result here")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in bench["workloads"]])
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    ok = True
    record = {}
    for workload in workloads:
        results = []
        header = []
        for seed in seeds:
            result, header = run_once(workload, seed, seconds)
            if not result["correct"] or result["failed"] != 0:
                print("FAIL: %s seed %d: %d of %d checks failed" %
                      (workload, seed, result["failed"], result["attempted"]))
                ok = False
            results.append(result)
        print("== %s, seeds %s, %d s per run" %
              (workload, args.seeds, seconds))
        for line in header:
            print("   " + line.lstrip("# "))
        print("   %-28s %14s %14s %14s %8s %6s" %
              ("metric", "q1", "median", "q3", "spread", "bound"))
        for name, spec in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            if len(values) >= 2:
                q1, med, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = med = q3 = values[0]
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "ok"
            if spread > spec["bound"]:
                verdict = "WIDE"
                if name != "setup_s":
                    ok = False
            elif spread > spec["bound"] / 3:
                verdict = "wide/3"
            print("   %-28s %14.6g %14.6g %14.6g %8.4f %6.3f %s" %
                  (name, q1, med, q3, spread, spec["bound"], verdict))
        again, _ = run_once(workload, seeds[0], seconds)
        repeat_ok = True
        for name in DETERMINISTIC:
            first = results[0]["metrics"][name]["value"]
            second = again["metrics"][name]["value"]
            if first != second:
                print("FAIL: %s seed %d: %s %r then %r" %
                      (workload, seeds[0], name, first, second))
                repeat_ok = ok = False
        print("   deterministic metrics repeat at seed %d: %s" %
              (seeds[0], "yes" if repeat_ok else "NO"))
        record[workload] = {"seeds": seeds, "header": header,
                            "results": results, "repeat": again}
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
